"""Run one ``cogmac`` CLI call in this fresh process and print its figures.

Usage: python3 perfbench/worker.py ROOT SPEC_JSON

SPEC_JSON holds ``argv`` (the CLI arguments) and optionally
``setup_only`` (stop after set-up), ``record_estimates`` (keep every
``run_experiment`` result that ``validation`` gets back) and ``trace``
(a path: record spans there and report per-layer metrics).  The last line
of standard output is one JSON object; the CLI's own standard output is
captured into its ``stdout`` field.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    root, spec = sys.argv[1], json.loads(sys.argv[2])
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    argv = spec["argv"]

    t0 = time.perf_counter()
    import cogmac.cli as cli

    cli.build_parser().parse_args(argv)
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"cogmac was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    report = {"setup_s": setup_s}
    if spec.get("setup_only"):
        print(json.dumps(report))
        return 0

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer(run_id=os.path.basename(os.path.dirname(spec["trace"])))
        spans.install(tracer)
    estimates = []
    if spec.get("record_estimates"):
        from cogmac import validation

        inner = validation.run_experiment

        def recorded(*args, **kwargs):
            est = inner(*args, **kwargs)
            estimates.append((est.mean_nats, est.stderr_nats))
            return est

        validation.run_experiment = recorded

    captured = io.StringIO()
    cpu0 = time.process_time()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(argv)
    wall_s = time.perf_counter() - t1
    report.update(
        wall_s=wall_s,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        rc=rc,
        stdout=captured.getvalue(),
        estimates=estimates,
    )
    if tracer is not None:
        tracer.write(spec["trace"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
