"""Golden outputs: the bytes that ``cogmac`` prints for a fixed set of runs.

``python tests/golden/regen.py`` rewrites every golden file in this folder
and ``manifest.json``, the numpy, Python and platform that wrote them.
``tests/test_golden.py`` reruns each case and compares bytes.  A change
that moves a golden byte regenerates the files in the same commit, so that
the diff shows the moved rows.

The cases:

* ``simulate --preset fig5|fig6|fig7|fig8`` at 300 trials, seed 4, one thread;
* custom ``simulate --config`` points, one per branch of the simulator's
  layout that the presets leave out (see ``CUSTOM``);
* every ``analytic --law`` table at K in ``ANALYTIC_K`` and rho in
  ``ANALYTIC_RHO``, one file per law;
* the full-level ``validate`` report lines and KS rows, from one
  ``validation.run_all("full")`` (in tier-1, the acceptance suite's run).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = "manifest.json"

SIMULATE = ("--trials", "300", "--seed", "4", "--threads", "1")
PRESETS = ("fig5", "fig6", "fig7", "fig8")
# Custom point -> its config file's network section (trials and seed as above).
CUSTOM = {
    # A power cap takes brute force; primary power adds the denominator draws.
    "capped_baseline_primary": {"mode": "baseline", "n_users": 16, "k_factor": 2.0,
                                "max_power_cap": 2.0, "primary_power": 1.0},
    "capped_rab_m2": {"n_users": 16, "m_patterns": 2, "k_factor": 10.0, "max_power_cap": 2.0},
    # M >= 3 with N M = 24 < 48 user-pattern draws per slot: brute force.
    "rab_m3_below_table": {"n_users": 8, "m_patterns": 3, "k_factor": 10.0},
    # M >= 3 with N M = 96: the sampler on the Kluyver table.
    "rab_m3_sampler": {"n_users": 32, "m_patterns": 3, "k_factor": 10.0,
                       "mean_interference_power": 3.7},
    # K = 0: the Rayleigh form for any M.
    "rab_m4_k0": {"n_users": 16, "m_patterns": 4, "k_factor": 0.0},
    # The Bessel law at the top of its certified range.
    "rab_m2_k1000": {"n_users": 64, "m_patterns": 2, "k_factor": 1000.0,
                     "mean_interference_power": 3.7, "peak_interference": 2.0},
    # M >= 3 above the table's certified K: brute force.
    "rab_m5_k200_brute": {"n_users": 16, "m_patterns": 5, "k_factor": 200.0},
}
LAWS = ("theorem1-law", "effective-users", "effective-users-rab2", "ratio-cdf", "ratio-pdf",
        "rab2-cdf", "rab2-tail", "normalizer")
ANALYTIC_K = (0.0, 0.5, 2.0, 10.0, 100.0, 1000.0)
ANALYTIC_RHO = (1.0, 3.7)


def environment() -> dict:
    """What can move the last bits of a golden file."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


def _cli(argv) -> tuple:
    """(exit code, standard output) of ``cogmac *argv`` in this process."""
    from cogmac import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def simulate_csv(argv, network=None) -> str:
    """The CSV that ``cogmac simulate *argv`` writes, with a config file
    holding ``network`` as its network section when given."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        if network is not None:
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"network": network}, fh)
            argv = ["--config", config, *argv]
        rc, _ = _cli(["simulate", *argv, *SIMULATE, "--out", out])
        if rc != 0:
            raise RuntimeError(f"simulate {argv} exited {rc}")
        with open(out, encoding="utf-8") as fh:
            return fh.read()


def analytic_tables(law: str) -> str:
    """``analytic --law law`` over the K and rho grids at the default N and z
    grids: one section per (K, rho), headed by its flags and exit code."""
    parts = []
    for k in ANALYTIC_K:
        for rho in ANALYTIC_RHO:
            flags = ["--law", law, "--k", f"{k:g}", "--rho", f"{rho:g}"]
            rc, table = _cli(["analytic", *flags])
            parts.append(f"# {' '.join(flags)}: exit {rc}\n{table}")
    return "".join(parts)


def validate_report(results) -> str:
    """The report lines that ``cogmac validate`` prints for ``results``."""
    return "".join(f"[{'PASS' if r.passed else 'FAIL'}] {r.check_id}: {r.detail}\n"
                   for r in results)


def validate_ks_csv(results) -> str:
    """The KS CSV that ``cogmac validate --out`` writes for ``results``."""
    from cogmac.simulator import format_number

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["check", "case", "n", "statistic", "threshold_1pct", "passed"])
    for r in results:
        for case, n, stat, threshold, passed in r.ks_rows:
            writer.writerow([r.check_id, case, n, format_number(stat),
                             format_number(threshold), int(passed)])
    return buf.getvalue()


# Golden file -> the text it holds, from a fresh run.
CLI_CASES = {
    **{f"simulate_{p}.csv": (lambda p=p: simulate_csv(["--preset", p])) for p in PRESETS},
    **{f"simulate_{name}.csv": (lambda net=net: simulate_csv([], net))
       for name, net in CUSTOM.items()},
    **{f"analytic_{law}.txt": (lambda law=law: analytic_tables(law)) for law in LAWS},
}
# Golden file -> the text it holds, from the full-level validation results.
VALIDATE_CASES = {"validate_full.txt": validate_report, "validate_full_ks.csv": validate_ks_csv}


def main() -> int:
    from cogmac import validation

    written = {name: make() for name, make in CLI_CASES.items()}
    results = validation.run_all("full")
    written.update({name: make(results) for name, make in VALIDATE_CASES.items()})
    written[MANIFEST] = json.dumps(environment(), indent=2) + "\n"
    for name, text in written.items():
        (HERE / name).write_text(text, encoding="utf-8", newline="")
    print(f"wrote {len(written)} files to {HERE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
