"""cogmac benchmark: figure sweeps, validate-fast and a threaded sweep.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5-baseline --seed 1 --seconds 20 --trace 0

Each repetition runs the CLI (``cogmac.cli.main``) of the checkout's
``src/cogmac`` in a fresh worker process, one at a time, so that peak
memory belongs to one call.  A run makes as many repetitions as fit in
``--seconds`` on the reference machine; timings are medians over them.
Every output is checked (see :func:`gate_sweep` and :func:`gate_validate`)
outside the timed region.  With ``--trace 1`` one extra traced repetition follows and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of standard output is the JSON result; the exit code is 0 only if
every output was correct.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "_runs")

N_GRID = (8, 16, 32, 64, 128, 256, 512)
# A point fails when its mean is further than this many standard errors
# from the reference.
Z_GATE = 5.0
# Set-up probes per run (after one discarded warm-up), on top of the
# set-up time every repetition reports.
SETUP_PROBES = 5
# The known red: criterion 7 fails at the parent commit and is counted as expected.
EXPECTED_FAILING_CHECKS = frozenset({"rab_restores_log_growth"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rep_s: float                # seconds one repetition takes on the 2-core reference machine
    preset: str | None = None   # None: validate --level fast
    trials: int = 0
    threaded: bool = False      # --threads nproc instead of 1

    def repetitions(self, seconds: int) -> int:
        """A fixed count per run length, so every run does the same work."""
        return max(1, round(seconds / self.rep_s))

    @property
    def timeout_s(self) -> float:
        """Time allowed to each worker process, however far into the run."""
        return max(60.0, 5.0 * self.rep_s)

    def argv(self, seed: int, out_path: str) -> list[str]:
        if self.preset is None:
            return ["validate", "--level", "fast", "--out", out_path]
        threads = nproc() if self.threaded else 1
        return ["simulate", "--preset", self.preset, "--trials", str(self.trials),
                "--threads", str(threads), "--seed", str(seed), "--out", out_path]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig5-baseline", "baseline kernel only (M=1, no RAB weights), K in {0,2,3,10}, "
                 "N 8-512, 1 thread", 4.5, preset="fig5", trials=6000),
        Workload("fig6-rab", "about 90% of draws are RAB M in {2,3,4} at K=10: the weight and "
                 "combination path, cost growing with M, 1 thread", 4.5, preset="fig6",
                 trials=1500),
        Workload("validate-fast", "the only workload running stats, analytic, espar and the "
                 "private samplers in validation; about 85% of it is still run_experiment", 31.0),
        Workload("fig7-threads", "the only workload on the ThreadPoolExecutor chunk path "
                 "(--threads nproc): baseline and RAB M=2, K in {0,10,100}", 9.0,
                 preset="fig7", trials=4096, threaded=True),
    )
}

# (mode, N, M, K) of every point each preset must produce.
GRIDS = {
    "fig5": [("baseline", n, 1, k) for k in (0.0, 2.0, 3.0, 10.0) for n in N_GRID],
    "fig6": [("rab", n, m, 10.0) for m in (2, 3, 4) for n in (1, *N_GRID)]
    + [("baseline", n, 1, 10.0) for n in (1, *N_GRID)],
    "fig7": [(mode, n, m, k) for mode, m in (("baseline", 1), ("rab", 2))
             for k in (0.0, 10.0, 100.0) for n in N_GRID],
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------- references

def sweep_references(preset: str) -> dict:
    """(mode, N, M, K) -> reference mean capacity (nats) for every grid point."""
    table = reference.load_table()   # RAB M >= 3 at K = 10, the only such points
    curves = {}
    refs = {}
    for mode, n, m, k in GRIDS[preset]:
        if mode == "rab" and m >= 3:
            refs[(mode, n, m, k)] = table[(m, n)]
            continue
        if (mode, k) not in curves:
            survival = (reference.baseline_survival if mode == "baseline"
                        else reference.rab_m2_survival)
            curves[(mode, k)] = reference.capacities(survival(k), reference.TABLE_N)
        refs[(mode, n, m, k)] = curves[(mode, k)][n]
    return refs


# -------------------------------------------------------------------- gates

@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list
    rse: dict = field(default_factory=dict)  # point -> stderr/mean
    checks_failed: int = 0      # validate: checks reported FAIL


def parse_sweep_csv(text: str) -> tuple[dict, list]:
    """Rows keyed by (mode, N, M, K), and any comment lines."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = {}
    for row in csv.DictReader(line for line in lines if not line.startswith("#")):
        key = (row["mode"], int(row["N"]), int(row["M"]), float(row["K"]))
        rows[key] = row
    return rows, comments


def gate_sweep(text: str, refs: dict, trials: int, seed: int) -> Verdict:
    """Check one sweep CSV: every expected point present, finite, below its
    Jensen bound and within ``Z_GATE`` standard errors of its reference."""
    problems = []
    try:
        rows, comments = parse_sweep_csv(text)
    except (KeyError, ValueError) as exc:
        return Verdict(len(refs), len(refs), [f"unreadable CSV: {exc}"])
    problems += [f"comment row: {c}" for c in comments]
    failed = 0
    rse = {}
    for key, ref in refs.items():
        row = rows.get(key)
        bad = []
        if row is None:
            bad.append("missing")
        else:
            mean, se, jb = (float(row[c]) for c in ("mean_capacity", "stderr", "jensen_bound"))
            if not all(math.isfinite(v) for v in (mean, se, jb)) or se <= 0.0 or mean <= 0.0:
                bad.append(f"non-finite or non-positive: mean={mean} stderr={se} jensen={jb}")
            else:
                rse[key] = se / mean
                if mean > jb:
                    bad.append(f"mean {mean} above Jensen bound {jb}")
                if abs(mean - ref) > Z_GATE * se:
                    bad.append(f"mean {mean} is {abs(mean - ref) / se:.1f} SE from reference {ref}")
            if int(row["trials"]) != trials or int(row["seed"]) != seed:
                bad.append(f"trials/seed {row['trials']}/{row['seed']}, want {trials}/{seed}")
        if bad:
            failed += 1
            problems.append(f"{key}: " + "; ".join(bad))
    extra = set(rows) - set(refs)
    problems += [f"{key}: unexpected point" for key in sorted(extra)]
    if (comments or extra) and not failed:
        failed = 1
    return Verdict(len(refs), failed, problems, rse=rse)


def parse_verdicts(stdout: str) -> dict:
    """check_id -> passed, from the ``[PASS] id: ...`` lines of validate."""
    verdicts = {}
    for line in stdout.splitlines():
        for mark, passed in (("[PASS] ", True), ("[FAIL] ", False)):
            if line.startswith(mark):
                verdicts[line[len(mark):].split(":", 1)[0]] = passed
    return verdicts


def gate_validate(stdout: str, rc: int) -> Verdict:
    """Every check must report, and each verdict must equal the parent
    commit's: all pass except the known red."""
    verdicts = parse_verdicts(stdout)
    problems = []
    failed = 0
    for cid in spans.CHECK_IDS:
        want = cid not in EXPECTED_FAILING_CHECKS
        got = verdicts.get(cid)
        if got is not want:
            failed += 1
            problems.append(f"{cid}: verdict {got}, expected {want}")
    extra = set(verdicts) - set(spans.CHECK_IDS)
    problems += [f"{cid}: unexpected check" for cid in sorted(extra)]
    want_rc = 1 if EXPECTED_FAILING_CHECKS else 0
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    if (extra or rc != want_rc) and not failed:
        failed = 1
    checks_failed = sum(1 for ok in verdicts.values() if not ok)
    return Verdict(len(spans.CHECK_IDS), failed, problems, checks_failed=checks_failed)


# ------------------------------------------------------------------ running

def child_env() -> dict:
    # COGMAC_* variables would override the pinned arguments' defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("COGMAC_")}


def spawn(spec: dict, timeout: float) -> dict:
    """Run the worker once; its last output line is a JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, env=child_env(), check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def machine_facts() -> dict:
    facts = {"nproc": nproc(), "python": platform.python_version()}
    try:
        import numpy

        facts["numpy"] = numpy.__version__
    except ImportError:
        facts["numpy"] = "missing"
    quota = "unknown"
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path, encoding="ascii") as fh:
                quota = f"{path}: {fh.read().strip()}"
            break
        except OSError:
            continue
    facts["cgroup_cpu_quota"] = quota
    facts["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts["git_commit"] = "unknown"
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env, check=False)
        top, _, commit = proc.stdout.strip().partition("\n")
        if proc.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            facts["git_commit"] = commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    return facts


def worst_rse_squared(reps) -> float:
    """Largest per-point (stderr/mean)^2, each point's value averaged over
    the repetitions (which use different seeds) to steady the estimate."""
    pooled = {}
    for rep in reps:
        for point, rse in rep["verdict"].rse.items():
            pooled.setdefault(point, []).append(rse * rse)
    return max((statistics.fmean(v) for v in pooled.values()), default=0.0)


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, record with raw repetitions)."""
    run_id = f"{workload.name}-s{seed}-p{os.getpid()}-{time.time_ns()}"
    out_dir = os.path.join(RUNS_DIR, run_id)
    os.makedirs(out_dir)
    out_path = os.path.join(out_dir, "out.csv")

    def rep_seed(i: int) -> int:
        # Repetition i simulates with seed + i, so that time_to_rse_s pools
        # the standard errors of several independent draws.
        return (seed + i) % 2**64

    argv = workload.argv(seed, out_path)
    refs = sweep_references(workload.preset) if workload.preset else None
    setups = []
    for i in range(SETUP_PROBES + 1):
        probe = spawn({"argv": argv, "setup_only": True}, workload.timeout_s)
        if "error" in probe:
            raise RuntimeError(probe["error"])
        if i:
            setups.append(probe["setup_s"])

    attempted = failed = 0
    problems = []

    def repetition(i: int, extra: dict) -> dict | None:
        nonlocal attempted, failed
        rep = spawn({"argv": workload.argv(rep_seed(i), out_path),
                     "record_estimates": workload.preset is None, **extra}, workload.timeout_s)
        if "error" in rep:
            n = len(refs) if refs else len(spans.CHECK_IDS)
            attempted += n
            failed += n
            problems.append(rep["error"])
            return None
        if refs is not None:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            verdict = gate_sweep(text, refs, workload.trials, rep_seed(i))
            if rep["rc"] != 0:
                verdict.problems.append(f"exit code {rep['rc']}")
                verdict.failed = max(verdict.failed, 1)
        else:
            verdict = gate_validate(rep["stdout"], rep["rc"])
            ests = rep["estimates"]
            verdict.rse = {n: se / mean for n, (mean, se) in enumerate(ests)}
            if not ests:
                verdict.problems.append("no run_experiment results recorded")
                verdict.failed = max(verdict.failed, 1)
        attempted += verdict.attempted
        failed += verdict.failed
        problems.extend(verdict.problems)
        rep["verdict"] = verdict
        rep["csv_bytes"] = os.path.getsize(out_path)
        return rep

    reps = []
    for i in range(workload.repetitions(seconds)):
        rep = repetition(i, {})
        if rep is None:
            break
        reps.append(rep)

    metrics = {}
    if reps:
        wall = statistics.median(r["wall_s"] for r in reps)
        setups += [r["setup_s"] for r in reps]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
            "time_to_rse_s": (wall * worst_rse_squared(reps) / 1e-6, "s"),
        }
        if trace:
            spans_path = os.path.join(out_dir, "spans.jsonl")
            traced = repetition(0, {"trace": spans_path})
            if traced is not None:
                with open(spans_path, encoding="utf-8") as fh:
                    recorded = [json.loads(line) for line in fh]
                layer = spans.layer_metrics(
                    recorded,
                    csv_bytes=traced["csv_bytes"],
                    checks_failed=traced["verdict"].checks_failed,
                    overhead_s=traced["wall_s"] - wall,
                )
                metrics = {k: (v, spans.METRIC_UNITS[k]) for k, v in layer.items()}
            else:
                metrics = {}
    correct = failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": argv, "reps": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                               for r in reps],
        "setup_probes_s": setups[:SETUP_PROBES], "problems": problems[:50],
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or args.seconds < 1:
        parser.error("--seed must be in [0, 2^64) and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cogmac", "cli.py")):
        print(f"error: no cogmac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    facts = machine_facts()
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ImportError, OSError) as exc:
        print(f"error: benchmark could not run: {exc}", file=sys.stderr)
        return 2
    record.update(facts=facts, result=result)
    with open(os.path.join(RUNS_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in record["problems"]:
        print(f"GATE FAIL {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"facts": facts, "reps": len(record["reps"])}))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
