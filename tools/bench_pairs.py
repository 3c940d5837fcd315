"""Benchmark a change against its parent and write ``BENCH_<label>.json``.

Usage, from the repository root:

    python tools/bench_pairs.py --parent DIR --change DIR --label NAME

``--parent`` and ``--change`` are two checkouts, each with its own
``perfbench/run.py`` and ``BENCHMARK.json``.  Give them paths of equal
length: the workers' start-up time moves with the path length.  The script
runs ``PAIRS`` (20) pairs.  A pair runs every workload of ``BENCHMARK.json``
on both sides, each side through its own ``perfbench/run.py`` at the
benchmark's ``run_seconds``, and the pairs alternate which side runs
first.  ``validate-fast`` makes one repetition per call, so each side runs
it three times per pair, on three seeds.  Both sides run with
``PYTHONDONTWRITEBYTECODE=1``, and the script refuses to start when one
side holds compiled bytecode and the other does not.

Per side and workload the file holds, over every call, the median, the
interquartile range and the count of each end-to-end metric, the calls'
repetitions, and the gate's ``correct``, ``attempted`` and ``failed``.  Per
workload and metric it holds the pair wins: a pair compares the median of
each side's calls in that pair, the better side by the benchmark's own
direction winning and ties counting for neither.
It also records the machine (``nproc``, Python, numpy and numpy's SIMD
dispatch), each side's git revision and path length, every call's values,
and a speed probe taken before and after the pairs: the time of 2^22
``standard_normal`` draws from ``SFC64(0)`` on one thread and on ``nproc``
threads at once.  Each side's harness, its ``BENCHMARK.json`` and
``perfbench/*.py``, is recorded by SHA-256, and ``harness_identical`` says
whether the two sides ran the same one; the script warns on standard error
when they did not.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PROBE_DRAWS = 1 << 22
PROBE_REPEATS = 5
FIRST_SEED = 1
PAIRS = 20
# validate-fast calls per side and pair: each call makes one repetition.
VALIDATE_CALLS = 3


def simd_dispatch() -> list:
    """numpy's SIMD dispatch targets, as the golden manifest records them."""
    spec = importlib.util.spec_from_file_location("regen", ROOT / "tests" / "golden" / "regen.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen.simd_dispatch()


def git_revision(checkout: Path) -> str:
    """HEAD of ``checkout`` when it is the top of a git work tree, else "unknown"."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(checkout.parent)}
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True, env=env, check=False)
    top, _, commit = proc.stdout.strip().partition("\n")
    if proc.returncode == 0 and Path(top).resolve() == checkout.resolve():
        return commit
    return "unknown"


def harness_sha256(checkout: Path) -> str:
    """SHA-256 of ``checkout``'s harness: ``BENCHMARK.json`` and
    ``perfbench/*.py``, each file as its relative path, its size and its bytes,
    in path order."""
    digest = hashlib.sha256()
    for path in [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").glob("*.py"))]:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(checkout).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def bytecode_dirs(checkout: Path) -> int:
    return sum(1 for _ in checkout.glob("**/__pycache__"))


def speed_probe(threads: int) -> list:
    """Milliseconds for ``threads`` threads to draw 2^22 normals each from
    SFC64(0), one figure per repeat."""
    def draw(_):
        np.random.Generator(np.random.SFC64(0)).standard_normal(PROBE_DRAWS)

    times = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            list(pool.map(draw, range(threads)))
            times.append(1e3 * (time.perf_counter() - start))
    return times


def probe(nproc: int) -> dict:
    return {"threads_1_ms": speed_probe(1), f"threads_{nproc}_ms": speed_probe(nproc)}


def run_call(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` call on ``checkout``: its result line and
    repetition count."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env=env, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{checkout} {workload}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    reps = next(json.loads(line)["reps"] for line in lines if line.startswith('{"facts"'))
    return {"seed": seed, "rc": proc.returncode, "reps": reps, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(calls: list, metrics: list) -> dict:
    out = {"calls": len(calls), "reps": sum(c["reps"] for c in calls),
           "correct": all(c["correct"] for c in calls),
           "attempted": sum(c["attempted"] for c in calls),
           "failed": sum(c["failed"] for c in calls)}
    for name in metrics:
        values = [c["metrics"][name] for c in calls if name in c["metrics"]]
        if values:
            q1, q3 = quartiles(values)
            out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "iqr": q3 - q1, "n": len(values)}
    return out


def pair_wins(pairs: list, workload: str, better: dict) -> dict:
    """Per metric: pairs the change won, pairs the parent won, and ties;
    ``better`` maps each metric to "lower" or "higher"."""
    wins = {}
    for name, direction in better.items():
        count = {"change": 0, "parent": 0, "tie": 0}
        for pair in pairs:
            side = {s: statistics.median(c["metrics"][name] for c in pair[s][workload])
                    for s in SIDES}
            best = min if direction == "lower" else max
            count["tie" if side["change"] == side["parent"] else best(SIDES, key=side.get)] += 1
        wins[name] = count
    return wins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    stale = {side: bytecode_dirs(path) for side, path in checkouts.items()}
    if (stale["parent"] == 0) != (stale["change"] == 0):
        parser.error(f"one side holds compiled bytecode and the other not: {stale}")
    harness = {side: harness_sha256(path) for side, path in checkouts.items()}
    if harness["parent"] != harness["change"]:
        print(f"warning: the two sides run different harnesses (BENCHMARK.json and "
              f"perfbench/*.py): {harness}", file=sys.stderr)
    nproc = len(os.sched_getaffinity(0))
    record = {
        "label": args.label,
        "machine": {"nproc": nproc, "python": platform.python_version(),
                    "numpy": np.__version__, "simd_dispatch": simd_dispatch()},
        "sides": {side: {"revision": git_revision(path), "path_length": len(str(path)),
                         "bytecode_dirs_at_start": stale[side],
                         "harness_sha256": harness[side]}
                  for side, path in checkouts.items()},
        "harness_identical": harness["parent"] == harness["change"],
        "run_seconds": seconds, "pairs_run": PAIRS, "validate_calls": VALIDATE_CALLS,
        "probe_before": probe(nproc),
    }
    pairs = []
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: {} for side in SIDES}
        for workload in workloads:
            calls = VALIDATE_CALLS if workload == "validate-fast" else 1
            for side in order:
                pair[side][workload] = [
                    run_call(checkouts[side], workload, FIRST_SEED + i * calls + j, seconds)
                    for j in range(calls)]
        pairs.append({"first": order[0], **pair})
        print(f"pair {i + 1}/{PAIRS} done ({order[0]} first)", file=sys.stderr)
    record["probe_after"] = probe(nproc)
    record["workloads"] = {
        workload: {**{side: summary([c for p in pairs for c in p[side][workload]], list(better))
                      for side in SIDES},
                   "pair_wins": pair_wins(pairs, workload, better)}
        for workload in workloads}
    record["pairs"] = pairs
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
