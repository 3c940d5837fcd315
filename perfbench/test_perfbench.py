"""Self-tests of the benchmark: contract, gate, references and tracing.

Run from the repository root: python3 -m pytest -q perfbench
The tiny runs start worker processes; the validate-fast one takes about a
minute because ``validate --level fast`` cannot be made smaller.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import reference
import run
import spans

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from cogmac.simulator import SWEEP_CSV_COLUMNS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()
    }
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units == spans.METRIC_UNITS


def _grid_csv(preset, trials, seed, shift=None):
    refs = run.sweep_references(preset)
    lines = [SWEEP_CSV_COLUMNS]
    for (mode, n, m, k), ref in refs.items():
        mean = ref + (shift[1] * 0.01 if shift and shift[0] == (mode, n, m, k) else 0.0)
        lines.append(f"{mode},{n},{m},{k!r},1,1,1,{mean!r},0.01,{trials},{seed},{ref + 5!r}")
    return "\n".join(lines) + "\n", refs


def test_gate_catches_shifted_mean():
    text, refs = _grid_csv("fig6", 1500, 7)
    assert run.gate_sweep(text, refs, 1500, 7).failed == 0
    point = ("rab", 64, 3, 10.0)
    shifted, _ = _grid_csv("fig6", 1500, 7, shift=(point, 10.0))
    verdict = run.gate_sweep(shifted, refs, 1500, 7)
    assert verdict.failed == 1 and "SE from reference" in verdict.problems[0]
    within, _ = _grid_csv("fig6", 1500, 7, shift=(point, 4.0))
    assert run.gate_sweep(within, refs, 1500, 7).failed == 0


def test_gate_catches_bad_rows():
    text, refs = _grid_csv("fig5", 6000, 3)
    rows = text.splitlines()

    def edit(row, column, value):
        fields = rows[row].split(",")
        fields[column] = value
        return "\n".join(rows[:row] + [",".join(fields)] + rows[row + 1:]) + "\n"

    cases = {
        "nan mean": edit(3, 7, "nan"),
        "inf stderr": edit(4, 8, "inf"),
        "above Jensen bound": edit(2, 11, "0.5"),
        "wrong trials": edit(5, 9, "5999"),
        "missing": "\n".join(rows[:2] + rows[3:]) + "\n",
        "partial": text + "# partial: 1 point(s) failed\n",
    }
    for name, bad in cases.items():
        assert run.gate_sweep(bad, refs, 6000, 3).failed >= 1, name
    assert run.gate_sweep(text, refs, 6000, 4).failed == len(refs)


def _validate_stdout(flip=None):
    lines = []
    for cid in spans.CHECK_IDS:
        ok = cid not in run.EXPECTED_FAILING_CHECKS
        if cid == flip:
            ok = not ok
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {cid}: detail")
    return "\n".join(lines) + "\n"


def test_gate_catches_flipped_verdict():
    ok = run.gate_validate(_validate_stdout(), rc=1)
    assert (ok.failed, ok.checks_failed) == (0, 1)
    for flip in ("large_k_growth", "rab_restores_log_growth"):
        assert run.gate_validate(_validate_stdout(flip), rc=1).failed == 1
    missing = "\n".join(_validate_stdout().splitlines()[1:])
    assert run.gate_validate(missing, rc=1).failed == 1


def test_references_agree_with_closed_forms_and_table():
    n_list = reference.TABLE_N
    for k in (0.0, 10.0, 100.0):
        closed = reference.capacities(reference.baseline_survival(k), n_list)
        quad = reference.capacities(reference.rab_survival(k, 1), n_list)
        assert max(abs(closed[n] - quad[n]) for n in n_list) < 1e-9
    closed = reference.capacities(reference.rab_m2_survival(10.0), n_list)
    quad = reference.capacities(reference.rab_survival(10.0, 2), n_list)
    assert max(abs(closed[n] - quad[n]) for n in n_list) < 1e-9
    # The baseline K=10, N=512 value quoted in the benchmark's README.
    assert abs(reference.capacities(reference.baseline_survival(10.0), [512])[512]
               - 2.8483) < 1e-4
    table = reference.load_table()
    for m, grid in ((3, 32), (4, 16)):
        quad = reference.capacities(reference.rab_survival(10.0, m, grid=grid), n_list)
        assert max(abs(table[(m, n)] - quad[n]) for n in n_list) < 1e-7


def test_self_times_subtract_covered_child_time():
    recorded = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 5.0},
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx({1: 6.0, 2: 2.5, 3: 2.0, 4: 0.5})


def test_late_repetitions_keep_the_full_timeout(monkeypatch):
    """A 300 s run of 9 s repetitions: the last worker gets the same time
    as the first, so a long --seconds cannot cut a correct program short."""
    workload = run.WORKLOADS["fig7-threads"]
    timeouts = []

    def fake_spawn(spec, timeout):
        timeouts.append(timeout)
        argv = spec["argv"]
        seed, out = int(argv[argv.index("--seed") + 1]), argv[argv.index("--out") + 1]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_grid_csv(workload.preset, workload.trials, seed)[0])
        return {"setup_s": 0.2, "wall_s": workload.rep_s, "cpu_s": workload.rep_s,
                "peak_rss_mb": 500.0, "rc": 0, "stdout": "", "estimates": []}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    result, record = run.run(workload, seed=9, seconds=300, trace=False)
    assert result["correct"], record["problems"]
    assert len(record["reps"]) == workload.repetitions(300) > 30
    assert set(timeouts) == {workload.timeout_s}
    assert workload.timeout_s >= 5 * workload.rep_s


def test_rss_per_worker_divides_by_threads_at_work():
    from cogmac import simulator

    def workers(mode, n, m, threads):
        cfg = simulator.NetworkConfig(mode=mode, n_users=n, m_patterns=m, trials=4096)
        chunks = -(-cfg.trials // simulator._chunk_size(cfg))
        assert spans._workers(cfg, threads) == min(threads, chunks)
        return spans._workers(cfg, threads)

    # fig7 at 4096 trials: only RAB N=512 spans two chunks.
    assert workers("rab", 512, 2, 8) == 2
    assert workers("rab", 256, 2, 8) == 1
    assert workers("baseline", 512, 1, 8) == 1
    assert workers("rab", 512, 2, 1) == 1


@pytest.mark.parametrize("name", ["fig5-baseline", "fig6-rab", "fig7-threads"])
def test_tiny_sweep_passes_gate_and_reports_every_metric(name):
    workload = replace(run.WORKLOADS[name], trials=200)
    result, record = run.run(workload, seed=5, seconds=1, trace=True)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    points = len(run.GRIDS[workload.preset])
    # One timed and one traced repetition, both gated.
    assert result["attempted"] == 2 * points
    assert set(result["metrics"]) == PER_LAYER
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["simulator.run_experiment.calls"] == points
    assert values["rab.calls"] == 0 and values["validation.checks_failed"] == 0

    result, record = run.run(workload, seed=5, seconds=1, trace=False)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_validate_fast_passes_gate_and_reports_every_metric():
    result, record = run.run(run.WORKLOADS["validate-fast"], seed=1, seconds=1, trace=True)
    assert result["correct"], record["problems"]
    assert result["attempted"] == 2 * len(spans.CHECK_IDS)
    assert set(result["metrics"]) == PER_LAYER
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["validation.checks_failed"] == 1
    assert all(values[f"validation.{cid}.s"] > 0 for cid in spans.CHECK_IDS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "fig5-baseline", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
