"""tools/bench_pairs.py: the harness hash that tells whether both sides of
a benchmark ran the same harness."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def checkout(root, run_py="print('run')\n"):
    (root / "perfbench" / "_runs").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"workloads": []}\n')
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "perfbench" / "README.md").write_text("notes\n")
    return root


def test_harness_hash_reads_benchmark_json_and_perfbench_sources(tmp_path):
    parent = checkout(tmp_path / "parent")
    change = checkout(tmp_path / "change")
    assert bench_pairs.harness_sha256(parent) == bench_pairs.harness_sha256(change)
    # Run outputs and other files are not the harness.
    (change / "perfbench" / "_runs" / "out.py").write_text("x = 1\n")
    (change / "perfbench" / "README.md").write_text("other notes\n")
    assert bench_pairs.harness_sha256(parent) == bench_pairs.harness_sha256(change)
    (change / "perfbench" / "run.py").write_text("print('run!')\n")
    assert bench_pairs.harness_sha256(parent) != bench_pairs.harness_sha256(change)
    (change / "perfbench" / "run.py").write_text("print('run')\n")
    (change / "BENCHMARK.json").write_text('{"workloads": [1]}\n')
    assert bench_pairs.harness_sha256(parent) != bench_pairs.harness_sha256(change)


def test_harness_hash_frames_each_file(tmp_path):
    # Bytes moved from one file's end to the next file's start change the hash.
    one = checkout(tmp_path / "one", run_py="ab")
    (one / "perfbench" / "spans.py").write_text("c")
    two = checkout(tmp_path / "two", run_py="a")
    (two / "perfbench" / "spans.py").write_text("bc")
    assert bench_pairs.harness_sha256(one) != bench_pairs.harness_sha256(two)
