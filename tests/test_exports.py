"""Export contract: the package exports the simulator names, every name a
layer module lists in ``__all__`` exists, every name the benchmark binds
resolves, and the README's library example runs.

The benchmark's tracer imports these eight modules and wraps what their
``__all__`` names, so a stale export breaks traced runs."""

import importlib
import inspect
from pathlib import Path

import pytest

import cogmac
from cogmac import simulator

README = Path(__file__).resolve().parents[1] / "README.md"

LAYERS = ("cli", "simulator", "validation", "stats", "analytic", "espar", "channels", "rab")
# Every name the benchmark under perfbench/ binds (reference.py, worker.py,
# spans.py and its tests), so that a rename breaks tier-1 too; test_all_names_resolve
# imports the modules its tracer wraps, the LAYERS above.
BENCHMARK_NAMES = (
    "analytic.RatioDistParams", "analytic.ratio_cdf", "analytic.rab_m2_cdf",
    "cli.build_parser", "cli.main",
    "validation.run_experiment", "validation.run_check",
    "simulator._chunk_size", "simulator.SWEEP_CSV_COLUMNS",
    "simulator.sweep", "simulator.run_experiment",
    "stats.EmpiricalDist.from_samples",
)


def test_package_exports_the_simulator_names():
    assert cogmac.__all__ == ["CapacityEstimate", "NetworkConfig", "run_experiment", "sweep"]
    assert all(getattr(cogmac, name) is getattr(simulator, name) for name in cogmac.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"cogmac.{layer}")
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"cogmac.{layer}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("path", BENCHMARK_NAMES)
def test_benchmark_names_resolve(path):
    layer, *attrs = path.split(".")
    obj = importlib.import_module(f"cogmac.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    if path == "analytic.RatioDistParams":  # the benchmark passes (k, rho) positionally
        assert obj(10.0, 1.0) == obj(k_factor=10.0, power_ratio=1.0, m_patterns=1)
    if path == "simulator.run_experiment":  # the tracer reads these two by keyword or place
        assert list(inspect.signature(obj).parameters)[:2] == ["config", "threads"]


def test_readme_library_use_runs():
    # The fenced python block under "## Library use", run as it stands.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("\n## ", 1)[0].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme"})
