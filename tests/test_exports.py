"""Export contract: the package exports the simulator names, every name a
layer module lists in ``__all__`` exists, and the README's library example
runs.

The benchmark's tracer imports these eight modules and wraps what their
``__all__`` names, so a stale export breaks traced runs."""

import importlib
from pathlib import Path

import pytest

import cogmac
from cogmac import simulator

README = Path(__file__).resolve().parents[1] / "README.md"

LAYERS = ("cli", "simulator", "validation", "stats", "analytic", "espar", "channels", "rab")


def test_package_exports_the_simulator_names():
    assert cogmac.__all__ == ["CapacityEstimate", "NetworkConfig", "run_experiment", "sweep"]
    assert all(getattr(cogmac, name) is getattr(simulator, name) for name in cogmac.__all__)


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"cogmac.{layer}")
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"cogmac.{layer}.__all__ names missing attributes: {missing}"


def test_readme_library_use_runs():
    # The fenced python block under "## Library use", run as it stands.
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("\n## ", 1)[0].split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme"})
