"""Export contract: every name a layer module lists in ``__all__`` exists.

The benchmark's tracer imports these eight modules and wraps what their
``__all__`` names, so a stale export breaks traced runs."""

import importlib

import pytest

LAYERS = ("cli", "simulator", "validation", "stats", "analytic", "espar", "channels", "rab")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"cogmac.{layer}")
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"cogmac.{layer}.__all__ names missing attributes: {missing}"

