"""Export contract: the package exports the simulator names, every name a
layer module lists in ``__all__`` exists, every name the benchmark binds
resolves, every module-level name of ``src/cogmac`` is used there, and the
README's library example runs.

The benchmark's tracer imports these eight modules and wraps what their
``__all__`` names, so a stale export breaks traced runs."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cogmac
from cogmac import simulator

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cogmac.__file__).resolve().parent

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


def test_every_module_level_name_is_used_in_the_package():
    # A function, class or constant that no module of src/cogmac loads or
    # imports is API that only tests reach.  Dunder names and the names the
    # benchmark binds are exempt.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    exempt = {tuple(path.split(".")[:2]) for path in BENCHMARK_NAMES}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in names if name not in used
                       and not name.startswith("__") and (module, name) not in exempt]
    assert not unused, f"module-level names that src/cogmac never uses: {unused}"
