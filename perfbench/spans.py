"""Spans around calls into cogmac's public functions, recorded from outside.

:func:`install` replaces every public function of each layer module with a
timing wrapper in every ``cogmac`` namespace that binds it, because ``cli``
and ``validation`` import functions by name.  Spans (name, start, end,
parent, run id) stay in memory until :meth:`Tracer.write`.
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "simulator", "validation", "stats", "analytic", "espar", "channels", "rab")

CHECK_IDS = (
    "quantile_identity",
    "ratio_distribution_fit",
    "frechet_normalization",
    "effective_users_moderate",
    "large_k_growth",
    "rab_effective_users",
    "rab_restores_log_growth",
    "rab_distribution_facts",
    "rab_m2_closed_form",
    "espar_identities",
    "special_functions",
    "determinism",
)

# Inclusive time of these spans, summed over calls, is reported as "<name>.s".
TIMED = (
    "simulator.run_experiment",
    "simulator.write_sweep_csv",
    "stats.ks_test",
    "stats.EmpiricalDist.from_samples",
    "stats.max_normalization_check",
    "espar.build_basis",
    "analytic.rab_m2_cdf",
    "analytic.ratio_cdf",
    "analytic.normalizer_a_n",
    "analytic.lambert_w0",
    "analytic.bessel_i0",
)
COUNTED = ("simulator.run_experiment", "stats.ks_test", "analytic.lambert_w0")
# Draws per chunk of run_experiment, as simulator._CHUNK_ELEMENTS sets it.
CHUNK_ELEMENTS = 2**21

METRIC_UNITS = {
    **{f"{name}.s": "s" for name in TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    "simulator.draws": "count",
    "simulator.draws_per_s": "1/s",
    "simulator.run_experiment.cpu_per_wall": "ratio",
    "simulator.rss_per_worker_mb": "MB",
    "simulator.sweep.self_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    **{f"validation.{cid}.s": "s" for cid in CHECK_IDS},
    "validation.self_s": "s",
    "validation.checks_failed": "count",
    "channels.calls": "count",
    "rab.calls": "count",
    "trace.overhead_s": "s",
}


def _rss_now_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _workers(cfg, threads: int) -> int:
    """Threads a run_experiment call works on: it splits the trials into
    chunks of at most CHUNK_ELEMENTS user-pattern draws, runs a single chunk
    on the calling thread and spreads several over at most ``threads``."""
    chunk = max(1, min(cfg.trials, CHUNK_ELEMENTS // max(1, cfg.n_users * cfg.m_patterns)))
    return min(threads, -(-cfg.trials // chunk))


def _experiment_args(args, kwargs) -> dict:
    cfg = kwargs["config"] if "config" in kwargs else args[0]
    threads = kwargs["threads"] if "threads" in kwargs else (args[1] if len(args) > 1 else 1)
    return {
        "point": [cfg.mode, cfg.n_users, cfg.m_patterns, cfg.k_factor, cfg.trials],
        "draws": cfg.trials * cfg.n_users * cfg.m_patterns,
        "threads": threads,
        "workers": _workers(cfg, threads),
        "rss_before_mb": _rss_now_mb(),
        "peak_before_mb": _peak_rss_mb(),
        "cpu_start": time.process_time(),
    }


def _experiment_done(span: dict) -> None:
    span["cpu_s"] = time.process_time() - span.pop("cpu_start")
    span["peak_after_mb"] = _peak_rss_mb()


def _check_args(args, kwargs) -> dict:
    return {"check": kwargs["check_id"] if "check_id" in kwargs else args[0]}


# Extra data recorded at entry and exit of particular spans.
_ON_ENTER = {"simulator.run_experiment": _experiment_args, "validation.run_check": _check_args}
_ON_EXIT = {"simulator.run_experiment": _experiment_done}


class Tracer:
    """Collects spans in memory; the parent span is tracked per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        on_enter, on_exit = _ON_ENTER.get(name), _ON_EXIT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else None, "run": self.run_id}
            if on_enter is not None:
                span.update(on_enter(args, kwargs))
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(span)
                self.spans.append(span)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions wherever cogmac binds them."""
    layers = {name: importlib.import_module(f"cogmac.{name}") for name in LAYERS}
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "cogmac" or name.startswith("cogmac.")]
    for layer, mod in layers.items():
        for fname in mod.__all__:
            obj = getattr(mod, fname)
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            traced = tracer.wrap(f"{layer}.{fname}", obj)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, attr, traced)
    dist = layers["stats"].EmpiricalDist
    dist.from_samples = classmethod(
        tracer.wrap("stats.EmpiricalDist.from_samples", dist.from_samples.__func__)
    )


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]]) for s in spans}


def layer_metrics(spans, *, csv_bytes: int, checks_failed: int, overhead_s: float) -> dict:
    """Per-layer metrics (name -> value) of one traced run; units in METRIC_UNITS."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    own = self_times(spans)

    def total(name):
        return float(sum(s["end"] - s["start"] for s in by_name[name]))

    def self_total(name):
        return float(sum(own[s["id"]] for s in by_name[name]))

    out = {f"{name}.s": total(name) for name in TIMED}
    out.update({f"{name}.calls": len(by_name[name]) for name in COUNTED})
    runs = by_name["simulator.run_experiment"]
    run_s = out["simulator.run_experiment.s"]
    draws = sum(s["draws"] for s in runs)
    out["simulator.draws"] = draws
    out["simulator.draws_per_s"] = draws / run_s if run_s > 0 else 0.0
    out["simulator.run_experiment.cpu_per_wall"] = (
        sum(s["cpu_s"] for s in runs) / run_s if run_s > 0 else 0.0
    )
    # Only a call that raised the high-water mark shows its own peak.
    out["simulator.rss_per_worker_mb"] = max(
        ((s["peak_after_mb"] - s["rss_before_mb"]) / s["workers"]
         for s in runs if s["peak_after_mb"] > s["peak_before_mb"]),
        default=0.0,
    )
    out["simulator.sweep.self_s"] = self_total("simulator.sweep")
    out["cli.self_s"] = self_total("cli.main")
    out["cli.csv_bytes"] = csv_bytes
    checks = defaultdict(float)
    for s in by_name["validation.run_check"]:
        checks[s["check"]] += s["end"] - s["start"]
    out.update({f"validation.{cid}.s": checks[cid] for cid in CHECK_IDS})
    out["validation.self_s"] = self_total("validation.run_check")
    out["validation.checks_failed"] = checks_failed
    for layer in ("channels", "rab"):
        out[f"{layer}.calls"] = sum(len(v) for k, v in by_name.items() if k.startswith(layer + "."))
    out["trace.overhead_s"] = overhead_s
    return out
