"""Command-line front end.

Subcommands:

* ``simulate`` - run a capacity sweep (a named figure preset, or the
  config file's single point) and write the CSV.
* ``validate`` - run the cross-validation suite, print one line per check,
  optionally dump KS reports as CSV; exit 0 iff everything passed, 1 if a
  check failed, 3 if one raised.
* ``espar``    - export a radiation pattern CSV plus an orthonormality report.
* ``analytic`` - tabulate a closed form over a grid.

A setting comes from its flag, else from the config file (``network``,
``espar``), else from its built-in default.  Every bad input, the output
path included, is a :class:`ConfigError`: it is found before any work
starts and exits 2.

Each subcommand imports what it uses when it runs: ``simulate`` loads only
``analytic``, ``channels`` and ``simulator``; ``validation`` and ``csv``
load in ``validate``, and ``espar`` and ``json`` wherever a config file is
read or a pattern built.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields, replace
from typing import TYPE_CHECKING, get_args, get_type_hints

import numpy as np

from . import analytic
from .simulator import (
    LOG2,
    NetworkConfig,
    format_number,
    sweep,
    write_sweep_csv,
)

if TYPE_CHECKING:
    from .espar import EsparConfig

__all__ = ["parse_config", "main"]

N_GRID = (8, 16, 32, 64, 128, 256, 512)
# Preset -> (N grid, K grid, M grid, modes, extra columns); None means the
# custom single point of the config.  A preset's points run mode by mode,
# then K, then M (baseline points at M = 1 only), then N.
_PRESETS = {
    "fig5": (N_GRID, (0.0, 2.0, 3.0, 10.0), (1,), ("baseline",), ()),
    # Pattern-count comparison at strong LoS plus the single-antenna
    # reference; N=1 anchors the multiuser-gain normalization.
    "fig6": ((1, *N_GRID), (10.0,), (2, 3, 4), ("rab", "baseline"), ("multiuser_gain",)),
    "fig7": (N_GRID, (0.0, 10.0, 100.0), (2,), ("baseline", "rab"), ()),
    "fig8": (N_GRID, (0.0, 100.0), (2,), ("baseline", "rab"), ("norm_logN", "norm_loglogN")),
    "custom": None,
}
PRESET_NAMES = tuple(_PRESETS)


class ConfigError(ValueError):
    """Bad input (config file, flag or output path); the message carries
    the offending key path or flag."""


def _typed(value, types: tuple, path: str, what: str):
    # type(), not isinstance(): JSON true and false must not pass as 1 and 0.
    if type(value) not in types:
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    return value


def _complex(value, path: str) -> complex:
    if type(value) is list and len(value) == 2 and all(type(v) in (int, float) for v in value):
        return complex(*value)
    return complex(_typed(value, (int, float), path, "number or [re, im] pair"))


def _items(value, path: str, read) -> list:
    return [read(v, f"{path}[{i}]") for i, v in enumerate(_typed(value, (list,), path, "list"))]


# Field type -> reader of its JSON value.
_READERS = {
    int: lambda value, path: _typed(value, (int,), path, "integer"),
    float: lambda value, path: float(_typed(value, (int, float), path, "number")),
    str: lambda value, path: _typed(value, (str,), path, "string"),
    complex: _complex,
    tuple: lambda value, path: tuple(_items(value, path, _READERS[float])),
    np.ndarray: lambda value, path: _items(value, path, lambda row, p: _items(row, p, _complex)),
}


def _read_section(raw: dict, key: str, cls) -> dict:
    """Keyword arguments of section ``key``'s dataclass ``cls``.  Its fields
    give the keys and their types; null is allowed where the default is None."""
    section = raw.get(key, {})
    if type(section) is not dict:
        raise ConfigError(f"{key}: expected an object")
    hints = get_type_hints(cls)
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for name, value in section.items():
        path = f"{key}.{name}"
        if name not in defaults:
            raise ConfigError(f"{path}: unknown key")
        if value is not None or defaults[name] is not None:
            kind = next((t for t in get_args(hints[name]) if t is not type(None)), hints[name])
            value = _READERS[kind](value, path)
        kwargs[name] = value
    return kwargs


def parse_config(path: str) -> tuple[NetworkConfig, EsparConfig]:
    """Parse and validate the JSON config file (strict: unknown keys rejected)."""
    import json

    from .espar import EsparConfig

    # Section -> the dataclass whose fields are the section's keys and types.
    sections = {"network": NetworkConfig, "espar": EsparConfig}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"{path}: not a readable JSON file ({exc})") from None
    if type(raw) is not dict:
        raise ConfigError("config root: expected an object")
    for key in raw:
        if key not in sections:
            raise ConfigError(f"{key}: unknown top-level key")
    kwargs = {key: _read_section(raw, key, cls) for key, cls in sections.items()}
    # An explicit baseline without an explicit pattern count means one pattern.
    if kwargs["network"].get("mode") == "baseline":
        kwargs["network"].setdefault("m_patterns", 1)
    built = []
    for key, cls in sections.items():
        try:
            built.append(cls(**kwargs[key]))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return tuple(built)


# ------------------------------------------------------------------ presets

def _preset_extras(estimates, wants):
    """Extra CSV columns (in each point's output log base where capacity-like)."""
    if not wants:
        return None
    extras = {name: [] for name in wants}
    singles = {e.config: e.mean_nats for e in estimates if e.config.n_users == 1}
    for e in estimates:
        n, mean = e.config.n_users, e.mean_nats
        scale = 1.0 / LOG2 if e.config.log_base == "bits" else 1.0
        for name in wants:
            if name == "norm_logN":
                extras[name].append(mean * scale / math.log(n) if n > 1 else None)
            elif name == "norm_loglogN":
                extras[name].append(mean * scale / math.log(math.log(n)) if n > 2 else None)
            elif name == "multiuser_gain":
                c1 = singles.get(replace(e.config, n_users=1))
                extras[name].append(mean / c1 if c1 else None)
    return extras


# ------------------------------------------------------------- subcommands

def _check_out(path: str) -> str:
    """``path``, once a file can be written there.  Commands check their
    output path before any work, so a bad one costs none and writes nothing."""
    folder = os.path.dirname(path) or "."
    if os.path.exists(path):
        writable = not os.path.isdir(path) and os.access(path, os.W_OK)
    else:
        writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
    if not os.path.basename(path) or not writable:
        raise ConfigError(f"output path {path!r}: cannot write a file there")
    return path


def _values(text: str, flag: str, cast) -> list:
    """The comma-separated values of ``flag``, each passed through ``cast``."""
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{flag}: expected comma-separated {cast.__name__} values, got {text!r}"
        ) from None


def cmd_simulate(args) -> int:
    config = _effective_config(args)
    preset = args.preset or "custom"
    out_path = _check_out(args.out or "sweep.csv")
    t_start = time.perf_counter()

    def progress(est):
        cfg = est.config
        print(
            f"[simulate] mode={cfg.mode} K={cfg.k_factor:g} M={cfg.m_patterns} "
            f"N={cfg.n_users}: ok ({est.wall_s:.3f}s)",
            file=sys.stderr,
        )

    n_list, k_list, m_list, modes, wants = _PRESETS[preset] or (
        [config.n_users], [config.k_factor], [config.m_patterns], [config.mode], ())
    try:  # a preset's grid point can fail where the network's own point did not
        configs = [replace(config, mode=mode, k_factor=k, m_patterns=m, n_users=n)
                   for mode in modes for k in k_list
                   for m in (m_list if mode == "rab" else [1]) for n in n_list]
    except ValueError as exc:
        raise ConfigError(f"network: a {preset} point: {exc}") from exc
    estimates = sweep(configs, threads=args.threads, progress=progress)
    extras = _preset_extras(estimates, wants)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(estimates, fh, extra_columns=extras)
    print(
        f"[simulate] wrote {out_path} ({len(estimates)} points, "
        f"{time.perf_counter() - t_start:.1f}s total)",
        file=sys.stderr,
    )
    return 0


def cmd_validate(args) -> int:
    import csv
    import traceback

    from . import validation

    if args.out:
        _check_out(args.out)
    t_start = time.perf_counter()
    results = []

    def report(res):
        results.append(res)
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.check_id}: {res.detail}", flush=True)

    raised = None
    try:
        validation.run_all(args.level, report=report)
    except Exception as exc:  # a fault, not a verdict: every check listed before it reported
        raised = validation.CHECK_IDS[len(results)]
        traceback.print_exc()
        print(f"[ERROR] {raised}: {type(exc).__name__}: {exc}", flush=True)
    failed = [r for r in results if not r.passed]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "case", "n", "statistic", "threshold_1pct", "passed"])
            for res in results:
                for case, n, stat, threshold, passed in res.ks_rows:
                    writer.writerow(
                        [res.check_id, case, n, format_number(stat),
                         format_number(threshold), int(passed)]
                    )
    total = len(results)
    print(
        f"{total - len(failed)}/{total} checks passed ({args.level} level, "
        f"{time.perf_counter() - t_start:.1f}s)"
    )
    if failed:
        print("failed: " + ", ".join(r.check_id for r in failed))
    return 3 if raised is not None else 1 if failed else 0


def cmd_espar(args) -> int:
    from . import espar

    cfg = parse_config(args.config)[1] if args.config else espar.EsparConfig()
    out_path = _check_out(args.out or "pattern.csv")
    reactances = _values(args.reactances, "--reactances", float) if args.reactances else []
    try:
        basis = espar.build_basis(cfg, args.grid)
    except ValueError as exc:  # grid too coarse, or coincident elements
        raise ConfigError(f"espar basis on --grid {args.grid}: {exc}") from exc
    try:
        currents = espar.element_currents(cfg, reactances)
    except espar.DegenerateLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # not M - 1 reactances
        raise ConfigError(f"--reactances: {exc}") from exc
    gram_err = float(np.max(np.abs(basis.gram() - np.eye(cfg.m_elements))))
    pattern = espar.pattern_value(currents, cfg, basis.theta_grid)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,re,im\n")
        for theta, value in zip(basis.theta_grid, pattern):
            fh.write(
                f"{format_number(theta)},{format_number(value.real)},"
                f"{format_number(value.imag)}\n"
            )
    print(f"basis orthonormality: max |<Phi_i, Phi_j> - delta_ij| = {gram_err:.3e}")
    print(f"wrote {out_path} ({basis.theta_grid.size} angles)", file=sys.stderr)
    return 0 if gram_err <= 1e-8 else 1


# Law -> (grid column, whether it is in nats, the pattern count M of its
# params, its closed form of (grid, K, params)); the grid comes from the flag
# named after the column.
_LAWS = {
    "theorem1-law": ("N", True, 1, lambda n, k, p: analytic.theorem1_law(n, k)),
    "effective-users": ("N", False, 1, lambda n, k, p: analytic.effective_users_moderate_k(n, k)),
    "effective-users-rab2": ("N", False, 2, lambda n, k, p: analytic.effective_users_rab_m2(n, k)),
    "ratio-cdf": ("z", False, 1, lambda z, k, p: analytic.ratio_cdf(z, p)),
    "ratio-pdf": ("z", False, 1, lambda z, k, p: analytic.ratio_pdf(z, p)),
    "rab2-cdf": ("z", False, 2, lambda z, k, p: analytic.rab_m2_cdf(z, p)),
    "rab2-tail": ("z", False, 2, lambda z, k, p: analytic.rab_m2_tail_cdf(z, p)),
    "normalizer": ("N", False, 1, lambda n, k, p: analytic.normalizer_a_n(n, p)),
}


def cmd_analytic(args) -> int:
    column, in_nats, m, law = _LAWS[args.law]
    if args.bits and not in_nats:
        raise ConfigError(f"--bits: --law {args.law} is not in nats, so it has no bits form")
    flag = column.lower()
    text = getattr(args, flag)
    grid = _values(text, f"--{flag}", int if flag == "n" else float)
    if args.out:
        _check_out(args.out)
    try:
        params = analytic.RatioDistParams(k_factor=args.k, power_ratio=args.rho, m_patterns=m)
        # A non-finite value is reported below, so its warnings are noise.
        with np.errstate(all="ignore"):
            values = law(np.array(grid), args.k, params)
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"not finite at {column} = {grid[np.argmin(finite)]}")
    except ValueError as exc:
        raise ConfigError(
            f"--law {args.law} --k {args.k:g} --rho {args.rho:g} --{flag} {text}: {exc}"
        ) from exc
    if args.bits:
        values = values * (1.0 / LOG2)
    table = f"{column},value\n" + "".join(  # N as given: %.17g rounds it past 2^53
        f"{x if flag == 'n' else format_number(x)},{format_number(v)}\n"
        for x, v in zip(grid, values)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return 0


# ------------------------------------------------------------------ wiring

def _effective_config(args) -> NetworkConfig:
    config = parse_config(args.config)[0] if args.config else NetworkConfig()
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    changes = {key: getattr(args, key) for key in ("seed", "trials")
               if getattr(args, key) is not None}
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogmac",
        description="Underlay cognitive MAC capacity simulator and validator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a capacity sweep and write CSV")
    sim.add_argument("--config", help="JSON config path")
    sim.add_argument("--preset", choices=PRESET_NAMES, help="experiment preset")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--out", help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate", help="run the cross-validation suite")
    val.add_argument("--level", choices=("fast", "full"), default="fast")
    val.add_argument("--out", help="KS report CSV path")
    val.set_defaults(func=cmd_validate)

    esp = sub.add_parser("espar", help="export a radiation pattern and basis report")
    esp.add_argument("--config")
    esp.add_argument("--reactances", default="", help="comma-separated M-1 reactances (ohms)")
    esp.add_argument("--grid", type=int, default=256, help="angle grid size")
    esp.add_argument("--out")
    esp.set_defaults(func=cmd_espar)

    ana = sub.add_parser("analytic", help="tabulate a closed form over a grid")
    ana.add_argument("--law", required=True, choices=_LAWS)
    ana.add_argument("--k", type=float, default=0.0, help="Rician K factor")
    ana.add_argument("--rho", type=float, default=1.0,
                     help="mean interference / secondary power ratio")
    ana.add_argument("--n", default="8,16,32,64,128,256,512", help="user-count grid")
    ana.add_argument("--z", default="0.5,1,2,5,10", help="ratio grid")
    ana.add_argument("--bits", action="store_true", help="emit theorem1-law in bits instead of nats")
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analytic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
