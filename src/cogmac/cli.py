"""Command-line front end.

Subcommands:

* ``simulate`` - run a capacity sweep (a named figure preset or a custom
  grid from the config file) and write the CSV.
* ``validate`` - run the cross-validation suite, print one line per check,
  optionally dump KS reports as CSV; exit 0 iff everything passed.
* ``espar``    - export a radiation pattern CSV plus an orthonormality report.
* ``analytic`` - tabulate a closed form over a grid.

Flags can also be supplied through ``COGMAC_*`` environment variables
(flag > environment > config file > built-in default).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import espar, validation
from .analytic import (
    RatioDistParams,
    effective_users_moderate_k,
    effective_users_rab_m2,
    normalizer_a_n,
    rab_m2_cdf,
    rab_m2_tail_cdf,
    ratio_cdf,
    ratio_pdf,
    theorem1_law,
)
from .simulator import (
    LOG2,
    NetworkConfig,
    format_number,
    sweep,
    write_sweep_csv,
)

__all__ = ["ExperimentPreset", "parse_config", "main"]

ENV_PREFIX = "COGMAC"
PRESET_NAMES = ("fig5", "fig6", "fig7", "fig8", "custom")
N_GRID = (8, 16, 32, 64, 128, 256, 512)


@dataclass
class ExperimentPreset:
    """Named experiment: which grid to sweep and where to write it."""

    name: str = "custom"
    overrides: dict = field(default_factory=dict)
    output_path: str = "sweep.csv"

    def __post_init__(self) -> None:
        if self.name not in PRESET_NAMES:
            raise ValueError(f"preset.name must be one of {PRESET_NAMES}, got {self.name!r}")


class ConfigError(ValueError):
    """Config file problem; the message carries the offending key path."""


_NETWORK_FIELDS = {f.name: f.type for f in fields(NetworkConfig)}
_INT_FIELDS = {"n_users", "m_patterns", "trials", "seed"}
_STR_FIELDS = {"mode", "log_base"}


def _network_value(path: str, key: str, value):
    if key not in _NETWORK_FIELDS:
        raise ConfigError(f"{path}.{key}: unknown key")
    if key in _STR_FIELDS:
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}: expected string, got {type(value).__name__}")
        return value
    if key in _INT_FIELDS:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected integer, got {value!r}")
        return value
    if key == "max_power_cap":
        if value is not None and not isinstance(value, (int, float)):
            raise ConfigError(f"{path}.{key}: expected number or null, got {value!r}")
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected number, got {value!r}")
    return float(value)


def _parse_network(section: dict, path: str = "network") -> NetworkConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    kwargs = {k: _network_value(path, k, v) for k, v in section.items()}
    # An explicit baseline without an explicit pattern count means one pattern.
    if kwargs.get("mode") == "baseline" and "m_patterns" not in kwargs:
        kwargs["m_patterns"] = 1
    try:
        return NetworkConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) for v in value
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{path}: expected number or [re, im] pair, got {value!r}")


def _parse_espar(section: dict, path: str = "espar") -> espar.EsparConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {"m_elements", "radius_wavelengths", "feed_voltage", "admittance", "element_angles"}
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    kwargs: dict = {}
    if "m_elements" in section:
        if not isinstance(section["m_elements"], int):
            raise ConfigError(f"{path}.m_elements: expected integer")
        kwargs["m_elements"] = section["m_elements"]
    if "radius_wavelengths" in section:
        kwargs["radius_wavelengths"] = float(section["radius_wavelengths"])
    if "feed_voltage" in section:
        kwargs["feed_voltage"] = _parse_complex(section["feed_voltage"], f"{path}.feed_voltage")
    if "element_angles" in section:
        angles = section["element_angles"]
        if not isinstance(angles, list):
            raise ConfigError(f"{path}.element_angles: expected list of angles")
        kwargs["element_angles"] = tuple(float(a) for a in angles)
    if "admittance" in section:
        rows = section["admittance"]
        if not isinstance(rows, list):
            raise ConfigError(f"{path}.admittance: expected matrix of [re, im] pairs")
        matrix = [
            [_parse_complex(v, f"{path}.admittance[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        kwargs["admittance"] = np.asarray(matrix, dtype=complex)
    try:
        return espar.EsparConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(path: str) -> tuple[NetworkConfig, ExperimentPreset, espar.EsparConfig]:
    """Parse and validate the JSON config file (strict: unknown keys rejected)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected an object")
    for key in raw:
        if key not in ("network", "preset", "espar"):
            raise ConfigError(f"{key}: unknown top-level key")
    network = _parse_network(raw.get("network", {}))
    preset_raw = raw.get("preset", {})
    if not isinstance(preset_raw, dict):
        raise ConfigError("preset: expected an object")
    for key in preset_raw:
        if key not in ("name", "overrides", "output_path"):
            raise ConfigError(f"preset.{key}: unknown key")
    overrides = preset_raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("preset.overrides: expected an object")
    checked = {k: _network_value("preset.overrides", k, v) for k, v in overrides.items()}
    try:
        preset = ExperimentPreset(
            name=preset_raw.get("name", "custom"),
            overrides=checked,
            output_path=preset_raw.get("output_path", "sweep.csv"),
        )
    except ValueError as exc:
        raise ConfigError(f"preset: {exc}") from exc
    espar_section = _parse_espar(raw.get("espar", {}))
    return network, preset, espar_section


def emit_config(config: NetworkConfig, preset: ExperimentPreset) -> dict:
    """Effective configuration as a JSON-serializable dict (round-trips)."""
    network = {
        f.name: getattr(config, f.name)
        for f in fields(NetworkConfig)
        if getattr(config, f.name) is not None or f.name == "max_power_cap"
    }
    if network.get("max_power_cap") is None:
        network.pop("max_power_cap")
    return {
        "network": network,
        "preset": {
            "name": preset.name,
            "overrides": preset.overrides,
            "output_path": preset.output_path,
        },
    }


# ------------------------------------------------------------------ presets

def _preset_grid(name: str):
    """(n_list, k_list, m_list, modes, wants) per figure preset."""
    if name == "fig5":
        return list(N_GRID), [0.0, 2.0, 3.0, 10.0], [1], ["baseline"], ()
    if name == "fig6":
        # Pattern-count comparison at strong LoS plus the single-antenna
        # reference; N=1 anchors the multiuser-gain normalization.
        return [1, *N_GRID], [10.0], [2, 3, 4], ["rab", "baseline"], ("multiuser_gain",)
    if name == "fig7":
        return list(N_GRID), [0.0, 10.0, 100.0], [2], ["baseline", "rab"], ()
    if name == "fig8":
        return list(N_GRID), [0.0, 100.0], [2], ["baseline", "rab"], (
            "norm_logN",
            "norm_loglogN",
        )
    raise ValueError(f"preset {name!r} has no predefined grid")


def _preset_extras(points, config, wants):
    """Extra CSV columns (in the output log base where capacity-like)."""
    if not wants:
        return None
    scale = 1.0 / LOG2 if config.log_base == "bits" else 1.0
    extras = {name: [] for name in wants}
    singles = {}
    for p in points:
        if p.n_users == 1:
            singles[(p.mode, p.k_factor, p.m_patterns)] = p.estimate.mean_nats
    for p in points:
        mean = p.estimate.mean_nats
        for name in wants:
            if name == "norm_logN":
                extras[name].append(mean * scale / math.log(p.n_users) if p.n_users > 1 else None)
            elif name == "norm_loglogN":
                extras[name].append(
                    mean * scale / math.log(math.log(p.n_users)) if p.n_users > 2 else None
                )
            elif name == "multiuser_gain":
                c1 = singles.get((p.mode, p.k_factor, p.m_patterns))
                extras[name].append(mean / c1 if c1 else None)
    return extras


# ------------------------------------------------------------- subcommands

def cmd_simulate(args) -> int:
    config, preset = _effective_config(args)
    out_path = args.out or preset.output_path
    t_start = time.time()

    def progress(point):
        print(
            f"[simulate] mode={point.mode} K={point.k_factor:g} M={point.m_patterns} "
            f"N={point.n_users}: ok ({point.wall_s:.3f}s)",
            file=sys.stderr,
        )

    if preset.name == "custom":
        n_list, k_list, m_list = [config.n_users], [config.k_factor], [config.m_patterns]
        modes = [config.mode]
        wants = ()
    else:
        n_list, k_list, m_list, modes, wants = _preset_grid(preset.name)
    points = sweep(config, n_list, k_list, m_list, modes, threads=args.threads,
                   progress=progress)
    extras = _preset_extras(points, config, wants)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(points, config, fh, extra_columns=extras)
    print(
        f"[simulate] wrote {out_path} ({len(points)} points, "
        f"{time.time() - t_start:.1f}s total)",
        file=sys.stderr,
    )
    return 0


def cmd_validate(args) -> int:
    t_start = time.time()

    def report(res):
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] {res.check_id}: {res.detail}", flush=True)

    results = validation.run_all(args.level, report=report)
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
        f"{time.time() - t_start:.1f}s)"
    )
    if failed:
        print("failed: " + ", ".join(r.check_id for r in failed))
    return 1 if failed else 0


def cmd_espar(args) -> int:
    cfg = parse_config(args.config)[2] if args.config else espar.EsparConfig()
    reactances = [float(v) for v in args.reactances.split(",")] if args.reactances else []
    if len(reactances) != cfg.m_elements - 1:
        print(
            f"error: need {cfg.m_elements - 1} reactances for M={cfg.m_elements}, "
            f"got {len(reactances)}",
            file=sys.stderr,
        )
        return 2
    try:
        currents = espar.element_currents(cfg, reactances)
    except espar.DegenerateLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    basis = espar.build_basis(cfg, args.grid)
    gram_err = float(np.max(np.abs(basis.gram() - np.eye(cfg.m_elements))))
    pattern = espar.pattern_value(currents, cfg, basis.theta_grid)
    out_path = args.out or "pattern.csv"
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


_LAWS = (
    "theorem1-law",
    "effective-users",
    "effective-users-rab2",
    "ratio-cdf",
    "ratio-pdf",
    "rab2-cdf",
    "rab2-tail",
    "normalizer",
)


def cmd_analytic(args) -> int:
    scale = 1.0 / LOG2 if args.bits else 1.0
    params = RatioDistParams(k_factor=args.k, power_ratio=args.rho)
    rows: list[tuple[str, float, float]] = []
    if args.law in ("theorem1-law", "effective-users", "effective-users-rab2", "normalizer"):
        grid = [int(v) for v in args.n.split(",")]
        for n in grid:
            if args.law == "theorem1-law":
                rows.append(("N", n, theorem1_law(n, args.k) * scale))
            elif args.law == "effective-users":
                rows.append(("N", n, effective_users_moderate_k(n, args.k)))
            elif args.law == "effective-users-rab2":
                rows.append(("N", n, effective_users_rab_m2(n, args.k)))
            else:
                rows.append(("N", n, normalizer_a_n(n, params)))
    else:
        grid = [float(v) for v in args.z.split(",")]
        fn = {
            "ratio-cdf": ratio_cdf,
            "ratio-pdf": ratio_pdf,
            "rab2-cdf": rab_m2_cdf,
            "rab2-tail": rab_m2_tail_cdf,
        }[args.law]
        for z in grid:
            rows.append(("z", z, float(fn(z, params))))
    stream = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        stream.write(f"{rows[0][0]},value\n")
        for _, x, value in rows:
            stream.write(f"{format_number(x)},{format_number(value)}\n")
    finally:
        if args.out:
            stream.close()
    return 0


# ------------------------------------------------------------------ wiring

# Flag dest -> (environment name, cast, allowed values or None, built-in
# default).  Only the flags of the subcommand in use are read.
_ENV_FLAGS = {
    "config": ("CONFIG", str, None, None),
    "preset": ("PRESET", str, PRESET_NAMES, None),
    "seed": ("SEED", int, None, None),
    "trials": ("TRIALS", int, None, None),
    "threads": ("THREADS", int, None, 1),
    "level": ("LEVEL", str, ("fast", "full"), "fast"),
    "out": ("OUT", str, None, None),
}


def _apply_env(args) -> None:
    """Fill each flag the command line left unset from its ``COGMAC_*``
    variable, else its built-in default; a value that does not cast or is
    not allowed raises ``ConfigError``."""
    for dest, (name, cast, allowed, default) in _ENV_FLAGS.items():
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue  # not a flag of this command, or given on the command line
        raw = os.environ.get(f"{ENV_PREFIX}_{name}")
        if raw is None:
            setattr(args, dest, default)
            continue
        try:
            value = cast(raw)
        except ValueError:
            raise ConfigError(
                f"{ENV_PREFIX}_{name}={raw!r}: expected {cast.__name__}"
            ) from None
        if allowed is not None and value not in allowed:
            raise ConfigError(f"{ENV_PREFIX}_{name}={raw!r}: must be one of {allowed}")
        setattr(args, dest, value)


def _effective_config(args) -> tuple[NetworkConfig, ExperimentPreset]:
    if args.config:
        config, preset, _ = parse_config(args.config)
    else:
        config, preset = NetworkConfig(), ExperimentPreset()
    if args.preset:
        preset = replace(preset, name=args.preset)
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    changes = dict(preset.overrides)
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.trials is not None:
        changes["trials"] = args.trials
    try:
        config = replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config, preset


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
    sim.add_argument("--threads", type=int)
    sim.add_argument("--out", help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate", help="run the cross-validation suite")
    val.add_argument("--level", choices=("fast", "full"))
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
    ana.add_argument("--bits", action="store_true", help="emit laws in bits instead of nats")
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analytic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_env(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
