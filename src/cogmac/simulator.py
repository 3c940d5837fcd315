"""Max-SINR scheduling and ergodic-capacity Monte-Carlo engine.

Each slot the user with the best instantaneous SINR transmits, with its
power inverting the interference channel so the peak constraint at the
primary receiver binds exactly.  Two modes: ``baseline`` (one conventional
antenna per user) and ``rab`` (per-slot random basis-pattern weights).

Two samplers.  Brute force draws every user of every slot through
:func:`cogmac.channels.draw_gains` and takes the max.  Without a power cap,
wherever the per-user ratio law has a closed-form quantile F^-1, the
scheduled user's ratio z_max = max_n gain_s/gain_sp is instead drawn
exactly from one uniform per slot, z_max = F^-1(U^(1/N)) (the inverse-CDF
identity for the maximum of N iid draws), at a cost independent of N:

* K = 0, any M: the weights do not matter and the law is the Rayleigh one,
  so a RAB K = 0 point reproduces the baseline K = 0 point of the same
  seed exactly;
* M >= 1 and K > 0: :func:`cogmac.analytic.rab_ppf`, which is
  :func:`~cogmac.analytic.ratio_ppf` for M = 1,
  :func:`~cogmac.analytic.rab_m2_ppf` for M = 2, and a Newton loop on a
  per-(K, M) table of Kluyver's random-walk law for M >= 3.

Capped points, and points with K above the range the quantiles are
certified for (K <= 1000 for M <= 2, K <= 100 for M >= 3), take brute
force.  So do points with M >= 3 and N*M < 48 user-pattern draws per
slot, where brute force is the cheaper of the two.

Layout: trials are processed in chunks of at most 2^21 elements, each
drawing from its own counter-derived Philox stream (``jumped`` from the
master seed), and each chunk in blocks of at most 2^15 elements (at least
one slot either way).  An element is one user-pattern draw under brute
force, one slot under the sampler.  A chunk's sums form one 4-vector,
added block by block and then chunk by chunk, in index order.  Sizes
depend on the config only, so results are bit-identical for any worker
count.  Threading: the chunks of one experiment are the only parallel
work; a sweep runs its points one after another.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .analytic import _RAB_LAW_MAX_K, RatioDistParams, rab_ppf
from .channels import draw_gains

__all__ = [
    "MODES",
    "METHODS",
    "GROWTH_LAWS",
    "NetworkConfig",
    "CapacityEstimate",
    "SweepPoint",
    "run_experiment",
    "sweep",
    "growth_flatness",
    "loglog_control_slope",
    "write_sweep_csv",
    "format_number",
    "SWEEP_CSV_COLUMNS",
]

MODES = ("baseline", "rab")
METHODS = ("auto", "brute")
GROWTH_LAWS = ("logN", "loglogN", "none")
LOG2 = math.log(2.0)

# Elements per chunk and per block (see the module docstring): the block
# bounds a worker's temporaries to a few MB whatever the chunk size.
_CHUNK_ELEMENTS = 1 << 21
_BLOCK_ELEMENTS = 1 << 15
# Largest K the order-statistic sampler runs at: the Hypothesis properties
# TestRatioPpf::test_inverts_cdf and TestRabM2Ppf::test_survival_of_the_quantile_is_q
# (tests/test_analytic.py) certify ratio_ppf and rab_m2_ppf up to it; from
# about K = 1e8 on, both quantiles lose precision.
_SAMPLER_MAX_K = 1e3
# M >= 3 with K > 0 takes the sampler up to the K its table is certified for
# (K <= 100), and only from this many brute-force elements per slot (N*M)
# on.  Measured on 2 cores at 1500 and 20000 trials, one slot of the sampler
# costs about 16 brute-force elements at K = 10 and 30 at K = 100.
_TABLE_MIN_ELEMENTS = 48


@dataclass(frozen=True)
class NetworkConfig:
    """Full experiment parameterization."""

    n_users: int = 100
    m_patterns: int = 2
    k_factor: float = 0.0
    mean_secondary_power: float = 1.0       # secondary-link average power
    mean_interference_power: float = 1.0    # interference-link average power
    primary_power: float = 0.0              # primary transmit energy (0 disables)
    mean_ps_power: float = 1.0              # primary-to-secondary link power
    peak_interference: float = 1.0          # Q_p cap at the primary receiver
    trials: int = 100_000
    seed: int = 42
    mode: str = "rab"                       # "baseline" | "rab"
    log_base: str = "nats"                  # "nats" | "bits" (output only)
    max_power_cap: float | None = None      # optional transmit power clip

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.log_base not in ("nats", "bits"):
            raise ValueError(f"log_base must be 'nats' or 'bits', got {self.log_base!r}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.m_patterns < 1:
            raise ValueError(f"m_patterns must be >= 1, got {self.m_patterns}")
        if self.mode == "baseline" and self.m_patterns != 1:
            raise ValueError("baseline mode forces m_patterns = 1")
        if not math.isfinite(self.k_factor) or self.k_factor < 0.0:
            raise ValueError(f"k_factor must be finite and >= 0, got {self.k_factor}")
        for name in ("mean_secondary_power", "mean_interference_power", "peak_interference"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("primary_power", "mean_ps_power"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.trials < 100:
            raise ValueError(f"need trials >= 100, got {self.trials}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.max_power_cap is not None and not self.max_power_cap > 0.0:
            raise ValueError(f"max_power_cap must be > 0 when set, got {self.max_power_cap}")


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte-Carlo ergodic capacity with diagnostics (all in nats)."""

    mean_nats: float
    stderr_nats: float
    jensen_bound_nats: float
    trials: int


@dataclass
class SweepPoint:
    mode: str
    n_users: int
    m_patterns: int
    k_factor: float
    estimate: CapacityEstimate
    # Seconds the point's run_experiment call took, chunk threads included;
    # not part of the result, so equality ignores it.
    wall_s: float = field(compare=False)


def _layout(config: NetworkConfig, method: str) -> tuple:
    """(block sampler, slots per chunk, slots per block) of a point.

    ``method="auto"`` takes the order-statistic sampler, one element per
    slot, iff there is no power cap and either M <= 2 or K = 0 with
    K <= 1000, or M >= 3 with K <= 100 and N*M >= ``_TABLE_MIN_ELEMENTS``;
    every other point takes brute force, N*M elements per slot.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    k, elements = config.k_factor, config.n_users * config.m_patterns
    if config.m_patterns <= 2 or k == 0.0:
        sampler = k <= _SAMPLER_MAX_K
    else:
        sampler = k <= _RAB_LAW_MAX_K and elements >= _TABLE_MIN_ELEMENTS
    if method == "auto" and config.max_power_cap is None and sampler:
        block, per_slot = _quantile_block, 1
    else:
        block, per_slot = _brute_block, elements
    return (block, max(1, min(config.trials, _CHUNK_ELEMENTS // per_slot)),
            max(1, _BLOCK_ELEMENTS // per_slot))


def _chunk_size(config: NetworkConfig) -> int:
    """Slots per chunk under brute force."""
    return _layout(config, "brute")[1]


def _chunk_rng(config: NetworkConfig, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=config.seed).jumped(chunk_index))


def _inv_denom(config: NetworkConfig, size: int, rng) -> np.ndarray:
    """1 / (1 + P gamma_ps) of ``size`` slots: one exponential per slot when
    primary power is on, no draw otherwise."""
    if config.primary_power > 0.0 and config.mean_ps_power > 0.0:
        gamma_ps = config.mean_ps_power * rng.standard_exponential(size)
        return 1.0 / (1.0 + config.primary_power * gamma_ps)
    return np.ones(size)


def _brute_block(config: NetworkConfig, size: int, rng) -> np.ndarray:
    """Best numerator of `size` slots, every user drawn by :func:`draw_gains`."""
    gain_s, power = draw_gains(config, rng, size)
    np.divide(config.peak_interference, power, out=power)
    if config.max_power_cap is not None:
        np.minimum(power, config.max_power_cap, out=power)
    gain_s *= power
    return gain_s.max(axis=1)


def _max_ratio(config: NetworkConfig, u: np.ndarray) -> np.ndarray:
    """The scheduled ratio max_n gain_s/gain_sp of N users from uniforms u
    in [0, 1): F^-1(U^(1/N)), with the upper tail q = 1 - U^(1/N) formed as
    -expm1(log(U)/N).  U = 0 gives 0.  K = 0 uses the Rayleigh form
    1/(rho expm1(-log(U)/N)), rho = gamma_sp/gamma_s, for any M; otherwise
    F^-1 is :func:`rab_ppf` for M patterns."""
    rho = config.mean_interference_power / config.mean_secondary_power
    with np.errstate(divide="ignore"):
        log_root = np.log(u) / config.n_users
    if config.k_factor == 0.0:
        return 1.0 / (rho * np.expm1(-log_root))
    return rab_ppf(-np.expm1(log_root), RatioDistParams(config.k_factor, rho), config.m_patterns)


def _quantile_block(config: NetworkConfig, size: int, rng) -> np.ndarray:
    """Best numerator of `size` slots from the scheduled maximum alone, one
    uniform per slot; exact without a power cap."""
    return config.peak_interference * _max_ratio(config, rng.random(size))


def _chunk_sums(config: NetworkConfig, size: int, rng, method: str) -> np.ndarray:
    """Simulate `size` independent slots; return the chunk's reduction sums
    (sum C, sum C^2, sum best numerator, sum 1/denominator).

    The slots are drawn from ``rng`` in blocks, and the blocks' sums are
    added in block order.  Fixed draw order per block: the best numerators
    from the sampler :func:`_layout` picks for ``method``, then the
    primary-to-secondary powers (if enabled).
    """
    block, _, rows = _layout(config, method)
    sums = np.zeros(4)
    for start in range(0, size, rows):
        best_num = block(config, min(rows, size - start), rng)
        inv_denom = _inv_denom(config, best_num.size, rng)
        caps = np.log1p(best_num * inv_denom)
        sums += [np.sum(caps), np.sum(caps * caps), np.sum(best_num), np.sum(inv_denom)]
    return sums


def run_experiment(
    config: NetworkConfig, threads: int = 1, method: str = "auto"
) -> CapacityEstimate:
    """Monte-Carlo ergodic capacity with a Jensen-bound diagnostic.

    ``method="auto"`` draws each slot's scheduled maximum directly, one
    uniform per slot, for points without a power cap that have M <= 2 or
    K = 0 with K <= 1000, or M >= 3 with K <= 100 and N*M >= 48.  Every
    other point (a power cap, K above those ranges, or M >= 3 at smaller
    N*M), and every point with ``method="brute"``, draws all N users of
    each slot.  A point of several chunks spreads them over ``threads``
    workers; the result is the same for any ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    chunk = _layout(config, method)[1]
    n_chunks = (config.trials + chunk - 1) // chunk

    def work(c: int) -> np.ndarray:
        size = min(chunk, config.trials - c * chunk)
        return _chunk_sums(config, size, _chunk_rng(config, c), method)

    if threads == 1 or n_chunks == 1:
        results = [work(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(n_chunks)))

    # Chunk order keeps the sums bit-stable.
    cap_sum, capsq_sum, num_sum, inv_sum = sum(results, np.zeros(4)).tolist()
    t = config.trials
    mean = cap_sum / t
    var = max(0.0, (capsq_sum - t * mean * mean) / (t - 1))
    stderr = math.sqrt(var / t)
    jensen = math.log1p((inv_sum / t) * (num_sum / t))
    return CapacityEstimate(mean_nats=mean, stderr_nats=stderr, jensen_bound_nats=jensen, trials=t)


def sweep(
    config_template: NetworkConfig,
    n_list,
    k_list,
    m_list,
    modes,
    threads: int = 1,
    progress=None,
    method: str = "auto",
) -> list[SweepPoint]:
    """Capacity estimates over the (mode, K, N[, M]) grid, in grid order.

    Baseline points always use one pattern; ``m_list`` applies to RAB points
    only.  Every point's config is built, and so checked, before the first
    draw: a bad grid value raises ``ValueError`` before any point runs.
    The points run one after another, each through :func:`run_experiment`
    with ``threads`` and ``method``, so a point of several chunks spreads
    them over the threads.  ``progress`` is called with each point as it
    finishes.
    """
    n_list, k_list, m_list, modes = list(n_list), list(k_list), list(m_list), list(modes)
    if not (n_list and k_list and modes):
        raise ValueError("n_list, k_list, and modes must be nonempty")
    if "rab" in modes and not m_list:
        raise ValueError("m_list must be nonempty when sweeping rab mode")
    configs = [
        replace(config_template, mode=mode, k_factor=float(k), m_patterns=int(m), n_users=int(n))
        for mode in modes
        for k, m, n in product(k_list, m_list if mode == "rab" else [1], n_list)
    ]
    points = []
    for cfg in configs:
        start = time.perf_counter()
        estimate = run_experiment(cfg, threads=threads, method=method)
        p = SweepPoint(mode=cfg.mode, n_users=cfg.n_users, m_patterns=cfg.m_patterns,
                       k_factor=cfg.k_factor, estimate=estimate,
                       wall_s=time.perf_counter() - start)
        if progress is not None:
            progress(p)
        points.append(p)
    return points


def format_number(x: float) -> str:
    """Serialize with 17 significant digits (round-trip stable)."""
    return f"{x:.17g}"


SWEEP_CSV_COLUMNS = (
    "mode,N,M,K,gamma_s,gamma_sp,Qp,mean_capacity,stderr,trials,seed,jensen_bound"
)


def write_sweep_csv(
    points: list[SweepPoint],
    config_template: NetworkConfig,
    stream,
    extra_columns: dict | None = None,
) -> None:
    """Emit sweep rows as CSV.

    Capacity columns are converted to the template's ``log_base``.  Extra
    columns (same length as the point list; None entries become empty
    fields) are appended verbatim after the stable base schema, so callers
    own their units.
    """
    extra = extra_columns or {}
    header = SWEEP_CSV_COLUMNS + ("," + ",".join(extra) if extra else "")
    stream.write(header + "\n")
    scale = 1.0 / LOG2 if config_template.log_base == "bits" else 1.0
    for idx, p in enumerate(points):
        est = p.estimate
        fields = [
            p.mode,
            str(p.n_users),
            str(p.m_patterns),
            format_number(p.k_factor),
            format_number(config_template.mean_secondary_power),
            format_number(config_template.mean_interference_power),
            format_number(config_template.peak_interference),
            format_number(est.mean_nats * scale),
            format_number(est.stderr_nats * scale),
            str(est.trials),
            str(config_template.seed),
            format_number(est.jensen_bound_nats * scale),
        ]
        for name in extra:
            value = extra[name][idx]
            fields.append("" if value is None else format_number(value))
        stream.write(",".join(fields) + "\n")


def _law_values(n_arr: np.ndarray, law: str) -> np.ndarray:
    if law == "logN":
        return np.log(n_arr)
    if law == "loglogN":
        return np.log(np.log(n_arr))
    if law == "none":
        return np.ones_like(n_arr)
    raise ValueError(f"law must be one of {GROWTH_LAWS}, got {law!r}")


def growth_flatness(n_list, values, law: str) -> float:
    """Slope of law-normalized capacity versus log N over the upper half grid.

    A near-zero slope certifies the claimed growth law.  Requires at least
    4 points spanning at least one decade in N.
    """
    n_arr = np.asarray(n_list, dtype=float)
    v_arr = np.asarray(values, dtype=float)
    if n_arr.shape != v_arr.shape or n_arr.ndim != 1:
        raise ValueError("n_list and values must be 1-d and the same length")
    if n_arr.size < 4:
        raise ValueError(f"need at least 4 points, got {n_arr.size}")
    if np.any(np.diff(n_arr) <= 0.0):
        raise ValueError("n_list must be strictly increasing")
    if n_arr[-1] / n_arr[0] < 10.0:
        raise ValueError("n_list must span at least one decade")
    y = v_arr / _law_values(n_arr, law)
    half = n_arr.size // 2
    x = np.log(n_arr[half:])
    return float(np.polyfit(x, y[half:], 1)[0])


def loglog_control_slope(n_list, values) -> float:
    """Flatness slope a log(log N)-growing curve of matched scale would show.

    Least-squares fits c so c*log(log N) tracks ``values``, then measures
    that synthetic curve's slope under logN normalization.  Used as the
    comparison magnitude when certifying restored log-N growth.
    """
    n_arr = np.asarray(n_list, dtype=float)
    v_arr = np.asarray(values, dtype=float)
    ll = np.log(np.log(n_arr))
    c = float(np.dot(v_arr, ll) / np.dot(ll, ll))
    return growth_flatness(n_arr, c * ll, "logN")
