"""Max-SINR scheduling and ergodic-capacity Monte-Carlo engine.

Each slot the user with the best instantaneous SINR transmits, with its
power inverting the interference channel so the peak constraint at the
primary receiver binds exactly.  Two modes: ``baseline`` (one conventional
antenna per user) and ``rab`` (per-slot random basis-pattern weights).

Two samplers.  Brute force draws every user of every slot through
:func:`cogmac.channels.draw_gains` and takes the max; at K = 0 that is two
exponentials per user for any M (secondary, then interference), at K > 0
an exponential, M-1 weight phases, and the scattering's exponential radius
and uniform angle.  Without a power cap it takes the max of gain_s/gain_sp
and scales it by Q_p; with one, the max of min(Q_p/gain_sp, cap) gain_s.
Without a power cap, wherever the per-user ratio law has a closed-form
quantile F^-1, the scheduled user's ratio z_max = max_n gain_s/gain_sp is
instead drawn exactly from one uniform per slot, z_max = F^-1(U^(1/N))
(the inverse-CDF identity for the maximum of N iid draws), at a cost
independent of N:

* K = 0, any M: the weights do not matter and the law is the Rayleigh one,
  so a RAB K = 0 point reproduces the baseline K = 0 point of the same
  seed exactly;
* M >= 1 and K > 0: :meth:`cogmac.analytic.RatioDistParams.isf` of the
  per-(K, rho, M) law, a closed form for M = 1 and a Newton loop for M >= 2.

Capped points, and points with K above the K <= 1000 that ``isf`` is
certified for at every M, take brute force.  So do points with M >= 3 and
N*M < 48 user-pattern draws per slot, where brute force is the cheaper of
the two.

Common random numbers: points of one seed read the same chunk streams.
Under the sampler a slot's uniform does not depend on N, so the points of
an N sweep at one K and M share their uniforms, and each slot's scheduled
maximum grows with N.

Layout: trials are processed in chunks of at most 2^21 elements, chunk c
drawing from its own SFC64 stream, seeded by
``SeedSequence(seed, spawn_key=(c,))``, and each chunk in blocks of at most
2^15 elements (at least one slot either way).  An element is one
user-pattern draw under brute force, one slot under the sampler.  A
chunk's sums form one 4-vector, added block by block and then chunk by
chunk, in index order.  Sizes depend on the config only, so results are
bit-identical for any worker count.  Threading: the chunks of one
experiment are the only parallel work; a sweep runs its points one after
another.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .analytic import _ISF_MAX_K, RatioDistParams, _integer, _real
from .channels import draw_gains

__all__ = [
    "MODES",
    "METHODS",
    "NetworkConfig",
    "CapacityEstimate",
    "run_experiment",
    "sweep",
    "write_sweep_csv",
    "format_number",
    "SWEEP_CSV_COLUMNS",
]

MODES = ("baseline", "rab")
METHODS = ("auto", "brute")

# Elements per chunk and per block (see the module docstring): the block
# bounds a worker's temporaries to a few MB whatever the chunk size.
_CHUNK_ELEMENTS = 1 << 21
_BLOCK_ELEMENTS = 1 << 15
# M >= 3 with K > 0 takes the sampler only from this many brute-force
# elements per slot (N*M) on.  Measured on 2 cores at 20000 trials, one slot
# of the sampler costs about 25 to 33 brute-force elements at K = 10 and 45
# to 56 at K = 100 (M = 3 and 4, N = 64, medians of 9 runs).
_TABLE_MIN_ELEMENTS = 48
# NetworkConfig's real-valued fields, in check order, each finite and > 0
# (True) or >= 0 (False); max_power_cap may also be None, for no cap.
_REAL_FIELDS = (("k_factor", False), ("mean_secondary_power", True),
                ("mean_interference_power", True), ("peak_interference", True),
                ("primary_power", False), ("max_power_cap", True))


@dataclass(frozen=True)
class NetworkConfig:
    """Full experiment parameterization.  The counts are integers (``trials``
    >= 100, ``seed`` below 2^64) and the real-valued fields finite floats,
    checked by the rules in :mod:`cogmac.analytic`; ``ValueError`` names the
    field."""

    n_users: int = 100
    m_patterns: int = 2
    k_factor: float = 0.0
    mean_secondary_power: float = 1.0       # secondary-link average power
    mean_interference_power: float = 1.0    # interference-link average power
    primary_power: float = 0.0              # P_p E[gamma_ps], mean primary interference
    peak_interference: float = 1.0          # Q_p cap at the primary receiver
    trials: int = 100_000
    seed: int = 42
    mode: str = "rab"                       # "baseline" | "rab"
    max_power_cap: float | None = None      # optional transmit power clip

    def __post_init__(self) -> None:
        for name, least in (("n_users", 1), ("m_patterns", 1), ("trials", 100), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.seed >= 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "baseline" and self.m_patterns != 1:
            raise ValueError("baseline mode forces m_patterns = 1")
        for name, positive in _REAL_FIELDS:
            if getattr(self, name) is not None or name != "max_power_cap":
                object.__setattr__(self, name, _real(getattr(self, name), name, positive))
        # The sampler needs N, rho = gamma_sp/gamma_s, its largest scheduled
        # ratio (K+1)(1/v - 1)/rho (v of about the least tail 2^-53/N) and, with
        # no power cap, Q_p times it in float range.  Above isf's K range
        # the point takes brute force, with no K+1.  N is compared as an integer.
        rho = _real(self.mean_interference_power / self.mean_secondary_power,
                    "mean_interference_power / mean_secondary_power", positive=True)
        k = self.k_factor if self.k_factor <= _ISF_MAX_K else 0.0
        q_p = self.peak_interference if self.max_power_cap is None else 1.0
        largest = (k + 1.0) * 2.0**53 / rho * max(1.0, q_p)
        if self.n_users > sys.float_info.max / max(1.0, largest):
            n = self.n_users if self.n_users < 1e18 else f"about 1e{int(math.log10(self.n_users))}"
            raise ValueError(
                "N, or the largest scheduled ratio or numerator, (K+1) N 2^53 max(1, Q_p) / rho "
                f"(Q_p = 1 under a power cap), leaves the float range at n_users = {n}, "
                f"m_patterns = {self.m_patterns}, k_factor = {self.k_factor}, peak_interference "
                f"= {self.peak_interference}, max_power_cap = {self.max_power_cap}, and rho = "
                f"mean_interference_power / mean_secondary_power = {rho}"
            )


@dataclass(frozen=True)
class CapacityEstimate:
    """Monte-Carlo ergodic capacity of ``config`` with diagnostics (in nats)."""

    config: NetworkConfig
    mean_nats: float
    stderr_nats: float
    jensen_bound_nats: float
    # Seconds the run_experiment call took, chunk threads included; not part
    # of the result, so equality ignores it.
    wall_s: float = field(compare=False)


def _block_slots(elements_per_slot: int) -> int:
    """Slots per block, for the simulator and validation's own draws alike: as
    many of ``elements_per_slot`` elements as ``_BLOCK_ELEMENTS`` holds, >= 1."""
    return max(1, _BLOCK_ELEMENTS // elements_per_slot)


def _layout(config: NetworkConfig, method: str) -> tuple:
    """(block sampler, slots per chunk, slots per block) of a point.

    ``method="auto"`` takes the order-statistic sampler, one element per
    slot, iff there is no power cap, K <= ``_ISF_MAX_K`` (the range
    :meth:`RatioDistParams.isf` is certified for), and M <= 2, K = 0 or
    N*M >= ``_TABLE_MIN_ELEMENTS``; every other point takes brute force,
    N*M elements per slot.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    m, k, elements = config.m_patterns, config.k_factor, config.n_users * config.m_patterns
    sampler = k <= _ISF_MAX_K and (m <= 2 or k == 0.0 or elements >= _TABLE_MIN_ELEMENTS)
    if method == "auto" and config.max_power_cap is None and sampler:
        block, per_slot = _quantile_block, 1
    else:
        block, per_slot = _brute_block, elements
    return (block, max(1, min(config.trials, _CHUNK_ELEMENTS // per_slot)),
            _block_slots(per_slot))


def _chunk_size(config: NetworkConfig) -> int:
    """Slots per chunk under brute force."""
    return _layout(config, "brute")[1]


def _chunk_rng(config: NetworkConfig, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(config.seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _inv_denom(config: NetworkConfig, size: int, rng) -> np.ndarray | None:
    """1 / (1 + P_p gamma_ps) of ``size`` slots, P_p gamma_ps being
    ``primary_power`` times an Exp(1): one exponential per slot when primary
    power is on; None, and no draw, when it is off (every denominator is 1)."""
    if config.primary_power > 0.0:
        return 1.0 / (1.0 + config.primary_power * rng.standard_exponential(size))
    return None


def _brute_block(config: NetworkConfig, size: int, rng) -> np.ndarray:
    """Best numerators of `size` slots, every user drawn by :func:`draw_gains`."""
    gain_s, gain_sp = draw_gains(config, rng, size)
    if config.max_power_cap is None:  # Q_p scales every user alike: scale the maxima
        gain_s /= gain_sp
        scale = config.peak_interference
    else:
        np.divide(config.peak_interference, gain_sp, out=gain_sp)
        np.minimum(gain_sp, config.max_power_cap, out=gain_sp)
        gain_s *= gain_sp
        scale = 1.0
    best = gain_s.max(axis=1)
    best *= scale
    return best


def _max_ratio(config: NetworkConfig, u: np.ndarray) -> np.ndarray:
    """The scheduled ratio max_n gain_s/gain_sp of N users from uniforms u
    in [0, 1): F^-1(U^(1/N)), with the upper tail q = 1 - U^(1/N) formed as
    -expm1(log(U)/N).  U = 0 gives 0.  K = 0 uses the Rayleigh form
    1/(rho expm1(-log(U)/N)), rho = gamma_sp/gamma_s, for any M; otherwise
    F^-1 is the :meth:`RatioDistParams.isf` of the point's law.  The tail
    is formed in ``u``'s own buffer, which the call overwrites."""
    rho = config.mean_interference_power / config.mean_secondary_power
    with np.errstate(divide="ignore"):
        log_root = np.log(u, out=u)
    log_root /= config.n_users
    if config.k_factor == 0.0:
        return 1.0 / (rho * np.expm1(-log_root))
    q = np.negative(np.expm1(log_root, out=log_root), out=log_root)
    return RatioDistParams(config.k_factor, rho, config.m_patterns).isf(q)


def _quantile_block(config: NetworkConfig, size: int, rng) -> np.ndarray:
    """Best numerators of `size` slots from the scheduled maximum alone, one
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
        if inv_denom is None:  # x * 1 is x, and a sum of ones is exact
            caps = np.log1p(best_num)
            sums[3] += best_num.size
        else:
            caps = np.log1p(best_num * inv_denom)
            sums[3] += np.sum(inv_denom)
        sums[:3] += (np.sum(caps), np.sum(caps * caps), np.sum(best_num))
    return sums


def run_experiment(
    config: NetworkConfig, threads: int = 1, method: str = "auto"
) -> CapacityEstimate:
    """Monte-Carlo ergodic capacity with a Jensen-bound diagnostic.

    ``method="auto"`` draws each slot's scheduled maximum directly, one
    uniform per slot, for points without a power cap whose K is in the
    K <= 1000 that :meth:`~cogmac.analytic.RatioDistParams.isf` is certified
    for, and that have M <= 2, K = 0 or N*M >= 48.  Every other point (a
    power cap, K above that range, or M >= 3 at smaller N*M), and every
    point with ``method="brute"``, draws all N users of each slot.  A point of several
    chunks spreads them over ``threads`` workers; the result is the same for
    any ``threads``.  The estimate carries ``config`` and the call's wall
    seconds, chunk threads included.
    """
    threads = _integer(threads, "threads", 1)
    start = time.perf_counter()
    chunk = _layout(config, method)[1]
    n_chunks = (config.trials + chunk - 1) // chunk

    def work(c: int) -> np.ndarray:
        size = min(chunk, config.trials - c * chunk)
        return _chunk_sums(config, size, _chunk_rng(config, c), method)

    if threads == 1 or n_chunks == 1:
        results = [work(c) for c in range(n_chunks)]
    else:  # imported here, so a one-thread run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(n_chunks)))
    wall_s = time.perf_counter() - start

    # Chunk order keeps the sums bit-stable.
    t = config.trials
    cap_sum, capsq_sum, num_sum, inv_sum = sum(results, np.zeros(4)).tolist()
    mean = cap_sum / t
    var = max(0.0, (capsq_sum - t * mean * mean) / (t - 1))
    jensen = math.log1p((inv_sum / t) * (num_sum / t))
    return CapacityEstimate(config, mean, math.sqrt(var / t), jensen, wall_s)


def sweep(configs, threads: int = 1, progress=None,
          method: str = "auto") -> list[CapacityEstimate]:
    """Capacity estimates of ``configs``, in their order.

    The points run one after another, each through :func:`run_experiment`
    with ``threads`` and ``method``, so a point of several chunks spreads
    them over the threads.  Each estimate carries its point's config and
    wall seconds; ``progress`` is called with each estimate as it finishes.
    """
    estimates = []
    for cfg in configs:
        est = run_experiment(cfg, threads=threads, method=method)
        if progress is not None:
            progress(est)
        estimates.append(est)
    return estimates


def format_number(x: float) -> str:
    """Serialize with 17 significant digits (round-trip stable)."""
    return f"{x:.17g}"


SWEEP_CSV_COLUMNS = (
    "mode,N,M,K,gamma_s,gamma_sp,Qp,mean_capacity,stderr,trials,seed,jensen_bound"
)


def write_sweep_csv(
    estimates: list[CapacityEstimate],
    stream,
    extra_columns: dict | None = None,
) -> None:
    """Emit one CSV row per estimate, every column from that estimate and
    its own config.

    Capacity columns are in nats.  Extra columns (same length as the
    estimate list; None entries become empty fields) are appended verbatim
    after the stable base schema, so callers own their units.
    """
    extra = extra_columns or {}
    header = SWEEP_CSV_COLUMNS + ("," + ",".join(extra) if extra else "")
    stream.write(header + "\n")
    for idx, est in enumerate(estimates):
        cfg = est.config
        fields = [
            cfg.mode,
            str(cfg.n_users),
            str(cfg.m_patterns),
            format_number(cfg.k_factor),
            format_number(cfg.mean_secondary_power),
            format_number(cfg.mean_interference_power),
            format_number(cfg.peak_interference),
            format_number(est.mean_nats),
            format_number(est.stderr_nats),
            str(cfg.trials),
            str(cfg.seed),
            format_number(est.jensen_bound_nats),
        ]
        for name in extra:
            value = extra[name][idx]
            fields.append("" if value is None else format_number(value))
        stream.write(",".join(fields) + "\n")
