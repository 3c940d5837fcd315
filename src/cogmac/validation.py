"""Cross-validation checks: Monte-Carlo runs against the closed-form
distributions, normalizing constants, and capacity scaling laws.

Each check is registered under a stable identifier, and :func:`run_check`
builds its :class:`CheckResult`.  The ``full`` level runs every check at
its stated sample count and tolerance; ``fast`` trims
the Monte-Carlo trial counts (with correspondingly widened capacity
tolerances) so the whole suite stays interactive.  Seeds are pinned so results are deterministic.

Methods: no check compares a closed form with itself.  The capacity checks
(c04, c06) draw every user at the K > 0 point that carries the law under
test, and take the exact order-statistic sampler at the Rayleigh (K = 0)
reference, a law neither check tests; c06's two references share
``_SEED``'s uniforms.  The growth checks (c05, c07) take the sampler at
every point, and the determinism check (c12) draws every user.

Threading: a check is the unit of parallel work.  :func:`run_all` runs
the checks concurrently on every usable core, each alone on a pool
thread, and a check's capacity points run on that check's own thread.
Every check seeds its own generators and shares no mutable state with
another, so each result is the same on one core as on many.  A check
that raises ends the run: its error propagates once every check listed
before it has reported, and the checks not started by then are cancelled.
"""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import espar
from .analytic import (
    RatioDistParams,
    bessel_i0e,
    effective_users_moderate_k,
    effective_users_rab_m2,
    normalizer_a_n,
    rab_m2_cdf,
    rab_m2_tail_cdf,
    ratio_cdf,
    wright_omega,
)
from .channels import draw_gains
from .rab import arcsine_cdf
from .simulator import NetworkConfig, _block_slots, run_experiment, sweep, write_sweep_csv
from .stats import EmpiricalDist, KsReport, ks_test

__all__ = ["CheckResult", "CHECK_IDS", "run_check", "run_all"]

K_GRID = (0.0, 0.5, 2.0, 10.0)
RHO_GRID = (0.5, 1.0, 4.0)
N_GROWTH_GRID = (16, 32, 64, 128, 256, 512)
_SEED = 7_1990


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    ks_rows: list = field(default_factory=list)  # (case, n, statistic, threshold, passed)


def _trials(level: str) -> int:
    return 100_000 if level == "full" else 20_000


def _gain_blocks(reduce, rng, slots, k_factor, m_patterns=1, n_users=1):
    """``reduce(gain_s, gain_sp)`` of each block of (rows, n_users) draws from
    the channel kernel at unit mean powers: ``slots`` slots in blocks of
    ``_block_slots(N M)``, each reduced before the next is drawn."""
    cfg = NetworkConfig(n_users=n_users, m_patterns=m_patterns, k_factor=k_factor)
    rows = _block_slots(n_users * m_patterns)
    return [reduce(*draw_gains(cfg, rng, min(rows, slots - s))) for s in range(0, slots, rows)]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _point(n_users, k_factor, mode, m_patterns, level) -> NetworkConfig:
    """A capacity check's point, at the level's trial count and ``_SEED``."""
    return NetworkConfig(
        n_users=n_users,
        m_patterns=m_patterns,
        k_factor=k_factor,
        mode=mode,
        trials=_trials(level),
        seed=_SEED,
    )


def _capacity(n_users, k_factor, mode, m_patterns, level) -> float:
    """Mean capacity (nats) at the level's trial count, on the calling
    check's thread (:func:`run_all` spreads the checks over the cores).

    A K > 0 point carries the law under test (the K = 2 law in c04, the
    M = 2 Bessel law in c06) and draws every user, so the closed-form ratio
    quantile stays out of it.  A K = 0 point is a check's Rayleigh
    reference, a law neither check tests, and takes the default method: the
    exact K = 0 order statistic, one uniform per slot, at the same trials and
    seed.  Every reference reads ``_SEED``'s uniforms, so c06's two share
    them."""
    cfg = _point(n_users, k_factor, mode, m_patterns, level)
    method = "brute" if k_factor > 0.0 else "auto"
    return run_experiment(cfg, threads=1, method=method).mean_nats


def _rayleigh_capacity(n_users) -> float:
    """Exact mean capacity (nats) of N Rayleigh (K = 0) users at unit mean
    powers, Q_p = 1 and primary power off, as the capacity checks' Rayleigh
    references are: the harmonic number H_N = sum_{k <= N} 1/k, from
    int_0^inf (1 - (t/(1+t))^N)/(1+t) dt with u = t/(1+t).  Printed beside
    each reference; no verdict reads it."""
    return math.fsum(1.0 / k for k in range(1, n_users + 1))


def _growth_capacities(k_factor, mode, m_patterns, level) -> np.ndarray:
    """Mean capacities (nats) over ``N_GROWTH_GRID`` at the default method,
    one :func:`sweep` point per N on the calling check's thread.  Each point
    takes the order-statistic sampler, one uniform per slot, an exact
    identity that tests/test_simulator.py::TestQuantileSampler certifies
    against brute force; the growth checks compare no closed form with it.
    Every point reads ``_SEED``'s stream, so the curve keeps common random
    numbers."""
    estimates = sweep([_point(n, k_factor, mode, m_patterns, level) for n in N_GROWTH_GRID])
    return np.array([e.mean_nats for e in estimates])


def _log_n_slope(n_grid, values) -> float:
    """Least-squares slope of ``values`` against log N over the upper half
    of ``n_grid``; near zero when ``values`` are flat in N there."""
    half = len(n_grid) // 2
    x = np.log(n_grid[half:])
    x = x - x.mean()
    y = np.asarray(values[half:], dtype=float)
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


# Each check takes the level and a KS recorder ``ks(case, report)`` and
# returns (verdict, detail).  The recorder keeps ``report`` as the KS row
# ``case`` and returns its "D=statistic/threshold" text; run_check folds
# every recorded row's verdict into the check's.

def check_quantile_identity(level: str, ks) -> tuple[bool, str]:
    """Exact quantile identity ratio_cdf(a_N) = 1 - 1/N over the full grid."""
    worst = 0.0
    for n in (2, 10, 100, 10_000):
        for k in K_GRID:
            for rho in RHO_GRID:
                p = RatioDistParams(k, rho)
                a = normalizer_a_n(n, p)
                worst = max(worst, abs(ratio_cdf(a, p) - (1.0 - 1.0 / n)))
    return worst <= 1e-9, f"max |F(a_N) - (1 - 1/N)| = {worst:.3e} (tol 1e-9)"


def check_ratio_distribution_fit(level: str, ks) -> tuple[bool, str]:
    """KS fit of simulated power ratios against the closed-form CDF."""
    rng = np.random.default_rng(_SEED + 2)
    worst = ""
    for k in (0.5, 2.0, 10.0):
        [z] = _gain_blocks(np.divide, rng, 10_000, k)  # one block: 10^4 <= _block_slots(1)
        p = RatioDistParams(k, 1.0)
        report = ks_test(EmpiricalDist.from_samples(z), lambda x: ratio_cdf(x, p))
        worst += f" K={k}: " + ks(f"K={k}", report)
    return True, "KS at 1%:" + worst


def check_frechet_normalization(level: str, ks) -> tuple[bool, str]:
    """Normalized maxima of N=256 ratios against the unit Frechet law."""
    rng = np.random.default_rng(_SEED + 3)
    n_users, n_maxima = 256, 10_000
    details = []
    for k in (0.0, 2.0):
        p = RatioDistParams(k, 1.0)
        a_n = normalizer_a_n(n_users, p)
        maxima = np.concatenate(_gain_blocks(
            lambda g_s, g_sp: np.divide(g_s, g_sp, out=g_s).max(axis=1),
            rng, n_maxima, k, n_users=n_users))
        report = ks_test(EmpiricalDist.from_samples(maxima / a_n), lambda x: np.exp(-1.0 / x))
        details.append(f"K={k}: " + ks(f"K={k},N={n_users}", report))
    return True, "KS at 1%: " + "; ".join(details)


# Rayleigh user count equivalent to N=500 baseline users at K=2; the detail
# of the check below shows it.
_N_EFF_MODERATE = int(round(effective_users_moderate_k(500, 2.0)))


def check_effective_users_moderate(level: str, ks) -> tuple[bool, str]:
    """Baseline capacity at (K=2, N=500) vs Rayleigh at the effective count."""
    tol = 0.02 if level == "full" else 0.03
    c_k2 = _capacity(500, 2.0, "baseline", 1, level)
    c_k0 = _capacity(_N_EFF_MODERATE, 0.0, "baseline", 1, level)
    rel = abs(c_k2 - c_k0) / c_k0
    return rel <= tol, (
        f"C(K=2,N=500)={c_k2:.4f}, C(K=0,N={_N_EFF_MODERATE})={c_k0:.4f} "
        f"(H_N {_rayleigh_capacity(_N_EFF_MODERATE):.4f}), "
        f"rel diff {rel:.4f} (tol {tol}, trials {_trials(level)})"
    )


def check_large_k_growth(level: str, ks) -> tuple[bool, str]:
    """Strong-LoS baseline grows loglog-like: normalizing by loglogN flattens
    the curve at least 5x compared with the unnormalized slope.  The curve's
    six points take the order-statistic sampler, certified against brute
    force by tests/test_simulator.py::TestQuantileSampler
    (:func:`_growth_capacities`)."""
    caps = _growth_capacities(10.0, "baseline", 1, level)
    flat = abs(_log_n_slope(N_GROWTH_GRID, caps / np.log(np.log(N_GROWTH_GRID))))
    raw = abs(_log_n_slope(N_GROWTH_GRID, caps))
    return 5.0 * flat <= raw, (
        f"|slope|: loglogN-normalized {flat:.4f}, raw {raw:.4f}, "
        f"ratio {raw / flat if flat > 0 else math.inf:.1f} "
        f"(need >= 5, trials {_trials(level)})"
    )


def check_rab_effective_users(level: str, ks) -> tuple[bool, str]:
    """Two-pattern RAB boost: capacity matches Rayleigh with the boosted
    effective user count for K = 10 and K = 100."""
    tol = 0.03 if level == "full" else 0.05
    details = []
    rels = []
    for k in (10.0, 100.0):
        n_eff = int(round(effective_users_rab_m2(200, k)))
        c_rab = _capacity(200, k, "rab", 2, level)
        c_ref = _capacity(n_eff, 0.0, "baseline", 1, level)
        rel = abs(c_rab - c_ref) / c_ref
        rels.append(rel)
        details.append(
            f"K={k:g}: C_rab(200)={c_rab:.4f} vs C_ray({n_eff})={c_ref:.4f} "
            f"(H_N {_rayleigh_capacity(n_eff):.4f}), rel {rel:.4f}"
        )
    return all(rel <= tol for rel in rels), (
        "; ".join(details) + f" (tol {tol}, trials {_trials(level)})"
    )


def check_rab_restores_log_growth(level: str, ks) -> tuple[bool, str]:
    """RAB(M=2) at K=10 restores log N growth: the logN-normalized slope must
    be 5x below a scale-matched synthetic loglogN control's slope.

    The 5x margin is not reachable on this N grid: any capacity curve
    log N + b carries a normalized slope close to -b / log^2 N, and with
    b ~ 0.9 nats (extreme-value mean plus the boost constant) that sits
    about 3x, not 5x, below the control.  The supplementary ratio against
    the same data normalized by loglogN demonstrates the restoration and
    is reported alongside for diagnosis.  As in :func:`check_large_k_growth`,
    the six points take the order-statistic sampler, certified against brute
    force by tests/test_simulator.py::TestQuantileSampler.
    """
    caps = _growth_capacities(10.0, "rab", 2, level)
    log_n = np.log(N_GROWTH_GRID)
    ll = np.log(log_n)
    data_slope = abs(_log_n_slope(N_GROWTH_GRID, caps / log_n))
    # The control: c log(log N), c fitted to the data by least squares.
    c = float(np.dot(caps, ll) / np.dot(ll, ll))
    control = abs(_log_n_slope(N_GROWTH_GRID, (c * ll) / log_n))
    alt_slope = abs(_log_n_slope(N_GROWTH_GRID, caps / ll))
    alt_ratio = alt_slope / data_slope if data_slope > 0 else math.inf
    return 5.0 * data_slope <= control, (
        f"|slope| logN-normalized {data_slope:.4f} vs synthetic loglog control "
        f"{control:.4f} (need <= control/5 = {control / 5.0:.4f}); supplementary: "
        f"loglogN-normalized slope {alt_slope:.4f}, ratio {alt_ratio:.1f}x "
        f"(trials {_trials(level)})"
    )


def check_rab_distribution_facts(level: str, ks) -> tuple[bool, str]:
    """Equivalent-channel distribution facts under RAB."""
    rng = np.random.default_rng(_SEED + 8)
    parts = []

    # (a) many patterns turn the Rician link Rayleigh.  One draw of 10^4
    # slots, not blocks of _block_slots(16), keeps this row's stream; no name
    # holds its buffer after the test.
    cfg = NetworkConfig(n_users=1, m_patterns=16, k_factor=10.0)
    report = ks_test(EmpiricalDist.from_samples(draw_gains(cfg, rng, 10_000)[1]),
                     lambda x: 1.0 - np.exp(-np.asarray(x)))
    parts.append("(a) M=16 KS " + ks("M=16,K=10 vs Exp", report))

    # (b) two patterns null the strong-LoS link most often: 10^6 slots per M.
    freq = {}
    for m in (2, 4, 8):
        nulls = sum(_gain_blocks(lambda _, g_sp: int(np.count_nonzero(g_sp < 0.05)),
                                 rng, 10**6, 1e6, m_patterns=m))
        freq[m] = nulls / 10**6
    ordering = freq[2] > freq[4] and freq[2] > freq[8]
    parts.append(f"(b) null freq M=2 {freq[2]:.4f} > M=4 {freq[4]:.4f}, M=8 {freq[8]:.4f}")

    # (c) the cosine sum follows the arcsine law with variance 1/2.  One raw
    # draw per uniform: the blocks equal one draw of 10^6; KS on the first 10^4.
    # As |cos| <= 1, the variance from running sums loses no digit that counts.
    n_cos, rows = 10**6, _block_slots(1)
    total = total_sq = 0.0
    for start in range(0, n_cos, rows):
        y = np.cos(rng.uniform(0.0, 2.0 * math.pi, size=min(rows, n_cos - start)))
        if start == 0:
            report_c = ks_test(EmpiricalDist.from_samples(y[:10_000]), arcsine_cdf)
        total += float(y.sum())
        total_sq += float(np.square(y, out=y).sum())  # not y @ y: BLAS threads
    ks("cos-sum vs arcsine", report_c)
    var = total_sq / n_cos - (total / n_cos) ** 2
    var_ok = abs(var - 0.5) <= 0.005
    parts.append(f"(c) arcsine KS D={report_c.statistic:.4f}, var={var:.4f} (0.5 +- 0.005)")
    return ordering and var_ok, "; ".join(parts)


def check_rab_m2_closed_form(level: str, ks) -> tuple[bool, str]:
    """Mixed Bessel CDF of the two-pattern equivalent ratio + its tail form."""
    rng = np.random.default_rng(_SEED + 9)
    p = RatioDistParams(10.0, 1.0, 2)
    [z] = _gain_blocks(np.divide, rng, 10_000, 10.0, m_patterns=2)  # 10^4 <= _block_slots(2)
    report = ks_test(EmpiricalDist.from_samples(z), lambda x: rab_m2_cdf(x, p))
    fit = ks("z_eq M=2 K=10", report)
    exact = rab_m2_cdf(1e3, p)
    tail = rab_m2_tail_cdf(1e3, p)
    tail_rel = abs(exact - tail) / exact
    return tail_rel <= 0.02, f"KS {fit}; tail form at z=1e3 rel dev {tail_rel:.2e} (tol 2e-2)"


def check_espar_identities(level: str, ks) -> tuple[bool, str]:
    """Beamspace identities: orthonormality, reconstruction, Parseval."""
    rng = np.random.default_rng(_SEED + 10)
    worst_ortho = worst_recon = worst_parseval = 0.0
    for m in (1, 2, 3, 4):
        cfg = espar.EsparConfig(m_elements=m)
        basis = espar.build_basis(cfg, 256)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(basis.gram() - np.eye(m)))))
        a = espar.steering_vector(cfg, basis.theta_grid)
        recon = basis.projections @ basis.basis_values
        worst_recon = max(worst_recon, float(np.max(np.abs(a - recon))))
        currents = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w = espar.pattern_weights(currents, basis)
        pattern = espar.pattern_value(currents, cfg, basis.theta_grid)
        norm_sq = basis.inner(pattern, pattern).real
        worst_parseval = max(worst_parseval, abs(float(np.sum(np.abs(w) ** 2)) - norm_sq))
    ok = worst_ortho <= 1e-8 and worst_recon <= 1e-8 and worst_parseval <= 1e-8
    return ok, (
        f"orthonormality {worst_ortho:.2e}, reconstruction {worst_recon:.2e}, "
        f"Parseval {worst_parseval:.2e} (tol 1e-8)"
    )


def check_special_functions(level: str, ks) -> tuple[bool, str]:
    """Lambert W residual of W(x) = wright_omega(log x), and the scaled Bessel I0
    against an independent series oracle."""
    xs = np.logspace(-8, 6, 200)
    w = wright_omega(np.log(xs))
    worst_w = float(np.max(np.abs(w * np.exp(w) - xs) / np.maximum(1.0, xs)))

    def series(x):
        q, term, acc, m = 0.25 * x * x, 1.0, 1.0, 0
        while True:
            m += 1
            term *= q / (m * m)
            acc += term
            if term < 1e-18 * acc:
                return acc

    xs_i0 = np.linspace(0.0, 30.0, 301)
    oracle = np.array([series(x) * math.exp(-x) for x in xs_i0.tolist()])
    worst_i0 = float(np.max(np.abs(bessel_i0e(xs_i0) - oracle) / oracle))
    ok = worst_w <= 1e-12 and worst_i0 <= 1e-10
    return ok, f"W residual {worst_w:.2e} (tol 1e-12), I0 rel err {worst_i0:.2e} (tol 1e-10)"


def check_determinism(level: str, ks) -> tuple[bool, str]:
    """Identical seeds give byte-identical CSV over three runs, asked for
    with 1, 4 and 1 worker threads.

    Each point is a single chunk, so no run reaches a thread pool and the
    thread count cannot matter: this checks run-to-run determinism only;
    ``tests/test_simulator.py`` covers thread invariance across chunks.
    The points take brute force, like the capacity checks, so that the
    all-user draw stays under this check."""
    configs = [NetworkConfig(n_users=n, m_patterns=m, mode=mode, k_factor=k, trials=4_000,
                             seed=_SEED)
               for mode, m in (("baseline", 1), ("rab", 2)) for k in (0.0, 2.0) for n in (8, 16)]
    outputs = []
    for threads in (1, 4, 1):
        estimates = sweep(configs, threads=threads, method="brute")
        buf = io.StringIO()
        write_sweep_csv(estimates, buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] == outputs[2]
    return ok, (f"3 runs, threads 1, 4, 1, one chunk per point so no run reaches a pool: "
                f"{'identical' if ok else 'MISMATCH'}")


# Check id -> check function, in run order.
_CHECKS = {
    "quantile_identity": check_quantile_identity,
    "ratio_distribution_fit": check_ratio_distribution_fit,
    "frechet_normalization": check_frechet_normalization,
    "effective_users_moderate": check_effective_users_moderate,
    "large_k_growth": check_large_k_growth,
    "rab_effective_users": check_rab_effective_users,
    "rab_restores_log_growth": check_rab_restores_log_growth,
    "rab_distribution_facts": check_rab_distribution_facts,
    "rab_m2_closed_form": check_rab_m2_closed_form,
    "espar_identities": check_espar_identities,
    "special_functions": check_special_functions,
    "determinism": check_determinism,
}

CHECK_IDS = tuple(_CHECKS)

def run_check(check_id: str, level: str = "full") -> CheckResult:
    """Run one check; it passes iff its own verdict and every KS row it
    recorded pass."""
    if check_id not in _CHECKS:
        raise KeyError(f"unknown check {check_id!r}; known: {CHECK_IDS}")
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    rows = []

    def ks(case: str, report: KsReport) -> str:
        rows.append((case, report.n, report.statistic, report.threshold_1pct, report.passed))
        return f"D={report.statistic:.4f}/{report.threshold_1pct:.4f}"

    verdict, detail = _CHECKS[check_id](level, ks)
    return CheckResult(check_id, verdict and all(row[-1] for row in rows), detail, rows)


def run_all(level: str = "full", report=None) -> list[CheckResult]:
    """Run every check, concurrently on every usable core, each alone on a
    pool thread, started in ``CHECK_IDS`` order; return the results in that
    order.

    ``report`` is called with each result in ``CHECK_IDS`` order, as soon
    as it and every earlier check have finished, so its calls are the same
    for any core count.  If a check raises, its error propagates once every
    check listed before it has reported, as does an error of ``report``;
    checks not started by then, or at Ctrl-C, are cancelled.
    """
    results = []
    with ThreadPoolExecutor(max_workers=_usable_cores()) as pool:
        futures = [pool.submit(run_check, check_id, level) for check_id in CHECK_IDS]
        try:
            for future in futures:
                results.append(future.result())
                if report is not None:
                    report(results[-1])
        finally:
            pool.shutdown(cancel_futures=True)
    return results
