"""Named cross-validation checks: Monte-Carlo runs against the closed-form
distributions, normalizing constants, and capacity scaling laws.

Each check is registered under a stable identifier and returns a
:class:`CheckResult`.  The ``full`` level runs every check at its stated
sample count and tolerance; ``fast`` trims the Monte-Carlo trial counts
(with correspondingly widened capacity tolerances) so the whole suite
stays interactive.  Seeds are pinned so results are deterministic.
"""

from __future__ import annotations

import io
import math
import os
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
from .simulator import (
    NetworkConfig,
    growth_flatness,
    loglog_control_slope,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from .stats import EmpiricalDist, KsReport, ks_test, max_normalization_check

__all__ = ["CheckResult", "CHECK_IDS", "run_check", "run_all"]

K_GRID = (0.0, 0.5, 2.0, 10.0)
RHO_GRID = (0.5, 1.0, 4.0)
N_GROWTH_GRID = (16, 32, 64, 128, 256, 512)
_SEED = 7_1990


@dataclass
class CheckResult:
    check_id: str
    name: str
    passed: bool
    detail: str
    ks_rows: list = field(default_factory=list)  # (case, n, statistic, threshold, passed)

    def add_ks(self, case: str, report: KsReport) -> bool:
        self.ks_rows.append(
            (case, report.n, report.statistic, report.threshold_1pct, report.passed)
        )
        return report.passed


def _trials(level: str, full_trials: int = 100_000) -> int:
    return full_trials if level == "full" else 20_000


def _gains(rng, size, k_factor, m_patterns=1):
    """``size`` draws of one user's (gain_s, gain_sp) from the simulator's
    channel kernel, at unit mean powers."""
    cfg = NetworkConfig(n_users=1, m_patterns=m_patterns, k_factor=k_factor)
    g_s, g_sp = draw_gains(cfg, rng, size)
    return g_s[:, 0], g_sp[:, 0]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _capacity(n_users, k_factor, mode, m_patterns, trials, seed=_SEED):
    """Brute-force capacity estimate on every usable core; the result does
    not depend on the thread count.  Brute force keeps the closed-form ratio
    quantile out of the runs that the capacity checks compare with closed
    forms."""
    cfg = NetworkConfig(
        n_users=n_users,
        m_patterns=m_patterns,
        k_factor=k_factor,
        mode=mode,
        trials=trials,
        seed=seed,
    )
    return run_experiment(cfg, threads=_usable_cores(), method="brute")


def check_quantile_identity(level: str) -> CheckResult:
    """Exact quantile identity ratio_cdf(a_N) = 1 - 1/N over the full grid."""
    worst = 0.0
    for n in (2, 10, 100, 10_000):
        for k in K_GRID:
            for rho in RHO_GRID:
                p = RatioDistParams(k, rho)
                a = normalizer_a_n(n, p)
                worst = max(worst, abs(ratio_cdf(a, p) - (1.0 - 1.0 / n)))
    return CheckResult(
        check_id="quantile_identity",
        name="quantile identity F(a_N) = 1 - 1/N",
        passed=worst <= 1e-9,
        detail=f"max |F(a_N) - (1 - 1/N)| = {worst:.3e} (tol 1e-9)",
    )


def check_ratio_distribution_fit(level: str) -> CheckResult:
    """KS fit of simulated power ratios against the closed-form CDF."""
    result = CheckResult("ratio_distribution_fit", "ratio CDF vs Monte Carlo", True, "")
    rng = np.random.default_rng(_SEED + 2)
    worst = ""
    for k in (0.5, 2.0, 10.0):
        g_s, g_sp = _gains(rng, 10_000, k)
        z = g_s / g_sp
        p = RatioDistParams(k, 1.0)
        report = ks_test(EmpiricalDist.from_samples(z), lambda x: ratio_cdf(x, p))
        ok = result.add_ks(f"K={k}", report)
        result.passed &= ok
        worst += f" K={k}: D={report.statistic:.4f}/{report.threshold_1pct:.4f}"
    result.detail = "KS at 1%:" + worst
    return result


def check_frechet_normalization(level: str) -> CheckResult:
    """Normalized maxima of N=256 ratios against the unit Frechet law."""
    result = CheckResult("frechet_normalization", "max z / a_N vs exp(-1/x)", True, "")
    rng = np.random.default_rng(_SEED + 3)
    n_users, n_maxima = 256, 10_000
    details = []
    for k in (0.0, 2.0):
        p = RatioDistParams(k, 1.0)
        a_n = normalizer_a_n(n_users, p)
        maxima = np.empty(n_maxima)
        block = 2_000
        for start in range(0, n_maxima, block):
            rows = min(block, n_maxima - start)
            g_s, g_sp = _gains(rng, rows * n_users, k)
            maxima[start : start + rows] = (g_s / g_sp).reshape(rows, n_users).max(axis=1)
        report = max_normalization_check(maxima, a_n)
        ok = result.add_ks(f"K={k},N={n_users}", report)
        result.passed &= ok
        details.append(f"K={k}: D={report.statistic:.4f}/{report.threshold_1pct:.4f}")
    result.detail = "KS at 1%: " + "; ".join(details)
    return result


def check_effective_users_moderate(level: str) -> CheckResult:
    """Baseline capacity at (K=2, N=500) vs Rayleigh at the effective count."""
    trials = _trials(level)
    tol = 0.02 if level == "full" else 0.03
    n_eff = int(round(effective_users_moderate_k(500, 2.0)))
    est_k2 = _capacity(500, 2.0, "baseline", 1, trials)
    est_k0 = _capacity(n_eff, 0.0, "baseline", 1, trials)
    rel = abs(est_k2.mean_nats - est_k0.mean_nats) / est_k0.mean_nats
    return CheckResult(
        check_id="effective_users_moderate",
        name=f"baseline (K=2, N=500) = (K=0, N={n_eff})",
        passed=rel <= tol,
        detail=(
            f"C(K=2,N=500)={est_k2.mean_nats:.4f}, C(K=0,N={n_eff})={est_k0.mean_nats:.4f}, "
            f"rel diff {rel:.4f} (tol {tol}, trials {trials})"
        ),
    )


def check_large_k_growth(level: str) -> CheckResult:
    """Strong-LoS baseline grows loglog-like: normalizing by loglogN flattens
    the curve at least 5x compared with the unnormalized slope."""
    trials = _trials(level)
    caps = [_capacity(n, 10.0, "baseline", 1, trials).mean_nats for n in N_GROWTH_GRID]
    flat = abs(growth_flatness(N_GROWTH_GRID, caps, "loglogN"))
    raw = abs(growth_flatness(N_GROWTH_GRID, caps, "none"))
    return CheckResult(
        check_id="large_k_growth",
        name="baseline K=10 growth is loglog-like",
        passed=5.0 * flat <= raw,
        detail=(
            f"|slope|: loglogN-normalized {flat:.4f}, raw {raw:.4f}, "
            f"ratio {raw / flat if flat > 0 else math.inf:.1f} (need >= 5, trials {trials})"
        ),
    )


def check_rab_effective_users(level: str) -> CheckResult:
    """Two-pattern RAB boost: capacity matches Rayleigh with the boosted
    effective user count for K = 10 and K = 100."""
    trials = _trials(level)
    tol = 0.03 if level == "full" else 0.05
    details = []
    passed = True
    for k in (10.0, 100.0):
        n_eff = int(round(effective_users_rab_m2(200, k)))
        est_rab = _capacity(200, k, "rab", 2, trials)
        est_ref = _capacity(n_eff, 0.0, "baseline", 1, trials)
        rel = abs(est_rab.mean_nats - est_ref.mean_nats) / est_ref.mean_nats
        passed &= rel <= tol
        details.append(
            f"K={k:g}: C_rab(200)={est_rab.mean_nats:.4f} vs C_ray({n_eff})="
            f"{est_ref.mean_nats:.4f}, rel {rel:.4f}"
        )
    return CheckResult(
        check_id="rab_effective_users",
        name="RAB(M=2) effective-user boost",
        passed=passed,
        detail="; ".join(details) + f" (tol {tol}, trials {trials})",
    )


def check_rab_restores_log_growth(level: str) -> CheckResult:
    """RAB(M=2) at K=10 restores log N growth: the logN-normalized slope must
    be 5x below a scale-matched synthetic loglogN control's slope.

    The 5x margin is not reachable on this N grid: any capacity curve
    log N + b carries a normalized slope close to -b / log^2 N, and with
    b ~ 0.9 nats (extreme-value mean plus the boost constant) that sits
    about 3x, not 5x, below the control.  The supplementary ratio against
    the same data normalized by loglogN demonstrates the restoration and
    is reported alongside for diagnosis.
    """
    trials = _trials(level)
    caps = [_capacity(n, 10.0, "rab", 2, trials).mean_nats for n in N_GROWTH_GRID]
    data_slope = abs(growth_flatness(N_GROWTH_GRID, caps, "logN"))
    control = abs(loglog_control_slope(N_GROWTH_GRID, caps))
    alt_slope = abs(growth_flatness(N_GROWTH_GRID, caps, "loglogN"))
    alt_ratio = alt_slope / data_slope if data_slope > 0 else math.inf
    return CheckResult(
        check_id="rab_restores_log_growth",
        name="RAB(M=2) K=10 restores logN growth (5x control margin)",
        passed=5.0 * data_slope <= control,
        detail=(
            f"|slope| logN-normalized {data_slope:.4f} vs synthetic loglog control "
            f"{control:.4f} (need <= control/5 = {control / 5.0:.4f}); supplementary: "
            f"loglogN-normalized slope {alt_slope:.4f}, ratio {alt_ratio:.1f}x "
            f"(trials {trials})"
        ),
    )


def check_rab_distribution_facts(level: str) -> CheckResult:
    """Equivalent-channel distribution facts under RAB."""
    result = CheckResult("rab_distribution_facts", "RAB induced distributions", True, "")
    rng = np.random.default_rng(_SEED + 8)
    parts = []

    # (a) many patterns turn the Rician link Rayleigh.
    _, power = _gains(rng, 10_000, 10.0, m_patterns=16)
    report = ks_test(EmpiricalDist.from_samples(power), lambda x: 1.0 - np.exp(-np.asarray(x)))
    result.passed &= result.add_ks("M=16,K=10 vs Exp", report)
    parts.append(f"(a) M=16 KS D={report.statistic:.4f}/{report.threshold_1pct:.4f}")

    # (b) two patterns null the strong-LoS link most often: 10^6 slots per M,
    # drawn in blocks of 10^5 to bound the working set.
    freq = {}
    for m in (2, 4, 8):
        nulls = sum(int(np.count_nonzero(_gains(rng, 10**5, 1e6, m_patterns=m)[1] < 0.05))
                    for _ in range(10))
        freq[m] = nulls / 10**6
    ordering = freq[2] > freq[4] and freq[2] > freq[8]
    result.passed &= ordering
    parts.append(
        f"(b) null freq M=2 {freq[2]:.4f} > M=4 {freq[4]:.4f}, M=8 {freq[8]:.4f}"
    )

    # (c) the cosine sum follows the arcsine law with variance 1/2.
    y = np.cos(rng.uniform(0.0, 2.0 * math.pi, size=10**6))
    var = float(y.var())
    report_c = ks_test(EmpiricalDist.from_samples(y[:10_000]), arcsine_cdf)
    result.passed &= result.add_ks("cos-sum vs arcsine", report_c)
    var_ok = abs(var - 0.5) <= 0.005
    result.passed &= var_ok
    parts.append(f"(c) arcsine KS D={report_c.statistic:.4f}, var={var:.4f} (0.5 +- 0.005)")
    result.detail = "; ".join(parts)
    return result


def check_rab_m2_closed_form(level: str) -> CheckResult:
    """Mixed Bessel CDF of the two-pattern equivalent ratio + its tail form."""
    result = CheckResult("rab_m2_closed_form", "RAB M=2 equivalent-ratio CDF", True, "")
    rng = np.random.default_rng(_SEED + 9)
    p = RatioDistParams(10.0, 1.0)
    g_s, g_sp = _gains(rng, 10_000, 10.0, m_patterns=2)
    z = g_s / g_sp
    report = ks_test(EmpiricalDist.from_samples(z), lambda x: rab_m2_cdf(x, p))
    result.passed &= result.add_ks("z_eq M=2 K=10", report)
    exact = rab_m2_cdf(1e3, p)
    tail = rab_m2_tail_cdf(1e3, p)
    tail_rel = abs(exact - tail) / exact
    tail_ok = tail_rel <= 0.02
    result.passed &= tail_ok
    result.detail = (
        f"KS D={report.statistic:.4f}/{report.threshold_1pct:.4f}; tail form at z=1e3 "
        f"rel dev {tail_rel:.2e} (tol 2e-2)"
    )
    return result


def check_espar_identities(level: str) -> CheckResult:
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
    return CheckResult(
        check_id="espar_identities",
        name="ESPAR basis identities (M=1..4)",
        passed=ok,
        detail=(
            f"orthonormality {worst_ortho:.2e}, reconstruction {worst_recon:.2e}, "
            f"Parseval {worst_parseval:.2e} (tol 1e-8)"
        ),
    )


def check_special_functions(level: str) -> CheckResult:
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
    return CheckResult(
        check_id="special_functions",
        name="Lambert W / Bessel I0 accuracy",
        passed=ok,
        detail=f"W residual {worst_w:.2e} (tol 1e-12), I0 rel err {worst_i0:.2e} (tol 1e-10)",
    )


def check_determinism(level: str) -> CheckResult:
    """Identical seeds give byte-identical CSV for 1 and 4 worker threads.

    The points take brute force, like the capacity checks, so that the
    all-user draw stays under this check.  Each point is a single chunk, so
    no run here reaches a thread pool; ``tests/test_simulator.py`` covers
    thread invariance across chunks."""
    cfg = NetworkConfig(
        n_users=16, m_patterns=2, mode="rab", k_factor=2.0, trials=4_000, seed=_SEED
    )
    outputs = []
    for threads in (1, 4, 1):
        points = sweep(cfg, [8, 16], [0.0, 2.0], [2], ["baseline", "rab"], threads=threads,
                       method="brute")
        buf = io.StringIO()
        write_sweep_csv(points, cfg, buf)
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] == outputs[2]
    return CheckResult(
        check_id="determinism",
        name="byte-identical CSV across runs and thread counts",
        passed=ok,
        detail=f"3 runs (threads 1, 4, 1): {'identical' if ok else 'MISMATCH'}",
    )


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
    if check_id not in _CHECKS:
        raise KeyError(f"unknown check {check_id!r}; known: {CHECK_IDS}")
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return _CHECKS[check_id](level)


def run_all(level: str = "full", report=None) -> list[CheckResult]:
    """Run every check; ``report`` is called with each result as it lands."""
    results = []
    for check_id in CHECK_IDS:
        result = run_check(check_id, level)
        results.append(result)
        if report is not None:
            report(result)
    return results
