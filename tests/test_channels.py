"""Channel-kernel tests: draw_gains against the full-dimensional model
(two-sample KS), moment calibration, distribution fits, independence, and
stream determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import ks_2samp

from cogmac import simulator
from cogmac.channels import draw_gains
from cogmac.simulator import NetworkConfig
from cogmac.stats import EmpiricalDist, ks_test


def full_model_gains(config, rng, size, los_phases=None):
    """Oracle: the full N x M channel model whose powers draw_gains samples.

    Per-pattern CN(0, gamma_s) secondary gains; Rician interference with
    per-(user, pattern) LoS phases frozen over all slots (drawn uniformly
    unless ``los_phases`` gives them); M weights e^{j theta} / sqrt(M) with
    fresh phases every slot.  Returns (gain_s, gain_sp), each of shape
    (size, n_users).
    """
    n, m, k = config.n_users, config.m_patterns, config.k_factor

    def cn(power):
        parts = rng.standard_normal((2, size, n, m))
        return math.sqrt(power / 2.0) * (parts[0] + 1j * parts[1])

    if los_phases is None:
        los_phases = rng.uniform(0.0, 2.0 * math.pi, size=(n, m))
    h_s = cn(config.mean_secondary_power)
    los = math.sqrt(k * config.mean_interference_power / (k + 1.0)) * np.exp(1j * los_phases)
    h_sp = los + cn(config.mean_interference_power / (k + 1.0))
    w = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(size, n, m))) / math.sqrt(m)
    return np.abs((w * h_s).sum(axis=2)) ** 2, np.abs((w * h_sp).sum(axis=2)) ** 2


def rician_power_cdf_oracle(k, mean_power, grid_max, grid_size=20000):
    """Quadrature oracle: cumulative trapezoid of the noncentral power pdf."""
    g = np.linspace(0.0, grid_max, grid_size)
    arg = 2.0 * np.sqrt(k * (1.0 + k) * g / mean_power)
    # Scaled Bessel keeps the product finite for large arguments.
    pdf = (
        (1.0 + k)
        / mean_power
        * np.exp(-k - (1.0 + k) * g / mean_power + arg)
        * special.i0e(arg)
    )
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(g))])
    return lambda x: np.interp(x, g, cdf)


def gains(size, seed, **kw):
    base = dict(n_users=1, m_patterns=1)
    base.update(kw)
    return draw_gains(NetworkConfig(**base), np.random.default_rng(seed), size)


KS_K = (0.0, 2.0, 10.0, 100.0)
KS_M = (1, 2, 4, 16)
# Three comparisons per (K, M) case; 1% is the level of the whole family
# (Bonferroni), since 48 comparisons each at 1% would fail by chance alone
# about four times in ten.
KS_ALPHA = 0.01 / (3 * len(KS_K) * len(KS_M))


@pytest.mark.parametrize("m", KS_M)
@pytest.mark.parametrize("k", KS_K)
def test_two_sample_ks_against_full_model(k, m):
    cfg = NetworkConfig(n_users=4, m_patterns=m, k_factor=k, mean_secondary_power=2.5,
                        mean_interference_power=0.4)
    seed = 1000 * m + int(k)
    kernel = draw_gains(cfg, np.random.default_rng(seed), 20_000)
    oracle = full_model_gains(cfg, np.random.default_rng(10**6 + seed), 20_000)
    for name, stat in [
        ("gain_s", lambda g: g[0].ravel()),
        ("gain_sp", lambda g: g[1].ravel()),
        ("per-slot max gain_s/gain_sp", lambda g: (g[0] / g[1]).max(axis=1)),
    ]:
        p = ks_2samp(stat(kernel), stat(oracle)).pvalue
        assert p >= KS_ALPHA, f"{name}: two-sample KS p = {p:.2e}"


@pytest.mark.parametrize("m", [1, 4])
def test_k_zero_brute_force_maxima_against_full_model(m):
    # K = 0 draws two exponentials per user and no phases: the per-slot
    # maximum over N = 64 users must still follow the full model's.
    cfg = NetworkConfig(n_users=64, m_patterns=m, k_factor=0.0, mean_secondary_power=2.5,
                        mean_interference_power=0.4, mode="baseline" if m == 1 else "rab")
    kernel = simulator._brute_block(cfg, 4000, np.random.default_rng(500 + m))
    rng = np.random.default_rng(600 + m)
    oracle = []
    for _ in range(4):  # 1000 slots at a time keeps the N x M arrays small
        g_s, g_sp = full_model_gains(cfg, rng, 1000)
        oracle.append((g_s / g_sp).max(axis=1))
    # 0.5% per case: 1% for the pair.
    p = ks_2samp(kernel, np.concatenate(oracle)).pvalue
    assert p >= 0.005, f"two-sample KS p = {p:.2e}"


K_MAXIMA_CASES = [(k, m) for k in (2.0, 10.0) for m in (1, 2, 3)]


@pytest.mark.parametrize("k,m", K_MAXIMA_CASES)
def test_k_positive_brute_force_maxima_against_full_model(k, m):
    # The per-slot maximum over N = 64 users of gain_s/gain_sp probes the
    # small-gain_sp tail of the polar scattering, where a slip shows first.
    cfg = NetworkConfig(n_users=64, m_patterns=m, k_factor=k, mean_secondary_power=2.5,
                        mean_interference_power=0.4, mode="baseline" if m == 1 else "rab")
    seed = 700 + 10 * m + int(k)
    kernel = simulator._brute_block(cfg, 4000, np.random.default_rng(seed))
    rng = np.random.default_rng(10**6 + seed)
    oracle = []
    for _ in range(4):  # 1000 slots at a time keeps the N x M arrays small
        g_s, g_sp = full_model_gains(cfg, rng, 1000)
        oracle.append((g_s / g_sp).max(axis=1))
    # 1% for the family of six cases (Bonferroni).
    p = ks_2samp(kernel, np.concatenate(oracle)).pvalue
    assert p >= 0.01 / len(K_MAXIMA_CASES), f"two-sample KS p = {p:.2e}"


class ScriptedDraws:
    """Stands in for a Generator: each exponential or uniform draw gives
    the next of its scripted values, shaped as asked."""

    def __init__(self, exponentials, uniforms):
        self._exponentials, self._uniforms = iter(exponentials), iter(uniforms)

    def standard_exponential(self, *, out):
        out[...] = np.reshape(next(self._exponentials), out.shape)
        return out

    def random(self, *, out):
        out[...] = np.reshape(next(self._uniforms), out.shape)
        return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(k=st.floats(0.0, 1e6), m=st.integers(1, 16), data=st.data())
def test_interference_power_is_finite_and_nonnegative(k, m, data):
    # Two users with the same weight phases.  The first has its scattering
    # radius and angle as drawn; the second has the radius on the LoS
    # magnitude and the angle against it, the null where an expanded
    # L^2 + r^2 + 2 L r cos(phi) rounds below zero.
    cfg = NetworkConfig(n_users=2, m_patterns=m, k_factor=k,
                        mode="baseline" if m == 1 else "rab")
    unit = st.floats(0.0, 1.0, exclude_max=True)
    phases = np.array(data.draw(st.lists(unit, min_size=m - 1, max_size=m - 1)))
    null = k * abs(1.0 + np.exp(2j * math.pi * phases).sum()) ** 2 / m
    exponentials = [[1.0, 1.0], [data.draw(st.floats(0.0, 50.0)), null]]
    uniforms = [[u, u] for u in phases] + [[data.draw(unit), 0.5]]
    _, gain_sp = draw_gains(cfg, ScriptedDraws(exponentials, uniforms), 1)
    assert np.isfinite(gain_sp).all() and (gain_sp >= 0.0).all(), gain_sp


@pytest.mark.parametrize("m", [1, 2, 4])
def test_k_zero_draws_two_exponentials(m):
    cfg = NetworkConfig(n_users=3, m_patterns=m, k_factor=0.0, mean_secondary_power=2.5,
                        mean_interference_power=0.4)
    rng = np.random.default_rng(77)
    g_s, g_sp = draw_gains(cfg, rng, 50)
    replay = np.random.default_rng(77)
    assert np.array_equal(g_s, 2.5 * replay.standard_exponential((50, 3)))
    assert np.array_equal(g_sp, 0.4 * replay.standard_exponential((50, 3)))
    assert rng.bit_generator.state == replay.bit_generator.state


class TestRayleigh:
    def test_mean_power_calibration(self):
        for mean_power, m in [(0.25, 1), (1.0, 2), (4.0, 4)]:
            g_s, _ = gains(10**6, 101, m_patterns=m, mean_secondary_power=mean_power)
            se = g_s.std() / math.sqrt(g_s.size)
            assert abs(g_s.mean() - mean_power) < 3.0 * se

    def test_power_is_exponential(self):
        # Unit-norm weights keep the secondary sum CN(0, gamma_s) for every M.
        for m in (1, 2, 3, 8):
            g_s, _ = gains(10**4, 103 + m, m_patterns=m, k_factor=5.0, mean_secondary_power=2.0)
            report = ks_test(
                EmpiricalDist.from_samples(g_s[:, 0]),
                lambda x: 1.0 - np.exp(-np.asarray(x) / 2.0),
            )
            assert report.passed, f"M={m}: D={report.statistic:.4f}"


class TestRician:
    def test_k_zero_reduces_to_rayleigh(self):
        for m in (1, 4):
            _, g_sp = gains(10**4, 104 + m, m_patterns=m, k_factor=0.0)
            report = ks_test(EmpiricalDist.from_samples(g_sp[:, 0]), lambda x: 1.0 - np.exp(-x))
            assert report.passed

    def test_pure_los_limit(self):
        _, g_sp = gains(100, 105, k_factor=1e9, mean_interference_power=3.0)
        assert np.max(np.abs(g_sp - 3.0)) < 1e-3

    def test_mean_and_power(self):
        for k, mean_power, m in [(0.5, 1.0, 1), (2.0, 0.25, 2), (10.0, 4.0, 3), (100.0, 2.0, 16)]:
            _, g_sp = gains(10**6, 106 + m, m_patterns=m, k_factor=k,
                            mean_interference_power=mean_power)
            se = g_sp.std() / math.sqrt(g_sp.size)
            assert abs(g_sp.mean() - mean_power) < 3.0 * se

    @pytest.mark.parametrize("k", [0.5, 2.0, 10.0])
    def test_power_pdf_matches_noncentral_form(self, k):
        _, g_sp = gains(10**5, int(107 + 10 * k), k_factor=k)
        power = g_sp[:, 0]
        oracle = rician_power_cdf_oracle(k, 1.0, grid_max=float(power.max()) * 1.05)
        assert ks_test(EmpiricalDist.from_samples(power), oracle).passed


class TestDrawSlot:
    """draw_gains: one row of equivalent powers per slot."""

    def test_degenerate_dimensions(self):
        cfg = NetworkConfig(n_users=1, m_patterns=1, mode="baseline")
        g_s, g_sp = draw_gains(cfg, np.random.default_rng(1), 1)
        assert g_s.shape == g_sp.shape == (1, 1)
        g_s, g_sp = draw_gains(NetworkConfig(n_users=5, m_patterns=3), np.random.default_rng(1), 7)
        assert g_s.shape == g_sp.shape == (7, 5)

    def test_seed_determinism(self):
        cfg = NetworkConfig(n_users=4, m_patterns=2, k_factor=3.0)
        a = draw_gains(cfg, np.random.default_rng(cfg.seed), 50)
        b = draw_gains(cfg, np.random.default_rng(cfg.seed), 50)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_cross_user_independence(self):
        cfg = NetworkConfig(n_users=2, m_patterns=2, k_factor=2.0)
        g_s, g_sp = draw_gains(cfg, np.random.default_rng(9), 30_000)
        bound = 3.0 / math.sqrt(g_s.shape[0])
        columns = [g_s[:, 0], g_s[:, 1], g_sp[:, 0], g_sp[:, 1]]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.corrcoef(columns[i], columns[j])[0, 1]) < bound

    def test_interference_uses_frozen_phases(self):
        # The frozen LoS phases add to the uniform weight phases, so they drop
        # out of gain_sp: whatever they are, the full model matches draw_gains.
        cfg = NetworkConfig(n_users=2, m_patterns=2, k_factor=10.0, mean_interference_power=0.4)
        kernel = draw_gains(cfg, np.random.default_rng(31), 20_000)[1].ravel()
        phase_sets = [(32, np.zeros((2, 2))), (34, np.array([[0.0, math.pi], [1.0, 2.5]]))]
        for seed, phases in phase_sets:
            oracle = full_model_gains(cfg, np.random.default_rng(seed), 20_000, phases)[1].ravel()
            assert ks_2samp(kernel, oracle).pvalue >= 0.01


@pytest.mark.parametrize("m,k", [(m, 5.0) for m in (2, 3, 4, 8, 16)]
                         + [(m, 1e6) for m in (2, 4, 8)])
def test_rab_magnitude_matches_complex_combination(m, k):
    # Replays draw_gains' stream: the real-valued polar form must equal the
    # complex formula |a |1 + sum e^{j theta}| / sqrt(M) + r e^{j 2 pi U}|^2
    # at the same phases, radius and angle.  K = 1e6 with M in {2, 4, 8} are
    # the strong-LoS cases of the null-frequency check.
    cfg = NetworkConfig(n_users=3, m_patterns=m, k_factor=k)
    size = 400
    _, gain_sp = draw_gains(cfg, np.random.default_rng(9), size)
    rng = np.random.default_rng(9)
    rng.standard_exponential((size, 3))
    theta = 2.0 * math.pi * rng.random((m - 1, size, 3))
    r = np.sqrt(rng.standard_exponential((size, 3)) / (k + 1.0))
    phi = 2.0 * math.pi * rng.random((size, 3))
    a = math.sqrt(k / (k + 1.0))
    los = a / math.sqrt(m) * np.abs(1.0 + np.exp(1j * theta).sum(axis=0))
    np.testing.assert_allclose(gain_sp, np.abs(los + r * np.exp(1j * phi)) ** 2,
                               rtol=1e-12, atol=1e-12)
