"""Random-aerial-beamforming tests: the arcsine law, the weights' footprint
on the kernel's gains, and the distributions the random weights induce in the
full per-pattern model."""

import math

import numpy as np
import pytest
from scipy import integrate

from cogmac.channels import draw_gains
from cogmac.rab import arcsine_cdf
from cogmac.simulator import NetworkConfig
from cogmac.stats import EmpiricalDist, ks_test


def artificial_los_power(m, size, seed, k=1e12, power=2.0):
    """gain_sp at K = 1e12, where the scattering is negligible: the power of
    the artificial LoS phasor, (K p / (K+1)) |1 + sum e^{j delta_i}|^2 / M."""
    cfg = NetworkConfig(n_users=1, m_patterns=m, k_factor=k, mean_interference_power=power)
    return draw_gains(cfg, np.random.default_rng(seed), size)[1][:, 0], k * power / (k + 1.0)


class TestWeights:
    def test_degenerate_single_pattern(self):
        # With M = 1 the weight is a pure phase rotation: RAB draws exactly
        # the baseline gains from the same stream.
        rab = draw_gains(NetworkConfig(n_users=3, m_patterns=1, k_factor=2.0),
                         np.random.default_rng(0), 100)
        base = draw_gains(NetworkConfig(n_users=3, m_patterns=1, k_factor=2.0, mode="baseline"),
                          np.random.default_rng(0), 100)
        assert np.array_equal(rab[0], base[0]) and np.array_equal(rab[1], base[1])

    def test_rejects_zero_patterns(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                NetworkConfig(m_patterns=m)


class TestEquivalentSecondary:
    def test_rayleigh_preserved(self):
        # Unitary combination of iid CN(0,1): output power stays Exp(1).
        rng = np.random.default_rng(42)
        for m in [1, 2, 4, 8]:
            n = 10**4
            theta = rng.uniform(0.0, 2.0 * math.pi, size=(n, m))
            h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
            out = np.abs((np.exp(1j * theta) / math.sqrt(m) * h).sum(axis=1)) ** 2
            assert ks_test(EmpiricalDist.from_samples(out), lambda x: 1.0 - np.exp(-x)).passed


class TestArcsinePdf:
    """The arcsine law of cos(U), density 1 / (pi sqrt(1 - y^2)) on (-1, 1),
    reached through its CDF arcsine_cdf."""

    @staticmethod
    def density(y):
        return 1.0 / (math.pi * math.sqrt(1.0 - y * y))

    def test_center_value_and_support(self):
        h = 1e-6
        assert (arcsine_cdf(h) - arcsine_cdf(-h)) / (2.0 * h) == pytest.approx(1.0 / math.pi)
        assert arcsine_cdf(0.0) == 0.5
        assert arcsine_cdf(-1.0) == 0.0 and arcsine_cdf(-1.2) == 0.0
        assert arcsine_cdf(1.0) == 1.0 and arcsine_cdf(3.0) == 1.0
        ys = np.linspace(-1.0, 1.0, 101)
        assert np.all(np.diff(arcsine_cdf(ys)) > 0.0)
        assert np.allclose(arcsine_cdf(-ys), 1.0 - arcsine_cdf(ys), atol=1e-15)

    def test_moments_by_quadrature(self):
        for y in (-0.9, -0.3, 0.0, 0.5, 0.99):
            mass, _ = integrate.quad(self.density, -1.0, y)
            assert mass == pytest.approx(float(arcsine_cdf(y)), abs=1e-8)
        mean, _ = integrate.quad(lambda y: y * self.density(y), -1.0, 1.0)
        var, _ = integrate.quad(lambda y: y * y * self.density(y), -1.0, 1.0)
        assert abs(mean) < 1e-9
        assert abs(var - 0.5) < 1e-6
        # The same moments from the CDF alone, for a law symmetric on [-1, 1]:
        # E[Y] = 0 and E[Y^2] = int_0^1 4 y (1 - F(y)) dy.
        mean, _ = integrate.quad(lambda y: arcsine_cdf(-y) - (1.0 - arcsine_cdf(y)), 0.0, 1.0)
        var, _ = integrate.quad(lambda y: 4.0 * y * (1.0 - arcsine_cdf(y)), 0.0, 1.0)
        assert abs(mean) < 1e-12
        assert abs(var - 0.5) < 1e-6

    def test_cosine_of_uniform_matches(self):
        rng = np.random.default_rng(12)
        y = np.cos(rng.uniform(0.0, 2.0 * math.pi, size=10**6))
        assert ks_test(EmpiricalDist.from_samples(y[: 10**4]), arcsine_cdf).passed
        assert abs(y.var() - 0.5) < 0.005


class TestEquivalentInterference:
    """The artificial LoS in the kernel's gain_sp, in the strong-LoS limit."""

    def test_coherent_max(self):
        # |1 + sum e^{j delta_i}|^2 / M peaks at M when all phases align.
        for m in (2, 4):
            art, los_power = artificial_los_power(m, 10**5, 20 + m)
            assert art.max() <= m * los_power * (1.0 + 1e-3)
        art, los_power = artificial_los_power(2, 10**5, 22)
        assert art.max() > (1.0 - 1e-3) * 2.0 * los_power

    def test_perfect_null(self):
        # Two patterns in antiphase cancel the LoS.
        art, los_power = artificial_los_power(2, 10**5, 21)
        assert art.min() < 1e-3 * 2.0 * los_power

    def test_phase_difference_identity(self):
        # M = 2: the power is (K p / (K+1)) (1 + cos(delta)), delta uniform.
        art, los_power = artificial_los_power(2, 10**4, 23)
        cosine = art / los_power - 1.0
        assert ks_test(EmpiricalDist.from_samples(cosine), arcsine_cdf).passed


class TestInducedDistributions:
    @staticmethod
    def interference_power_samples(m, k, n, seed, mean_power=1.0):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(n, m))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=m)
        b = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
        los = math.sqrt(k * mean_power / (m * (k + 1.0))) * np.exp(
            1j * (theta + phi[None, :])
        ).sum(axis=1)
        scat = math.sqrt(mean_power / (m * (k + 1.0))) * (np.exp(1j * theta) * b).sum(axis=1)
        return np.abs(los + scat) ** 2

    def test_null_opportunity_ordering(self):
        # Strong-LoS regime: two patterns null far more often than 4 or 8.
        k = 1e6
        freq = {}
        for m in (2, 4, 8):
            power = self.interference_power_samples(m, k, 10**6, seed=m)
            freq[m] = np.mean(power < 0.05)
        assert freq[2] > freq[4]
        assert freq[2] > freq[8]

    def test_large_m_rayleigh_convergence(self):
        power = self.interference_power_samples(16, 10.0, 10**4, seed=160)
        assert ks_test(EmpiricalDist.from_samples(power), lambda x: 1.0 - np.exp(-x)).passed

    def test_m2_artificial_support_and_shape(self):
        k, power_mean = 3.0, 2.0
        rng = np.random.default_rng(21)
        n = 10**5
        theta = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        los = math.sqrt(k * power_mean / (2.0 * (k + 1.0))) * np.exp(
            1j * (theta + phi[None, :])
        ).sum(axis=1)
        art = np.abs(los) ** 2
        hi = 2.0 * k * power_mean / (k + 1.0)
        assert art.min() >= 0.0 and art.max() <= hi + 1e-9
        cosine = art / (k * power_mean / (k + 1.0)) - 1.0
        assert ks_test(EmpiricalDist.from_samples(cosine[: 10**4]), arcsine_cdf).passed
