"""Closed-form layer tests: independent oracles (bisection, series,
quadrature, finite differences, Monte Carlo) against the implementation."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmac import analytic
from cogmac.analytic import (
    RatioDistParams,
    bessel_i0e,
    effective_users_moderate_k,
    effective_users_rab_m2,
    normalizer_a_n,
    rab_m2_cdf,
    rab_m2_tail_cdf,
    ratio_cdf,
    ratio_pdf,
    theorem1_law,
    wright_omega,
)
from cogmac.channels import draw_gains
from cogmac.simulator import NetworkConfig
from cogmac.stats import EmpiricalDist, ks_test

K_GRID = [0.0, 0.5, 2.0, 10.0]
RHO_GRID = [0.5, 1.0, 4.0]


def lambert_bisect(x, lo, hi, iters=200):
    """Bisection oracle on the monotone map w -> w e^w."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def i0_series_oracle(x):
    """Plain power-series evaluation of I0 to machine convergence."""
    q = 0.25 * x * x
    term, acc, m = 1.0, 1.0, 0
    while True:
        m += 1
        term *= q / (m * m)
        acc += term
        if term < 1e-18 * acc:
            return acc


class TestLambertW:
    """wright_omega(y) = W0(e^y), the principal Lambert W in log form."""

    def test_fixed_points(self):
        assert wright_omega(-math.inf) == 0.0
        assert wright_omega(1.0) == pytest.approx(1.0, abs=1e-15)  # W(e) = 1
        assert wright_omega(-700.0) == math.exp(-700.0)  # W(x) = x to double precision

    def test_omega_constant_vs_bisection(self):
        oracle = lambert_bisect(1.0, 0.0, 1.0)
        assert wright_omega(0.0) == pytest.approx(oracle, abs=1e-12)
        assert wright_omega(0.0) == pytest.approx(0.567143290409784, abs=1e-12)

    def test_residual_on_log_grid(self):
        for x in np.logspace(-8, 6, 120):
            w = wright_omega(math.log(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)

    def test_monotone_nondecreasing(self):
        # Across the upper clamp too, where y - log(y) takes over from Newton.
        ys = np.concatenate([[-math.inf], np.linspace(-39.0, 50.0, 90),
                             1e10 + np.arange(-20, 21) * np.spacing(1e10), [1e200, 1e308]])
        ws = [wright_omega(float(y)) for y in ys]
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError, match="wright_omega requires"):
            wright_omega(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_log_form_domain_errors(self, bad):
        # One bad element rejects the whole array.
        with pytest.raises(ValueError, match="wright_omega requires"):
            wright_omega(np.array([[0.0, 1.0], [bad, 2.0]]))

    def test_arrays_match_scalars_and_scipy(self):
        special = pytest.importorskip("scipy.special")
        ys = np.concatenate([[-math.inf, -800.0, -745.0, -40.5, -40.0, -39.5, 0.0],
                             np.linspace(-30.0, 30.0, 121), np.logspace(2, 308, 400)])
        w = wright_omega(ys.reshape(2, -1))
        assert isinstance(w, np.ndarray) and w.shape == (2, ys.size // 2)
        assert w.ravel().tolist() == [wright_omega(float(y)) for y in ys]
        np.testing.assert_allclose(w.ravel()[1:], special.wrightomega(ys[1:]),
                                   rtol=4e-15, atol=0.0)

    def test_log_form_beyond_float_range(self):
        # W(e^y) for y where e^y overflows, up to 1e308; above y = 1e10 the
        # closed form y - log(y) replaces the Newton steps, which overflow
        # from y = 3e154.
        special = pytest.importorskip("scipy.special")
        y = np.concatenate([np.linspace(1.0, 1e4, 500), np.logspace(4, 308, 500),
                            1e10 + np.arange(-3, 4) * np.spacing(1e10), [3.2e154, 1.7e308]])
        w = wright_omega(y)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w, special.wrightomega(y), rtol=4e-15)


class TestBesselI0:
    def test_known_values(self):
        assert bessel_i0e(0.0) == 1.0
        assert bessel_i0e(1.0) == pytest.approx(1.26606587775201 * math.exp(-1.0), rel=1e-12)
        assert bessel_i0e(2.0) == pytest.approx(2.27958530233607 * math.exp(-2.0), rel=1e-12)

    def test_series_oracle_on_range(self):
        for x in np.linspace(0.0, 30.0, 601):
            expected = i0_series_oracle(float(x)) * math.exp(-x)
            assert bessel_i0e(float(x)) == pytest.approx(expected, rel=1e-10)

    def test_even_and_lower_bound(self):
        for x in [0.3, 1.7, 5.0, 14.9, 16.2, 25.0]:
            assert bessel_i0e(-x) == bessel_i0e(x)
            assert bessel_i0e(x) * math.exp(x) >= 1.0

    def test_scaled_variant(self):
        for x in [0.0, 0.5, 3.0, 15.0, 20.0, 100.0]:
            expected = math.exp(-x) * i0_series_oracle(x) if x <= 40 else None
            if expected is not None:
                assert bessel_i0e(x) == pytest.approx(expected, rel=1e-10)
        # Large-argument asymptotic sanity: e^-K I0(K) ~ 1/sqrt(2 pi K).
        assert bessel_i0e(10.0) == pytest.approx(0.12783, abs=2e-5)
        assert abs(bessel_i0e(10.0) - 1.0 / math.sqrt(20.0 * math.pi)) / bessel_i0e(10.0) < 0.02

    def test_scaled_variant_on_arrays(self):
        special = pytest.importorskip("scipy.special")
        xs = np.concatenate([np.linspace(0.0, 40.0, 4000), [1e3, 1e6]])
        out = bessel_i0e(xs)
        assert out.shape == xs.shape
        assert np.max(np.abs(out - special.i0e(xs)) / special.i0e(xs)) < 1e-13
        assert np.allclose(out, [bessel_i0e(float(x)) for x in xs], rtol=1e-15, atol=0.0)
        assert np.array_equal(bessel_i0e(-xs.reshape(2, -1)), out.reshape(2, -1))
        assert isinstance(bessel_i0e(20.0), float)
        with pytest.raises(ValueError):
            bessel_i0e(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            bessel_i0e(bad)


class TestRatioDistribution:
    def test_cdf_at_zero_and_half(self):
        for k in K_GRID:
            for rho in RHO_GRID:
                assert ratio_cdf(0.0, RatioDistParams(k, rho)) == pytest.approx(0.0, abs=1e-15)
        assert ratio_cdf(1.0, RatioDistParams(0.0, 1.0)) == pytest.approx(0.5)

    def test_cdf_monotone_and_limits(self):
        zs = np.logspace(-3, 7, 300)
        for k in K_GRID:
            for rho in RHO_GRID:
                p = RatioDistParams(k, rho)
                f = ratio_cdf(zs, p)
                assert np.all(np.diff(f) >= 0.0)
                assert f[-1] > 1.0 - 1e-6
                assert np.all((f >= 0.0) & (f <= 1.0))

    def test_cdf_rejects_negative(self):
        with pytest.raises(ValueError):
            ratio_cdf(-0.1, RatioDistParams(1.0, 1.0))
        with pytest.raises(ValueError):
            ratio_pdf(-0.1, RatioDistParams(1.0, 1.0))

    def test_pdf_values_and_decay(self):
        assert ratio_pdf(0.0, RatioDistParams(0.0, 1.0)) == pytest.approx(1.0)
        assert ratio_pdf(1e9, RatioDistParams(2.0, 1.0)) < 1e-15

    @pytest.mark.parametrize("k", K_GRID)
    @pytest.mark.parametrize("rho", RHO_GRID)
    def test_pdf_integrates_to_one(self, k, rho):
        integrate = pytest.importorskip("scipy.integrate")
        p = RatioDistParams(k, rho)
        total, _ = integrate.quad(lambda z: ratio_pdf(z, p), 0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", K_GRID)
    @pytest.mark.parametrize("rho", [0.5, 4.0])
    def test_pdf_is_cdf_derivative(self, k, rho):
        p = RatioDistParams(k, rho)
        zs = np.linspace(0.05, 20.0, 100)
        h = 1e-4 * (1.0 + zs)
        deriv = (ratio_cdf(zs + h, p) - ratio_cdf(zs - h, p)) / (2.0 * h)
        assert np.max(np.abs(deriv - ratio_pdf(zs, p))) <= 1e-6

    def test_cdf_against_monte_carlo(self):
        # 1e6 ratio draws gamma_s/gamma_sp of the channel kernel at K=2, unit powers.
        cfg = NetworkConfig(n_users=1, m_patterns=1, mode="baseline", k_factor=2.0)
        g_s, g_sp = draw_gains(cfg, np.random.default_rng(2024), 10**6)
        z = (g_s / g_sp)[:, 0]
        p = RatioDistParams(2.0, 1.0)
        emp = np.mean(z <= 5.0)
        assert abs(emp - ratio_cdf(5.0, p)) < 1.628 / math.sqrt(z.size)
        report = ks_test(EmpiricalDist.from_samples(z[:10**4]), lambda x: ratio_cdf(x, p))
        assert report.passed

    @pytest.mark.parametrize("rho", [0.5, 1.0, 4.0])
    def test_huge_k_limit(self, rho):
        # As K grows, 1 - F -> e^{-rho z}; K(K+1) would overflow from K ~ 1e154.
        zs = np.array([0.0, 0.01, 0.5, 1.0, 3.0, 20.0])
        p = RatioDistParams(1e200, rho)
        np.testing.assert_allclose(ratio_cdf(zs, p), -np.expm1(-rho * zs), rtol=0, atol=1e-12)
        np.testing.assert_allclose(ratio_pdf(zs, p), rho * np.exp(-rho * zs), rtol=1e-12)

    @pytest.mark.parametrize("z", [1e307, 1e308])
    def test_ratio_past_the_float_range(self, z):
        # rho z overflows at z = 1e308; the values are still exactly 1 and 0.
        p = RatioDistParams(2.0, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ratio_cdf(z, p) == 1.0
            assert ratio_pdf(z, p) == 0.0

    def test_hazard_ratio_limit(self):
        # z f(z) / (1 - F(z)) -> 1 for every K and rho (unit tail index,
        # consistent with the exp(-1/x) Frechet limit used downstream).
        for k in K_GRID:
            for rho in RHO_GRID:
                p = RatioDistParams(k, rho)
                z = 1e6 / rho
                h = z * ratio_pdf(z, p) / (1.0 - ratio_cdf(z, p))
                assert h == pytest.approx(1.0, abs=1e-3)


class TestNormalizer:
    def test_rayleigh_closed_forms(self):
        assert normalizer_a_n(100, RatioDistParams(0.0, 1.0)) == pytest.approx(99.0)
        assert normalizer_a_n(2, RatioDistParams(0.0, 2.0)) == pytest.approx(0.5)

    def test_k2_value_and_bisection_oracle(self):
        p = RatioDistParams(2.0, 1.0)
        a = normalizer_a_n(500, p)
        assert a == pytest.approx(205.91, abs=0.01)
        lo, hi = 1.0, 1e7
        target = 1.0 - 1.0 / 500
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ratio_cdf(mid, p) < target:
                lo = mid
            else:
                hi = mid
        assert a == pytest.approx(0.5 * (lo + hi), rel=1e-6)

    def test_quantile_identity_grid(self):
        for n in [2, 10, 100, 10**4]:
            for k in K_GRID:
                for rho in RHO_GRID:
                    p = RatioDistParams(k, rho)
                    a = normalizer_a_n(n, p)
                    assert abs(ratio_cdf(a, p) - (1.0 - 1.0 / n)) <= 1e-9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            normalizer_a_n(1, RatioDistParams(1.0, 1.0))

    def test_large_k(self):
        # K e^K overflows a float from K = 710; the log form keeps a_N finite
        # and exact.
        p = RatioDistParams(1000.0, 1.0)
        for n in (2, 512, 10**9):
            a = normalizer_a_n(n, p)
            assert math.isfinite(a) and a > 0.0
            assert abs(ratio_cdf(a, p) - (1.0 - 1.0 / n)) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_every_m(self, m):
        # a_N is the law's isf(1/N), so S(a_N) = 1/N at M >= 2 as well, to the
        # relative error of the quantile properties at K = 10.
        p = RatioDistParams(10.0, 1.0, m)
        for n in (2, 8, 512, 10**6):
            assert abs(n * p.sf(normalizer_a_n(n, p)) - 1.0) <= _PPF_TOL_PER_K * 11.0

    @pytest.mark.parametrize("k", [1000.5, 1e17])
    def test_k_above_the_certified_range_raises(self, k):
        # From K of about 1e10 on, K/W - 1 cancels; at K = 1e17 it rounds to
        # 0, and a_8 (about 2.08) would read 0.
        with pytest.raises(ValueError, match="k_factor <= 1000 at m_patterns = 1"):
            normalizer_a_n(8, RatioDistParams(k, 1.0))


# Forward error of the M = 1 isf: a relative error e of K/W moves z by about
# e (rho z + K + 1) / rho, and so F(z) and the tail by about e (K + 1).
_PPF_TOL_PER_K = 8 * np.finfo(float).eps


class TestRatioIsf:
    """RatioDistParams.isf at M = 1: the closed form through wright_omega."""

    def test_edges_and_array_form(self):
        p = RatioDistParams(2.0, 0.5)
        assert p.isf(1.0) == 0.0
        assert RatioDistParams(0.0, 1.0).isf(0.5) == pytest.approx(1.0, abs=1e-15)
        q = np.array([1e-12, 0.01, 0.5, 1.0])
        z = p.isf(q)
        assert isinstance(z, np.ndarray)
        np.testing.assert_allclose(z, [p.isf(float(v)) for v in q], rtol=4e-16, atol=0.0)
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                p.isf(bad)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rayleigh_quantile_is_one_over_q(self, m):
        # K = 0 at any M: S(z) = 1/(1 + rho z), so 1/v = 1/q, down to q
        # whose z leaves the float range.
        q = np.geomspace(5e-324, 1.0, 4001)
        with np.errstate(over="ignore"):
            want = np.maximum((1.0 / q - 1.0) / 0.5, 0.0)
        np.testing.assert_array_equal(RatioDistParams(0.0, 0.5, m).isf(q), want)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(0.0, 1000.0), rho=st.floats(1e-3, 1e3),
           q=st.floats(1e-300, 1.0, exclude_max=True))
    def test_inverts_cdf(self, k, rho, q):
        p = RatioDistParams(k, rho)
        z = p.isf(q)
        assert math.isfinite(z) and z >= 0.0
        tol = _PPF_TOL_PER_K * (k + 1.0)
        assert abs(ratio_cdf(z, p) - (1.0 - q)) <= tol
        # The tail 1 - F(z), formed without cancellation, matches q relatively.
        u = rho * z + k + 1.0
        tail = (k + 1.0) / u * math.exp(-k + k * (k + 1.0) / u)
        assert abs(tail / q - 1.0) <= tol

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(0.0, 1000.0), q=st.floats(1e-300, 1.0, exclude_max=True))
    def test_lambert_residual_of_the_isf_argument(self, k, q):
        # W(K e^K q) in log form: w + log(w) = log K + K + log q.
        with np.errstate(divide="ignore"):
            y = float(np.log(k)) + k + math.log(q)
        w = wright_omega(y)
        if y < -40.0:  # W(x) = x - x^2 + ... is x to double precision
            assert w == pytest.approx(math.exp(y), rel=4 * np.finfo(float).eps, abs=0.0)
        else:
            assert abs(w + math.log(w) - y) <= 4 * np.finfo(float).eps * max(1.0, abs(y))


class TestScalingLaws:
    def test_rayleigh_limit(self):
        assert theorem1_law(1000, 0.0) == math.log(1000)
        assert theorem1_law(1000, 1e-9) == pytest.approx(math.log(1000), rel=1e-3)
        assert theorem1_law(1000, 1e-6) == pytest.approx(math.log(1000), rel=1e-3)

    def test_moderate_k_values(self):
        law = theorem1_law(500, 2.0)
        assert law == pytest.approx(math.log(208.9), abs=0.01)
        approx = math.log(500 * 3.0 / math.e**2)
        assert abs(law - approx) / approx < 0.03

    def test_large_k_sublogarithmic(self):
        # In the strong-LoS regime the law must grow, but strictly slower
        # than log N (the log log N regime direction).
        ns = [100, 1000, 10**4, 10**5]
        vals = [theorem1_law(n, 5.0) for n in ns]
        diffs = np.diff(vals)
        logdiffs = np.diff(np.log(ns))
        assert np.all(diffs > 0.0)
        assert np.all(diffs < logdiffs)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theorem1_law(1, 2.0)
        with pytest.raises(ValueError):
            theorem1_law(100, -0.5)

    def test_effective_users_moderate(self):
        assert effective_users_moderate_k(500, 2.0) == pytest.approx(500 * 3.0 / math.e**2)
        assert effective_users_moderate_k(500, 2.0) == pytest.approx(200.0, rel=0.02)
        assert effective_users_moderate_k(500, 0.0) == 500.0
        assert effective_users_moderate_k(100, 3.0) == pytest.approx(19.9, abs=0.05)
        for k in [0.5, 1.0, 5.0]:
            assert effective_users_moderate_k(100, k) <= 100.0

    def test_effective_users_rab_m2(self):
        assert effective_users_rab_m2(200, 10.0) == pytest.approx(277.5, abs=0.1)
        assert effective_users_rab_m2(200, 10.0) == pytest.approx(280.0, rel=0.02)
        assert effective_users_rab_m2(200, 100.0) == pytest.approx(805.9, abs=0.1)
        assert effective_users_rab_m2(200, 100.0) == pytest.approx(800.0, rel=0.02)
        assert effective_users_rab_m2(1, 10.0) == pytest.approx(1.3877, abs=1e-4)
        ks = np.linspace(1.0, 50.0, 40)
        vals = [effective_users_rab_m2(100, k) for k in ks]
        assert np.all(np.diff(vals) > 0.0)
        with pytest.raises(ValueError):
            effective_users_rab_m2(100, 0.0)


@pytest.mark.parametrize("k", [1e200, 1e308])
def test_user_count_laws_at_huge_k(k):
    # theorem1_law = log(K(K+1)/W(K e^K/N)) with W = K + O(log K), and
    # N (K+1)/sqrt(2 pi K) = N sqrt(K/(2 pi)) to double precision here.
    n = np.array([8, 512])
    assert theorem1_law(n, k) == pytest.approx(np.full(2, math.log(k)), rel=4 * EPS, abs=0.0)
    assert effective_users_rab_m2(n, k) == pytest.approx(n * math.sqrt(k / (2.0 * math.pi)),
                                                          rel=4 * EPS, abs=0.0)
    # N (K+1) e^-K underflows to 0 from K = 745 on; at K = 1e308, N (K+1)
    # alone overflows, and inf * 0 would give nan.
    for k_zero in (800.0, k):
        assert effective_users_moderate_k(n, k_zero).tolist() == [0.0, 0.0]


class TestArrayLaws:
    """The four user-count laws on an array equal their scalar calls, bit for
    bit, and every law gives a float for a 0-d input."""

    N = np.array([[2, 3, 8, 100], [512, 9170, 10**6, 10**9]])
    LAWS = [
        (normalizer_a_n, RatioDistParams(0.0, 1.0)),
        (normalizer_a_n, RatioDistParams(2.0, 3.7)),
        (normalizer_a_n, RatioDistParams(1000.0, 1.0)),
        (theorem1_law, 0.0),
        (theorem1_law, 0.5),
        (theorem1_law, 10.0),
        (theorem1_law, 1000.0),
        (effective_users_moderate_k, 0.0),
        (effective_users_moderate_k, 2.0),
        (effective_users_rab_m2, 10.0),
        (effective_users_rab_m2, 100.0),
    ]

    @pytest.mark.parametrize("law,arg", LAWS)
    def test_array_matches_scalar_calls(self, law, arg):
        out = law(self.N, arg)
        scalars = [law(int(n), arg) for n in self.N.ravel()]
        assert all(type(v) is float for v in scalars)
        assert out.shape == self.N.shape
        assert out.ravel().tolist() == scalars
        assert law(self.N.ravel().tolist(), arg).tolist() == scalars

    @pytest.mark.parametrize(
        "law,arg",
        [
            (normalizer_a_n, RatioDistParams(1.0, 1.0)),
            (theorem1_law, 0.0),
            (theorem1_law, 2.0),
        ],
    )
    def test_rejects_fewer_than_two_users(self, law, arg):
        with pytest.raises(ValueError, match="n_users >= 2"):
            law(np.array([8, 1, 16]), arg)

    @pytest.mark.parametrize("law", [effective_users_moderate_k, effective_users_rab_m2])
    def test_effective_users_reject_no_users(self, law):
        with pytest.raises(ValueError, match="n_users >= 1"):
            law(np.array([8, 0]), 2.0)

    def test_rab_law_rejects_k0_on_arrays(self):
        with pytest.raises(ValueError, match="k_factor > 0"):
            effective_users_rab_m2(np.array([8, 16]), 0.0)

    P = RatioDistParams(2.0, 1.0)
    P2 = RatioDistParams(2.0, 1.0, 2)
    ZERO_D = [
        (wright_omega, 0.5, ()),
        (bessel_i0e, 20.0, ()),
        (ratio_cdf, 2.0, (P,)),
        (ratio_pdf, 2.0, (P,)),
        (P.isf, 0.01, ()),
        (rab_m2_cdf, 2.0, (P,)),
        (RatioDistParams(2.0, 1.0, 2).isf, 0.01, ()),
        (rab_m2_tail_cdf, 2.0, (P2,)),
        (P.sf, 2.0, ()),
        (RatioDistParams(2.0, 1.0, 2).sf, 2.0, ()),
        (RatioDistParams(2.0, 1.0, 3).sf, 2.0, ()),
        (RatioDistParams(2.0, 1.0, 3).isf, 0.01, ()),
        (normalizer_a_n, 100, (P,)),
        (theorem1_law, 100, (2.0,)),
        (effective_users_moderate_k, 100, (2.0,)),
        (effective_users_rab_m2, 100, (2.0,)),
    ]

    @pytest.mark.parametrize("law,x,args", ZERO_D, ids=[
        law.__name__ + (f"-m{law.__self__.m_patterns}" if hasattr(law, "__self__") else "")
        for law, _, args in ZERO_D])
    def test_zero_d_input_gives_float(self, law, x, args):
        outs = [law(v, *args) for v in (x, np.array(x), np.array([x]).sum())]
        assert [type(out) for out in outs] == [float] * 3
        assert outs[1:] == [outs[0]] * 2


class TestRabM2ClosedForms:
    def test_cdf_zero_and_k0_reduction(self):
        p = RatioDistParams(10.0, 1.0)
        assert rab_m2_cdf(0.0, p) == pytest.approx(0.0, abs=1e-15)
        tiny = RatioDistParams(1e-10, 1.0)
        k0 = RatioDistParams(0.0, 1.0)
        for z in [0.1, 1.0, 10.0, 100.0]:
            assert rab_m2_cdf(z, tiny) == pytest.approx(ratio_cdf(z, k0), abs=1e-8)
        with pytest.raises(ValueError):
            rab_m2_cdf(-1.0, p)

    def test_cdf_monte_carlo_point(self):
        # Empirical CDF of the channel kernel's equivalent ratio at z=10, M=2, K=10.
        n, k = 10**6, 10.0
        cfg = NetworkConfig(n_users=1, m_patterns=2, k_factor=k)
        g_s, g_sp = draw_gains(cfg, np.random.default_rng(11), n)
        emp = np.mean(g_s / g_sp <= 10.0)
        assert abs(emp - rab_m2_cdf(10.0, RatioDistParams(k, 1.0))) < 1.628 / math.sqrt(n)

    def test_cdf_at_huge_k(self):
        # y -> rho z as K grows, so F -> 1 - i0e(rho z); K rho z itself overflows.
        z = np.array([2.0, 10.0])
        cdf = rab_m2_cdf(z, RatioDistParams(1e308, 1.0))
        assert cdf == pytest.approx(1.0 - bessel_i0e(z), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_ratio_past_the_float_range(self, k):
        # rho z overflows at z = 1e308, where y = rho z K/u would be inf * 0;
        # every law takes its z -> inf limit F = 1, without a warning.
        p = RatioDistParams(k, 10.0)
        z = np.array([1.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            law = RatioDistParams(k, 10.0, 3)
            assert rab_m2_cdf(1e308, p) == 1.0 and law.sf(1e308) == 0.0
            assert rab_m2_cdf(z, p)[1] == 1.0 and law.sf(z)[1] == 0.0
            if k > 0.0:
                assert rab_m2_tail_cdf(1e308, RatioDistParams(k, 10.0, 2)) == 1.0

    def test_tail_form_consistency(self):
        for k in [1.0, 10.0]:
            p = RatioDistParams(k, 1.0, 2)
            z = 1e3
            exact = rab_m2_cdf(z, p)
            tail = rab_m2_tail_cdf(z, p)
            assert abs(exact - tail) / exact < 0.02

    def test_tail_constant_asymptotics(self):
        val = bessel_i0e(10.0)
        ref = 1.0 / math.sqrt(2.0 * math.pi * 10.0)
        assert val == pytest.approx(0.12783, abs=1e-5)
        assert abs(val - ref) / val < 0.02

    def test_lemma1_normalizer_plugin(self):
        # Lemma normalizer is an approximation: check 1-F accuracy at 5%.
        n, k = 10**4, 10.0
        p = RatioDistParams(k, 1.0)
        a = effective_users_rab_m2(n, k)
        survival = 1.0 - rab_m2_cdf(a, p)
        assert abs(survival - 1.0 / n) / (1.0 / n) < 0.05


class TestBesselPair:
    """The private (i0e, i1e) routine behind bessel_i0e and the M = 2 isf."""

    def test_against_scipy(self):
        # x = K(1 - v) reaches K = 1000 at M = 2; [14.5, 16] spans the crossover.
        special = pytest.importorskip("scipy.special")
        xs = np.concatenate([np.linspace(0.0, 100.0, 20_001), np.linspace(0.0, 1000.0, 100_001),
                             np.linspace(14.5, 16.0, 3001), [1e3, 1e6]])
        i0e, i1e = analytic._bessel_i0e_i1e(xs)
        assert np.max(np.abs(i0e / special.i0e(xs) - 1.0)) < 1e-14
        nonzero = xs > 0.0
        assert np.all(i1e[~nonzero] == 0.0)
        assert np.max(np.abs(i1e[nonzero] / special.i1e(xs[nonzero]) - 1.0)) < 1e-14

    def test_huge_argument(self):
        # sqrt(2 pi x) would overflow from x ~ 2.9e307.
        special = pytest.importorskip("scipy.special")
        xs = np.array([1e300, 1e307, 1e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i0e, i1e = analytic._bessel_i0e_i1e(xs)
        np.testing.assert_allclose(i0e, special.i0e(xs), rtol=1e-14, atol=0)
        np.testing.assert_allclose(i1e, special.i1e(xs), rtol=1e-14, atol=0)

    def test_elements_do_not_depend_on_neighbours(self):
        # Each branch is one fixed polynomial, with no stopping rule shared
        # across elements.
        xs = np.array([0.0, 0.3, 14.9, 15.1, 31.0, 400.0])
        pair = analytic._bessel_i0e_i1e(xs)
        for i, x in enumerate(xs):
            one = analytic._bessel_i0e_i1e(np.array([x]))
            assert (one[0][0], one[1][0]) == (pair[0][i], pair[1][i])

    def test_mixed_array_equals_its_one_branch_parts(self):
        # An array on one side of the crossover takes that branch whole; a
        # mixed one splits: the same bits either way.
        rng = np.random.default_rng(11)
        cut = analytic._BESSEL_SERIES_CUTOFF
        small = np.r_[0.0, rng.uniform(0.0, cut, 999), cut]
        large = np.r_[np.nextafter(cut, np.inf), rng.uniform(cut, 1e3, 999), 1e308]
        xs = np.concatenate([small, large])
        order = rng.permutation(xs.size)
        mixed = analytic._bessel_i0e_i1e(xs[order])
        parts = [np.concatenate(pair) for pair in zip(analytic._bessel_i0e_i1e(small),
                                                      analytic._bessel_i0e_i1e(large))]
        for got, want in zip(mixed, parts):
            assert got.tobytes() == want[order].tobytes()

    def test_truncation_degrees(self):
        x = analytic._BESSEL_SERIES_CUTOFF
        # Above the crossover, every asymptotic term through k = 30 shrinks ...
        for table in (analytic._I0E_ASYMPTOTIC, analytic._I1E_ASYMPTOTIC):
            assert table.size == 31
            assert np.all(np.diff(np.abs(table) / x ** np.arange(31)) < 0.0)
        # ... and at x = 15 the I0 term 31 would not: its step exceeds 1.
        assert 61.0**2 / (8.0 * 31.0 * x) > 1.0
        # Up to the crossover, power-series term 32 is below 1e-20 of the sum.
        q = 0.25 * x * x
        for table in (analytic._I0_SERIES, analytic._I1_SERIES):
            assert table.size == 33
            terms = table * q ** np.arange(33)
            assert terms[-1] < 1e-20 * terms.sum()


def rab_m2_survival(z, k, rho):
    """1 - rab_m2_cdf(z), formed without cancellation and with scipy's i0e."""
    special = pytest.importorskip("scipy.special")
    u = rho * z + k + 1.0
    return (k + 1.0) / u * special.i0e(k * rho * z / u)


class TestRabM2Isf:
    def test_edges_and_array_form(self):
        p = RatioDistParams(10.0, 0.5, 2)
        assert p.isf(1.0) == 0.0
        # K = 0: the Rayleigh quantile (1/q - 1)/rho.
        assert RatioDistParams(0.0, 2.0, 2).isf(0.25) == pytest.approx(1.5, rel=1e-15)
        q = np.array([[1e-12, 0.01], [0.5, 1.0]])
        z = p.isf(q)
        assert isinstance(z, np.ndarray) and z.shape == q.shape
        assert np.array_equal(z.ravel(), [p.isf(float(v)) for v in q.ravel()])
        assert isinstance(p.isf(0.5), float)
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                p.isf(bad)

    def test_growth_block_working_set_is_bounded(self):
        # One block of c07 (20000 slots at K = 10): the Newton loop holds at
        # most about ten arrays of 20000 doubles at a time, 1.55 MiB traced.
        # It held 1.85 MiB while the law's pair outlived each stop test.
        p = RatioDistParams(10.0, 1.0, 2)
        q = 1.0 - np.random.default_rng(5).random(20_000)
        p.isf(q)  # the law is cached outside the trace
        tracemalloc.start()
        try:
            p.isf(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("k", [0.5, 2.0, 10.0, 100.0])
    def test_inverts_cdf_on_grid(self, k):
        p = RatioDistParams(k, 1.3, 2)
        z = np.array([0.0, 0.01, 0.5, 3.0, 40.0, 1e4])
        assert p.isf(1.0 - rab_m2_cdf(z[1:], p)) == pytest.approx(z[1:], rel=1e-9)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(0.0, 1000.0), rho=st.floats(1e-3, 1e3), q=st.floats(1e-300, 1.0))
    def test_survival_of_the_quantile_is_q(self, k, rho, q):
        z = RatioDistParams(k, rho, 2).isf(q)
        assert math.isfinite(z) and z >= 0.0
        assert abs(rab_m2_survival(z, k, rho) / q - 1.0) <= _PPF_TOL_PER_K * (k + 1.0)


EPS = np.finfo(float).eps
REFERENCE_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "rab_reference.json"


def kluyver_g(c, m):
    """g_M(c) = (1/(2c)) int_0^inf s exp(-s^2/(4c)) J0(s)^M ds by scipy quad
    with scipy's j0, one unit of s at a time up to exp(-45)."""
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    top = math.sqrt(180.0 * c)
    edges = np.linspace(0.0, top, math.ceil(top) + 1)

    def f(s):
        return s * math.exp(-s * s / (4.0 * c)) * special.j0(s) ** m

    with warnings.catch_warnings():
        # quad flags roundoff near its tolerance floor; the bound in the test
        # is what certifies the agreement.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
                    for a, b in zip(edges[:-1], edges[1:]))
    return total / (2.0 * c)


def phase_g(c, m, grid=64):
    """g_M(c) by the trapezoid rule over the phases of patterns 2..M-1, the
    last phase integrated in closed form: E exp(-c |r + e^(j phi)|^2) =
    exp(-c (r - 1)^2) i0e(2 c r) for r = |1 + sum of the other phasors|."""
    special = pytest.importorskip("scipy.special")
    phases = 2.0 * math.pi * np.arange(grid) / grid
    mesh = np.meshgrid(*([phases] * (m - 2)), indexing="ij")
    r = np.abs(1.0 + sum(np.exp(1j * p) for p in mesh)).ravel()
    return float(np.mean(np.exp(-c * (r - 1.0) ** 2) * special.i0e(2.0 * c * r)))


def kluyver_log_g(c, m):
    """log g_M(c) at one c by the package's panel rule."""
    return float(analytic._kluyver_log_g(np.array([c], dtype=float), m)[0])


def rab_survival(z, k, m, rho):
    """S(z) of the M-pattern law: v g_M(c) with g_M by the package's panel
    rule, one quadrature per element."""
    v = 1.0 / (1.0 + rho * z / (k + 1.0))
    return v * math.exp(kluyver_log_g((k / m) * (1.0 - v), m))


class TestRabLaw:
    """Kluyver's random-walk integral for every M, and the law of
    RatioDistParams.sf built on it: S = v g_M(c)."""

    def test_j0_trapezoid_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        xs = np.linspace(0.0, 400.0, 4001)
        # One x at a time, and the whole grid at the rule size of its largest x.
        one = np.array([analytic._j0_complement(xs[i : i + 1])[0] for i in range(xs.size)])
        for comp in (one, analytic._j0_complement(xs)):
            assert np.max(np.abs((1.0 - comp) - special.j0(xs))) <= 1e-14
        assert one[0] == 0.0

    @pytest.mark.parametrize("m", [3, 4, 8, 16])
    def test_g_against_scipy_quad(self, m):
        # K = 10, fig6's table, takes the fewest panels; K = 1000 the most.
        for k in (10.0, 100.0, 300.0, 1000.0):
            for c in np.linspace(0.0, k / m, 7)[1:]:
                g = math.exp(kluyver_log_g(c, m))
                assert abs(g / kluyver_g(c, m) - 1.0) <= EPS * (k + 1.0), (k, c)

    @pytest.mark.parametrize("k", [2.0, 10.0, 30.0, 100.0])
    @pytest.mark.parametrize("m", [3, 4])
    def test_g_against_phase_quadrature(self, m, k):
        for c in np.linspace(0.0, k / m, 9):
            g = math.exp(kluyver_log_g(c, m))
            assert abs(g / phase_g(c, m) - 1.0) <= EPS * (k + 1.0), c

    def test_g_at_zero_and_small_c(self):
        for m in (1, 2, 3, 8):
            # log g_M(c) = -M c + O(c^2), to the few eps that rounding g near 1 leaves.
            at_zero, small = analytic._kluyver_log_g(np.array([0.0, 1e-12]), m)
            assert at_zero == 0.0
            assert abs(small + m * 1e-12) <= 4 * EPS

    @pytest.mark.parametrize("k", [0.0, 0.5, 2.0, 10.0, 100.0])
    def test_reduces_to_closed_forms(self, k):
        p = RatioDistParams(k, 1.3)
        z = np.concatenate([[0.0], np.logspace(-3, 6, 40)])
        # F = 1 - S, to the absolute error the named forms' F has.
        assert np.max(np.abs((1.0 - p.sf(z)) - ratio_cdf(z, p))) <= 1e-14
        m2 = RatioDistParams(k, 1.3, 2)
        assert np.max(np.abs((1.0 - m2.sf(z)) - rab_m2_cdf(z, p))) <= 1e-14

    def test_capacities_reproduce_reference_table(self):
        # C(N) = int (1 - F(t)^N) / (1 + t) dt, trapezoid in log t on
        # [-30, 45] (the benchmark's range for N <= 512); the table in
        # perfbench/ comes from an independent phase quadrature.
        raw = json.loads(REFERENCE_TABLE.read_text(encoding="utf-8"))
        k = raw["k_factor"]
        log_t = np.linspace(-30.0, 45.0, 1501)
        t = np.exp(log_t)
        h = log_t[1] - log_t[0]
        for m, row in raw["mean_nats"].items():
            log_f = np.log1p(-RatioDistParams(k, 1.0, int(m)).sf(t))
            for n, expected in row.items():
                g = -np.expm1(int(n) * log_f) * t / (1.0 + t)
                assert h * (g.sum() - 0.5 * (g[0] + g[-1])) == pytest.approx(expected, abs=1e-9)

    def test_validation(self):
        for bad in (0, -1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="m_patterns must be an integer >= 1"):
                RatioDistParams(10.0, 1.0, bad)
        assert type(RatioDistParams(10.0, 1.0, np.int64(3)).m_patterns) is int
        with pytest.raises(ValueError, match="k_factor <= 1000 at m_patterns = 3"):
            RatioDistParams(1000.5, 1.0, 3).sf(1.0)
        with pytest.raises(ValueError, match="finite z >= 0"):
            RatioDistParams(10.0, 1.0, 3).sf([1.0, -1.0])

    def test_k_and_rho_must_be_real_numbers(self):
        for bad in (True, np.True_, "1", None):
            with pytest.raises(ValueError, match="k_factor must be a real number"):
                RatioDistParams(bad, 1.0)
            with pytest.raises(ValueError, match="power_ratio must be a real number"):
                RatioDistParams(1.0, bad)
            with pytest.raises(ValueError, match="k_factor must be a real number"):
                theorem1_law(8, bad)
        assert RatioDistParams(np.int64(2), 1).isf(0.25) == RatioDistParams(2.0, 1.0).isf(0.25)

    @pytest.mark.parametrize("args,name", [((10**400, 1.0), "k_factor"),
                                           ((1.0, 10**400), "power_ratio")])
    def test_ints_past_the_float_range_are_refused(self, args, name):
        # float() of such an int raises OverflowError; the field is named instead.
        with pytest.raises(ValueError, match=f"^{name} must be finite, got a number past the "
                                             "float range$"):
            RatioDistParams(*args)

    @pytest.mark.parametrize("law,name,call", [
        ("theorem1_law", "n_users", lambda big: analytic.theorem1_law([8, big], 2.0)),
        ("effective_users_moderate_k", "n_users",
         lambda big: analytic.effective_users_moderate_k(big, 2.0)),
        ("normalizer_a_n", "n_users",
         lambda big: analytic.normalizer_a_n(big, RatioDistParams(1.0, 1.0))),
        ("ratio_cdf", "z", lambda big: analytic.ratio_cdf(big, RatioDistParams(1.0, 1.0))),
        ("rab_m2_cdf", "z", lambda big: analytic.rab_m2_cdf([1.0, big],
                                                            RatioDistParams(1.0, 1.0, 2))),
        ("RatioDistParams.isf", "q", lambda big: RatioDistParams(1.0, 1.0).isf(big)),
        ("wright_omega", "y", lambda big: analytic.wright_omega(-big)),
        ("bessel_i0e", "x", lambda big: analytic.bessel_i0e(big)),
    ])
    def test_grid_ints_past_the_float_range_are_refused(self, law, name, call):
        # A bare OverflowError from np.asarray becomes a ValueError naming the argument.
        with pytest.raises(ValueError, match=f"^{re.escape(law)} requires {name} in the float "
                                             "range, got a number past it$"):
            call(10**400)

    def test_import_builds_nothing(self):
        # Laws (tables and Newton starts) are built on first use; scipy stays
        # a test dependency.  The child imports the package this test imports.
        code = ("import sys, cogmac, cogmac.analytic as a; "
                "print(a._rab_law.cache_info().currsize, 'scipy' in sys.modules)")
        src = str(Path(analytic.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env=env)
        assert out.stdout.split() == ["0", "False"]


class TestRabIsf:
    """RatioDistParams.isf at M >= 2: Newton on the Bessel law or the table
    of log g_M; K = 0 at every M takes the closed form."""

    def test_dispatch_and_edges(self):
        p = RatioDistParams(10.0, 0.5, 3)
        q = np.array([[1e-12, 0.01], [0.5, 1.0]])
        z = p.isf(q)
        assert isinstance(z, np.ndarray) and z.shape == q.shape
        assert np.array_equal(z.ravel(), [p.isf(float(v)) for v in q.ravel()])
        assert p.isf(1.0) == 0.0 and RatioDistParams(10.0, 0.5, 16).isf(1.0) == 0.0
        # K = 0: the Rayleigh quantile (1/q - 1)/rho for any M.
        assert RatioDistParams(0.0, 2.0, 5).isf(0.25) == pytest.approx(1.5, rel=1e-15)
        for bad in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                p.isf(bad)
        with pytest.raises(ValueError, match="k_factor <= 1000 at m_patterns = 3"):
            RatioDistParams(1000.5, 1.0, 3).isf(0.5)
        with pytest.raises(ValueError, match="k_factor <= 1000 at m_patterns = 2"):
            RatioDistParams(1000.5, 1.0, 2).isf(0.5)

    @pytest.mark.parametrize("rho", [1.0, 1e-3])
    @pytest.mark.parametrize("q", [1e-310, 5e-324])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quantile_past_the_float_range_is_inf_without_warning(self, m, q, rho):
        # g / q, or (K+1)(1/v - 1)/rho, leaves the float range: z is inf with
        # no overflow warning at every M.  At M = 1, rho = 1 and q = 1e-310,
        # z = 5e306 is still a float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = RatioDistParams(10.0, rho, m).isf(q)
        assert z == math.inf or (m == 1 and rho == 1.0 and q == 1e-310 and 1e306 < z < math.inf)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_k0_is_the_closed_form_and_builds_no_law(self, m):
        # g_M(0) = 1: the Rayleigh law at every M, with no law built or cached.
        q = np.geomspace(1e-300, 1.0, 4001)
        for rho in (0.3, 1.0, 7.0):
            cached = analytic._rab_law.cache_info().currsize
            z = RatioDistParams(0.0, rho, m).isf(q)
            assert np.array_equal(z, RatioDistParams(0.0, rho).isf(q))
            assert analytic._rab_law.cache_info().currsize == cached

    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_inverts_cdf_on_grid(self, m):
        p = RatioDistParams(10.0, 1.3, m)
        z = np.array([0.01, 0.5, 3.0, 40.0, 1e4])
        assert p.isf(p.sf(z)) == pytest.approx(z, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_array_answer_is_each_elements_own(self, m):
        # Each element's start, steps and stop depend on its own q alone, so
        # that chunks of any size, and so any thread count, give the same
        # bits: a 4096-element array equals one-element calls bit for bit.
        p = RatioDistParams(10.0, 0.5, m)
        rng = np.random.default_rng(m)
        q = rng.permutation(np.concatenate([-np.expm1(np.log(rng.random(2048)) / 64),
                                            10.0 ** rng.uniform(-300.0, 0.0, 2046),
                                            [1.0, 1.0 - EPS / 2]]))
        z = p.isf(q)
        assert np.array_equal(z, [p.isf(float(v)) for v in q])

    @pytest.mark.parametrize("key", [(30.0, 5), (1000.0, 2)])
    def test_table_is_the_same_from_two_threads(self, key):
        # Two threads building one (K, M) law (the Chebyshev series, and the
        # Newton starts) at once get the law that one thread builds alone.
        t = -np.geomspace(30.0, 1e-6, 97)
        analytic._rab_law.cache_clear()
        alone = analytic._rab_law(*key)
        analytic._rab_law.cache_clear()
        start, results = threading.Barrier(2), [None, None]

        def build(i):
            start.wait()
            results[i] = analytic._rab_law(*key)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        for log_g_and_slope, start in results:
            assert all(np.array_equal(a, b) for a, b in zip(log_g_and_slope(t), alone[0](t)))
            assert len(start) == 6
            assert all(np.array_equal(a, b) for a, b in zip(start, alone[1]))
            assert not any(a.flags.writeable for a in start[:5])

    @pytest.mark.parametrize("k,m", [(10.0, 3), (100.0, 4), (1000.0, 8)])
    def test_series_is_the_direct_cosine_sum(self, k, m):
        # The coefficients are a DCT-I taken by the direct sum a_j = (2/n)
        # sum'' f_i cos(pi i j/n), end terms halved, with i j reduced mod 2n;
        # the reference is numpy's FFT of the even extension, over n, with the
        # end terms halved.  Each term rounds to a few ulps of |f|, and (2/n)
        # times the sum of n + 1 of them to a few ulps of max |f|.
        coef = analytic._log_g_series(k, m)
        n = coef.size - 1
        c = (k / m) * np.cos(0.5 * np.pi * np.arange(n + 1) / n) ** 2
        f = analytic._kluyver_log_g(c, m)
        fft = np.fft.rfft(np.concatenate([f, f[-2:0:-1]])).real / n
        fft[[0, -1]] *= 0.5
        assert np.max(np.abs(coef - fft)) <= 16 * EPS * np.max(np.abs(f))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(3, 16), k=st.floats(0.0, analytic._ISF_MAX_K, exclude_min=True),
           rho=st.floats(1e-3, 1e3), q=st.floats(1e-300, 1.0))
    def test_survival_of_the_quantile_is_q(self, m, k, rho, q):
        z = RatioDistParams(k, rho, m).isf(q)
        assert math.isfinite(z) and z >= 0.0
        assert abs(rab_survival(z, k, m, rho) / q - 1.0) <= _PPF_TOL_PER_K * (k + 1.0)


# z = 0, or 10^e over the law's whole range of scales.
LOG_UNIFORM_Z = st.one_of(st.just(0.0), st.floats(-12.0, 250.0).map(lambda e: 10.0 ** e))


class TestRatioSf:
    """RatioDistParams.sf: S(z) = v g_M(c) on the law isf inverts, certified
    to K = _ISF_MAX_K at every M against isf, scipy's i0e and Kluyver's quadrature."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 16), k=st.floats(0.0, analytic._ISF_MAX_K),
           rho=st.floats(1e-3, 1e3), q=st.floats(1e-300, 1.0))
    def test_survival_of_the_quantile_is_q(self, m, k, rho, q):
        p = RatioDistParams(k, rho, m)
        assert abs(p.sf(p.isf(q)) / q - 1.0) <= _PPF_TOL_PER_K * (k + 1.0)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(0.0, 1000.0), rho=st.floats(1e-3, 1e3), z=LOG_UNIFORM_Z)
    def test_m2_is_the_bessel_law(self, k, rho, z):
        # v i0e(2c) with scipy's i0e, 2c = K (1 - v).
        s = RatioDistParams(k, rho, 2).sf(z)
        assert abs(s / rab_m2_survival(z, k, rho) - 1.0) <= _PPF_TOL_PER_K * (k + 1.0)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(3, 16), k=st.floats(0.0, analytic._ISF_MAX_K), rho=st.floats(1e-3, 1e3),
           z=LOG_UNIFORM_Z)
    def test_is_kluyvers_integral(self, m, k, rho, z):
        s = RatioDistParams(k, rho, m).sf(z)
        assert abs(s / rab_survival(z, k, m, rho) - 1.0) <= _PPF_TOL_PER_K * (k + 1.0)

    @pytest.mark.parametrize("k,m", [(0.0, 2), (0.0, 5), (10.0, 1), (1000.0, 1)])
    def test_closed_forms_build_no_law(self, k, m):
        # M = 1 and K = 0 take log g = -K (1 - v), with no law looked up or built.
        z = np.concatenate([[0.0], np.logspace(-6, 200, 401)])
        calls = analytic._rab_law.cache_info()[:2]  # hits, misses
        s = RatioDistParams(k, 0.7, m).sf(z)
        assert analytic._rab_law.cache_info()[:2] == calls
        if k == 0.0:
            assert np.array_equal(s, 1.0 / (0.7 * z + 1.0))

    def test_m2_is_certified_to_k_1000(self):
        p = RatioDistParams(1000.0, 1.0, 2)
        assert p.sf(p.isf(0.01)) == pytest.approx(0.01, rel=_PPF_TOL_PER_K * 1001.0)
        with pytest.raises(ValueError, match="k_factor <= 1000 at m_patterns = 2"):
            RatioDistParams(1000.5, 1.0, 2).sf(1.0)


class TestNewtonStart:
    """The Hermite starts and the stop rules of the RAB quantiles' Newton loop."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(2, 16), k=st.floats(0.0, analytic._ISF_MAX_K, exclude_min=True),
           q=st.floats(1e-300, 1.0, exclude_max=True))
    def test_start_is_within_1e9_of_the_root(self, m, k, q):
        # The loop's first evaluation of the law is at the start; the root is
        # t = log v of the converged answer 1/v.
        log_g_and_slope, start = analytic._rab_law(k, m)
        first = []

        def recording(t):
            if not first:
                first.append(float(t[0]))
            return log_g_and_slope(t)

        inv_v = analytic._tail_newton(np.array([q]), k, recording, start)
        root = -math.log(inv_v[0])
        assert abs(first[0] - root) <= 1e-9 * max(1.0, abs(root))

    @pytest.mark.parametrize("m,k", [(m, k) for m in (2, 3, 4, 8)
                                     for k in (2.0, 10.0, 100.0, 1000.0)])
    def test_at_most_two_law_evaluations(self, m, k, monkeypatch):
        # The scheduled maximum of N users: q = 1 - U^(1/N).  Start tables are
        # built outside the loop and are not counted, and there is no law
        # evaluation besides the loop's.
        real, counts = analytic._tail_newton, []

        def counting(q_arr, k, log_g_and_slope, start):
            calls = [0, 0]

            def counted(t):
                calls[0] += 1
                calls[1] += t.size
                return log_g_and_slope(t)

            inv_v = real(q_arr, k, counted, start)
            counts.append((calls[0], calls[1] / q_arr.size))
            return inv_v

        monkeypatch.setattr(analytic, "_tail_newton", counting)
        rng = np.random.default_rng(int(10 * k) + m)
        for n in (1, 8, 64, 512):
            RatioDistParams(k, 1.0, m).isf(-np.expm1(np.log(rng.random(4096)) / n))
        assert len(counts) == 4
        assert all(calls <= 2 and per_element <= 1.01 for calls, per_element in counts), counts

    def test_linear_convergence_raises(self):
        # Steps that shrink by 0.49 each keep halving, so only the cap stops
        # them: the root is t = log q, and the start sits at t = log q / 2.
        log_q = -2.0

        def linear(t):
            return np.zeros_like(t), np.full_like(t, 1.0 / 0.51)

        start = analytic._NewtonStart(np.zeros(1), np.zeros(1), np.full(1, 0.5), np.zeros(1),
                                      np.zeros(1), 1.0)
        with pytest.raises(RuntimeError, match=r"K = 10\.0: 1 of 2 elements"):
            analytic._tail_newton(np.array([math.exp(log_q), 1.0]), 10.0, linear, start)

    def test_rounding_cycle_stops(self):
        # A law whose residual flips between +-1e-13 at the root: the steps
        # stop halving at once, and the loop ends after two evaluations.  A
        # curvature of 1e20 keeps the quadratic rule from stopping them first.
        log_q, calls = -1.0, [0]

        def cycling(t):
            calls[0] += 1
            return log_q - t + (-1.0) ** calls[0] * 1e-13, np.ones_like(t)

        start = analytic._NewtonStart(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1),
                                      np.zeros(1), 1e20)
        inv_v = analytic._tail_newton(np.array(math.exp(log_q)), 10.0, cycling, start)
        assert calls[0] == 2 and math.isfinite(inv_v)


class TestParamValidation:
    @pytest.mark.parametrize("law", [ratio_cdf, ratio_pdf, rab_m2_cdf, rab_m2_tail_cdf])
    @pytest.mark.parametrize("z", [-1.0, math.nan, math.inf, [0.5, -math.inf]])
    def test_z_laws_require_finite_nonnegative_z(self, law, z):
        m = 2 if law is rab_m2_tail_cdf else 1
        with pytest.raises(ValueError, match="finite z >= 0"):
            law(z, RatioDistParams(10.0, 1.0, m))

    @pytest.mark.parametrize("law", [ratio_cdf, ratio_pdf])
    @pytest.mark.parametrize("m", [2, 3])
    def test_one_pattern_laws_refuse_more_patterns(self, law, m):
        # At M = 3, K = 10 the M = 1 form gives F(2) = 0.8183; the law's own cdf is 0.6893.
        with pytest.raises(ValueError, match=f"{law.__name__} requires m_patterns = 1, got {m}"):
            law(2.0, RatioDistParams(10.0, 1.0, m))

    @pytest.mark.parametrize("m", [1, 3])
    def test_two_pattern_tail_refuses_other_patterns(self, m):
        with pytest.raises(ValueError, match=f"rab_m2_tail_cdf requires m_patterns = 2, got {m}"):
            rab_m2_tail_cdf(1e3, RatioDistParams(10.0, 1.0, m))

    def test_ratio_params(self):
        with pytest.raises(ValueError):
            RatioDistParams(k_factor=1.0, power_ratio=0.0)
        with pytest.raises(ValueError):
            RatioDistParams(k_factor=float("inf"), power_ratio=1.0)
