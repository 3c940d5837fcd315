"""Empirical CDF and KS machinery tests."""

import numpy as np
import pytest

from cogmac.stats import EmpiricalDist, ks_test


class TestEmpiricalCdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            EmpiricalDist.from_samples([])


class TestKsTest:
    def test_null_distribution_passes(self):
        rng = np.random.default_rng(60)
        samples = -np.log(rng.uniform(size=10**4))  # inverse-transform Exp(1)
        report = ks_test(EmpiricalDist.from_samples(samples), lambda x: 1.0 - np.exp(-x))
        assert report.passed
        assert report.threshold_1pct == pytest.approx(1.628 / 100.0)

    def test_gross_mismatch_fails(self):
        rng = np.random.default_rng(61)
        samples = rng.exponential(1.0, size=10**4)
        report = ks_test(
            EmpiricalDist.from_samples(samples), lambda x: 1.0 - np.exp(-2.0 * np.asarray(x))
        )
        assert not report.passed

    def test_monotone_guard(self):
        d = EmpiricalDist.from_samples([0.1, 0.5, 0.9])
        with pytest.raises(ValueError):
            ks_test(d, lambda x: -np.asarray(x))

    def test_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(62)
        samples = rng.exponential(1.0, size=5000)
        base = ks_test(EmpiricalDist.from_samples(samples), lambda x: 1.0 - np.exp(-x))
        mapped = ks_test(
            EmpiricalDist.from_samples(np.sqrt(samples)),
            lambda x: 1.0 - np.exp(-np.asarray(x) ** 2),
        )
        assert mapped.statistic == pytest.approx(base.statistic, abs=1e-12)

    def test_false_rejection_rate_calibrated(self):
        rng = np.random.default_rng(63)
        rejections = 0
        for _ in range(100):
            samples = rng.uniform(size=2000)
            report = ks_test(EmpiricalDist.from_samples(samples), lambda x: np.asarray(x))
            rejections += 0 if report.passed else 1
        assert rejections <= 2

    def test_column_sample_matches_raveled(self):
        column = np.random.default_rng(66).exponential(1.0, size=(2000, 1))
        reports = [
            ks_test(EmpiricalDist.from_samples(s), lambda x: 1.0 - np.exp(-x))
            for s in (column, column.ravel())
        ]
        assert reports[0] == reports[1]
        assert reports[0].n == 2000 and reports[0].passed

    def test_cdf_of_wrong_shape_rejected(self):
        d = EmpiricalDist.from_samples([0.1, 0.5, 0.9])
        with pytest.raises(ValueError, match="shape"):
            ks_test(d, lambda x: 0.5)


class TestMaxNormalization:
    # c03's comparison: maxima scaled by a against the unit Frechet law.
    @staticmethod
    def frechet_ks(maxima, a):
        return ks_test(EmpiricalDist.from_samples(maxima / a), lambda x: np.exp(-1.0 / x))

    def test_synthetic_frechet_passes(self):
        rng = np.random.default_rng(64)
        maxima = 1.0 / -np.log(rng.uniform(size=10**4))  # exact unit Frechet
        assert self.frechet_ks(maxima, 1.0).passed

    def test_scale_mismatch_fails(self):
        rng = np.random.default_rng(65)
        maxima = 1.0 / -np.log(rng.uniform(size=10**4))
        assert not self.frechet_ks(maxima, 10.0).passed
