"""Empirical-versus-analytic validation helpers: sorted sample sets and
one-sample Kolmogorov-Smirnov tests against a callable CDF.

Critical values are asymptotic (valid for n >= ~1000); the suite always
uses n >= 1e4.  The goodness-of-fit level is fixed at 1%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KS_COEFF_1PCT",
    "EmpiricalDist",
    "KsReport",
    "ks_test",
]

# Asymptotic 1% KS critical value: sqrt(-ln(0.005)/2) = 1.6276...
KS_COEFF_1PCT = 1.628


@dataclass(frozen=True)
class EmpiricalDist:
    """Sorted sample set with its size; any input shape is flattened."""

    sorted_samples: np.ndarray
    n: int

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDist":
        arr = np.sort(np.asarray(samples, dtype=float).ravel())
        if arr.size < 1:
            raise ValueError("need at least one sample")
        return cls(sorted_samples=arr, n=int(arr.size))


@dataclass(frozen=True)
class KsReport:
    """One KS comparison: statistic, sample size, 1% threshold, verdict."""

    statistic: float
    n: int
    threshold_1pct: float
    passed: bool


def ks_test(dist: EmpiricalDist, analytic_cdf) -> KsReport:
    """One-sample KS statistic against a callable CDF.

    Uses both one-sided step corrections: sup over sample points of
    max(i/n - F(x_i), F(x_i) - (i-1)/n).  The analytic CDF is called once
    on the whole sorted sample array and must return an array of its shape,
    nondecreasing along the samples, or a ValueError is raised.
    """
    x = dist.sorted_samples
    n = dist.n
    f = np.asarray(analytic_cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"analytic cdf returned shape {f.shape} for samples of shape {x.shape}")
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("analytic cdf is not monotone over the sample range")
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    stat = float(max(upper.max(), lower.max()))
    threshold = KS_COEFF_1PCT / math.sqrt(n)
    return KsReport(statistic=stat, n=n, threshold_1pct=threshold, passed=stat < threshold)
