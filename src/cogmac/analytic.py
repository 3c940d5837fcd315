"""Closed-form distributions and capacity scaling laws for the underlay MAC model.

Conventions used throughout:

* ``k_factor`` (K) is the Rician ratio of specular to scattered power;
  K = 0 degenerates to Rayleigh fading.
* ``power_ratio`` (rho) is mean interference power over mean secondary
  power, so the SINR-driving ratio variable z has a heavy 1/z tail with
  scale 1/rho.
* All laws and log quantities are in nats.

Everything in this module is a pure scalar/ndarray function with no RNG:
a 0-d input (a Python or numpy scalar, or a 0-d array) gives a float, any
other input an array of its shape.  The one state is a cache of the
per-(K, M) laws behind :meth:`RatioDistParams.sf` and
:meth:`~RatioDistParams.isf`, filled on first use and the same whichever
thread fills it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "RatioDistParams",
    "wright_omega",
    "bessel_i0e",
    "ratio_cdf",
    "ratio_pdf",
    "normalizer_a_n",
    "theorem1_law",
    "effective_users_moderate_k",
    "effective_users_rab_m2",
    "rab_m2_cdf",
    "rab_m2_tail_cdf",
]

# Below y = -40, omega(y) = e^y - e^2y + ... equals e^y to double precision.
_OMEGA_TINY_Y = -40.0
# Above y = 1e10, omega(y) = y - log(y) + log(y)/y + ... equals y - log(y) to
# double precision (the third term is below 1e-18 of the sum).
_OMEGA_HUGE_Y = 1e10
# Series/asymptotic crossover for I0 and I1; both branches agree to ~5e-15 here.
_BESSEL_SERIES_CUTOFF = 15.0
# Power-series coefficients of I0 and I1/(x/2) in q = x^2/4, m = 0..32: the
# cumprod of the step ratio of term m to term m-1.  Up to the crossover, term
# 32 is below 1e-20 of the sum.
_SERIES_M = np.arange(1, 33)
_I0_SERIES = np.cumprod(np.r_[1.0, 1.0 / _SERIES_M**2])
_I1_SERIES = np.cumprod(np.r_[1.0, 1.0 / (_SERIES_M * (_SERIES_M + 1))])
# Asymptotic coefficients of sqrt(2 pi x) exp(-x) I_nu(x) in 1/x, k = 0..30,
# with steps (2k-1)^2 / (8k) for nu = 0 and ((2k-1)^2 - 4) / (8k) for nu = 1.
# For x >= 15 every term through k = 30 is smaller than the one before it; at
# x = 15, term 30 is I0's smallest.
_ODD = np.arange(1, 61, 2)  # 2k - 1
_I0E_ASYMPTOTIC = np.cumprod(np.r_[1.0, _ODD**2 / (4.0 * (_ODD + 1))])
_I1E_ASYMPTOTIC = np.cumprod(np.r_[1.0, (_ODD**2 - 4) / (4.0 * (_ODD + 1))])
# Newton on a RAB quantile stops an element once its step in t, or the
# quadratic error term of that step, is below this times max(1, |t|), a few
# ulps, or once its step no longer halves.
_PPF_STEP_ULPS = 4.0 * np.finfo(float).eps
# An element still moving after this many steps raises; from its Hermite
# start nearly every element stops after one (tests/test_analytic.py).
_NEWTON_STEPS = 16
# Nodes of the Hermite starts of a RAB quantile, in t = log v.
_START_NODES = 1025
# Kluyver's integral g_M(c) = 2 int_0^inf u exp(-u^2) J0(2 sqrt(c) u)^M du is
# taken by P equal 16-point Gauss-Legendre panels on [0, 6.5]; beyond, the
# weight is below exp(-42).  J0(2 sqrt(c) u)^M falls off over a width in u of
# about 1/sqrt(M c), so P = max(6, ceil(2.5 sqrt(M c))): 6 to 8 panels at
# K = 10, up to 25 at K = 100 and 80 at K = 1000.  Certified for c <= K/M
# with K <= _ISF_MAX_K (tests/test_analytic.py), where the log of the rule's
# sum is within 3 to 12 eps of a 30-digit quadrature (M = 3, 5 and 16).
_KLUYVER_SPAN = 6.5
_KLUYVER_MIN_PANELS = 6
_KLUYVER_PANELS_PER_ROOT = 2.5
# Largest K that RatioDistParams.sf and isf are certified for, at every M
# (the Hypothesis properties in tests/test_analytic.py); the simulator's
# order-statistic sampler runs up to it.
_ISF_MAX_K = 1e3
# The 16-point Gauss-Legendre rule on [-1, 1], nodes ascending, as
# constants: numpy's leggauss(16) to the bit (tests/test_kluyver_constants.py),
# without the numpy.polynomial import and the LAPACK eigen-solve behind it.
_GAUSS16_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GAUSS16_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])


@dataclass(frozen=True)
class RatioDistParams:
    """The law of one user's ratio z = secondary power / interference power
    under M-pattern RAB (M = 1: one conventional antenna).

    With t = rho z/(K+1), v = 1/(1+t) and c = (K/M)(1 - v), the upper tail
    is S(z) = v g_M(c), where g_M(c) = E exp(-c |sum_{i<=M} exp(j theta_i)|^2)
    over iid uniform phases is Kluyver's random-walk integral.  g_1(c) =
    exp(-c) is the law of :func:`ratio_cdf`, g_2(c) = exp(-2c) I0(2c) that
    of :func:`rab_m2_cdf`, and K = 0 is the Rayleigh law at every M, as
    g_M(0) = 1.  Those named forms read K and rho only; :meth:`sf` and
    :meth:`isf` read M too.
    """

    k_factor: float      # K of the interference channel
    power_ratio: float   # rho = mean interference power / mean secondary power
    m_patterns: int = 1  # M, the RAB basis patterns

    def __post_init__(self) -> None:
        _k_factor(self.k_factor, "RatioDistParams")
        if not math.isfinite(_real(self.power_ratio, "power_ratio")) or self.power_ratio <= 0.0:
            raise ValueError(f"power_ratio must be finite and > 0, got {self.power_ratio}")
        m = self.m_patterns
        if isinstance(m, (bool, np.bool_)) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"m_patterns must be an integer >= 1, got {m!r}")
        object.__setattr__(self, "m_patterns", int(m))

    def sf(self, z):
        """The upper tail S(z) = v g_M(c), to full relative precision.

        v = (K+1)/(rho z + K + 1); log g = -K(1 - v) at M = 1 and K = 0, and
        at M >= 2 the law of :func:`_rab_law`, the one :meth:`isf` inverts, so
        F = 1 - S is exact only absolutely as z -> 0.  Certified for K <=
        ``_ISF_MAX_K`` = 1000 (tests/test_analytic.py), and raises ValueError above."""
        k, m = self._certified_k("RatioDistParams.sf"), self.m_patterns
        z_arr = _ratios(z, "RatioDistParams.sf")
        with np.errstate(over="ignore", divide="ignore"):  # rho z = inf: v = 0, log v = -inf
            v = (k + 1.0) / (self.power_ratio * z_arr + k + 1.0)
            if m == 1 or k == 0.0:
                log_g = -k * (1.0 - v)
            else:  # the law works in place, on an array even for a 0-d z
                log_g = _rab_law(k, m)[0](np.log(v).reshape(-1))[0].reshape(np.shape(v))
        return _scalar_or_array(v * np.exp(log_g))

    def isf(self, q):
        """The z whose upper tail S(z) is q: sf(z) = q.  Each branch below
        finds 1/v = 1 + rho z/(K+1), and z = max((K+1)(1/v - 1)/rho, 0).

        K = 0, at any M: the Rayleigh law, S = v, so 1/v = 1/q.

        M = 1 with K > 0, in closed form: 1/v = K/W with W = W0(K e^K q) =
        wright_omega(y) at y = log K + K + log q, so that K e^K never
        overflows.  Where K e^K q is below 1, K/W is formed as e^W e^-K / q
        (W e^W = K e^K q), which stays finite where W underflows.

        M >= 2 with K > 0: Newton's method on log S = log q in t = log v
        (:func:`_tail_newton`), on the law :func:`_rab_law` builds once per
        (K, M) from the Bessel pair at M = 2 and from a Chebyshev table of
        Kluyver's integral at M >= 3; nearly every element takes one
        evaluation of the law.

        Accepts scalars or ndarrays with 0 < q <= 1; q = 1 gives z = 0.
        Certified for K <= ``_ISF_MAX_K`` = 1000 at every M (the Hypothesis
        properties in tests/test_analytic.py), and raises ValueError above:
        past K = 1e10 the difference K/W - 1 of the closed form cancels.
        Where z leaves the float range (q below about 1e-308 / (K+1)) it is
        inf, without a warning, at every M.
        """
        k, m = self._certified_k("RatioDistParams.isf"), self.m_patterns
        q_arr = _tail_probabilities(q, "RatioDistParams.isf")
        if k == 0.0:  # the Rayleigh law at every M: 1/v = 1/q
            with np.errstate(over="ignore"):
                inv_v = 1.0 / q_arr
        elif m > 1:
            inv_v = _tail_newton(q_arr, k, *_rab_law(k, m))
        else:
            with np.errstate(divide="ignore", over="ignore"):
                log_x = np.log(k) + k + np.log(q_arr)
                w = np.asarray(wright_omega(log_x))
                inv_v = np.divide(k, w, out=np.empty_like(w))  # K/W = 1/v
                below = np.asarray(log_x < 0.0)
                if below.any():  # the exponential only where it is used
                    inv_v[below] = np.exp(w[below]) * (math.exp(-k) / q_arr[below])
        with np.errstate(over="ignore"):  # z past the float range: inf
            return _scalar_or_array(np.maximum((k + 1.0) * (inv_v - 1.0) / self.power_ratio, 0.0))

    def _certified_k(self, law: str) -> float:
        """K, once it is within ``_ISF_MAX_K``."""
        k = self.k_factor
        if k > _ISF_MAX_K:
            raise ValueError(f"{law} requires k_factor <= {_ISF_MAX_K:g} at m_patterns = "
                             f"{self.m_patterns}, got {k}")
        return k


def wright_omega(y):
    """Wright omega function omega(y) = W0(e^y): the w > 0 with w + log(w) = y.

    This is the principal Lambert W at x = e^y, taken through log(x) so
    that arguments such as K e^K / N, whose x overflows a float, still work
    (Corless & Jeffrey, "The Wright omega function", 2002).  Defined for
    y in [-inf, inf); omega(-inf) = 0.  Accepts scalars or ndarrays.

    Three Newton steps from Winitzki's guess, which is within 2% on the
    whole line; each step squares the relative error and halves it at
    least.  What is left is the rounding of 1 + y - log(w), about
    (1 + |y|) eps relative: against scipy's wrightomega on [-45, 50] the
    error is within 2 (1 + |y|) eps and at most 7.2e-15, near y = -33.
    Below y = -40, omega(y) = e^y to double precision; above y = 1e10,
    omega(y) = y - log(y).
    """
    a = _grid(y, "wright_omega", "y", "y in [-inf, inf)", lambda v: v < np.inf)
    # Clamped to [-40, 1e10], y keeps the iteration finite (its step
    # overflows from y = 3e154); the elements outside take their closed forms.
    small, tiny = a < _OMEGA_TINY_Y, np.exp(np.minimum(a, _OMEGA_TINY_Y))
    yc = np.clip(a, _OMEGA_TINY_Y, _OMEGA_HUGE_Y)
    # Winitzki's guess from L = log(1 + e^y), formed without e^y.
    ell = np.logaddexp(0.0, yc)
    w = ell * (1.0 - np.log1p(ell) / (2.0 + ell))
    for _ in range(3):  # Newton on w + log(w) = y; relative error 2e-2, 2e-4, 2e-8, rounding
        w = w * (1.0 + yc - np.log(w)) / (1.0 + w)
    w = np.where(small, tiny, w)
    big = a > _OMEGA_HUGE_Y
    if big.any():  # skips a full-size log on the common input
        w = np.where(big, a - np.log(np.maximum(a, _OMEGA_HUGE_Y)), w)
    return _scalar_or_array(w)


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function, exp(-|x|) * I0(x).

    Accepts scalars or ndarrays; a scalar input returns a float.
    """
    ax = np.abs(_grid(x, "bessel_i0e", "x", "finite input", np.isfinite))
    return _scalar_or_array(_bessel_i0e_i1e(ax.reshape(-1))[0].reshape(ax.shape))


def _bessel_i0e_i1e(ax: np.ndarray) -> tuple:
    """(exp(-x) I0(x), exp(-x) I1(x)) of a 1-d array of finite x >= 0.

    Power series up to the crossover, asymptotic series above it, each one
    fixed polynomial (Abramowitz & Stegun 9.6.10 and 9.7.1) evaluated by
    Horner's rule; each element's result depends only on that element.  An
    array on one side of the crossover takes its branch whole; a mixed one
    is split and each part takes its own.
    """
    small = ax <= _BESSEL_SERIES_CUTOFF
    if small.all():
        return _bessel_series(ax)
    if not small.any():
        return _bessel_asymptotic(ax)
    i0e, i1e = np.empty_like(ax), np.empty_like(ax)
    i0e[small], i1e[small] = _bessel_series(ax[small])
    large = ~small
    i0e[large], i1e[large] = _bessel_asymptotic(ax[large])
    return i0e, i1e


def _bessel_series(x: np.ndarray) -> tuple:
    """(i0e, i1e) by the power series: I0 = sum q^m / (m!)^2 and
    I1 = (x/2) sum q^m / (m! (m+1)!), q = x^2/4; positive terms, no
    cancellation."""
    q = np.square(x)
    q *= 0.25
    scale = np.exp(-x)
    i0e = _horner(_I0_SERIES, q)
    i0e *= scale
    # scale (x/2) in q's buffer, once the series has read q.
    i1e = _horner(_I1_SERIES, q)
    i1e *= np.multiply(scale, np.multiply(0.5, x, out=q), out=q)
    return i0e, i1e


def _bessel_asymptotic(x: np.ndarray) -> tuple:
    """(i0e, i1e) by the asymptotic series in 1/x."""
    inv = 1.0 / x
    # sqrt(2 pi) sqrt(x), as 2 pi x overflows from x ~ 2.9e307.
    root = math.sqrt(2.0 * math.pi) * np.sqrt(x)
    return _horner(_I0E_ASYMPTOTIC, inv) / root, _horner(_I1E_ASYMPTOTIC, inv) / root


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomial sum_k coef[k] x^k at x, by Horner's rule."""
    out = np.full_like(x, coef[-1])
    for a in coef[-2::-1]:
        out *= x
        out += a
    return out


def _grid(x, law: str, name: str, rule: str, holds) -> np.ndarray:
    """``x`` as a float array, once ``holds`` is true at every element; else a
    ValueError naming ``law`` and ``rule``, or ``name`` for an int past the
    float range (not a bare OverflowError)."""
    try:
        arr = np.asarray(x, dtype=float)
    except OverflowError:
        raise ValueError(
            f"{law} requires {name} in the float range, got a number past it") from None
    if not np.all(holds(arr)):
        raise ValueError(f"{law} requires {rule}, got {x}")
    return arr


def _ratios(z, law: str) -> np.ndarray:
    return _grid(z, law, "z", "finite z >= 0", lambda a: np.isfinite(a) & (a >= 0.0))


def _tail_probabilities(q, law: str) -> np.ndarray:
    return _grid(q, law, "q", "0 < q <= 1", lambda a: (a > 0.0) & (a <= 1.0))


def _user_counts(n_users, least: int, law: str) -> np.ndarray:
    return _grid(n_users, law, "n_users", f"n_users >= {least}", lambda a: a >= least)


def _real(value, name: str) -> float:
    """``value`` as a float, once it is a real number in float range and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be finite, got a number past the float range") from None


def _k_factor(k_factor: float, law: str, positive: bool = False) -> float:
    """K as a float, once it is finite and >= 0, or > 0 for a law singular at K = 0."""
    k = _real(k_factor, "k_factor")
    if not math.isfinite(k) or k < 0.0 or (positive and k == 0.0):
        raise ValueError(
            f"{law} requires finite k_factor {'>' if positive else '>='} 0, got {k_factor}"
        )
    return k


def _patterns(params: RatioDistParams, m: int, law: str) -> None:
    """Refuse a law of other than M = ``m`` patterns in an M-pattern closed form."""
    if params.m_patterns != m:
        raise ValueError(f"{law} requires m_patterns = {m}, got {params.m_patterns}")


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def ratio_cdf(z, params: RatioDistParams):
    """CDF of z = secondary power / Rician interference power.

    F(z) = 1 - (K+1)/u * exp(-K rho z/u) with u = rho z + K + 1.
    Accepts scalars or ndarrays; K = 0 reduces to 1 - 1/(rho z + 1).  The
    law of one pattern: ``params.m_patterns`` must be 1.
    """
    _patterns(params, 1, "ratio_cdf")
    z_arr = _ratios(z, "ratio_cdf")
    k = params.k_factor
    rho = params.power_ratio
    with np.errstate(over="ignore"):  # rho z past the float range: u = inf, F = 1
        u = rho * z_arr + k + 1.0
    # The exponent as -(K/u) rho z: K/u < 1, so K(K+1) is never formed.
    return _scalar_or_array(1.0 - (k + 1.0) / u * np.exp(-(k / u * rho) * z_arr))


def ratio_pdf(z, params: RatioDistParams):
    """Density of the secondary-to-interference power ratio.

    f(z) = rho r exp(-K rho z/u) (r^2 + rho z/u^2) with u = rho z + K + 1
    and r = (K+1)/u; the exact derivative of :func:`ratio_cdf`, so
    ``params.m_patterns`` must be 1 too.
    """
    _patterns(params, 1, "ratio_pdf")
    z_arr = _ratios(z, "ratio_pdf")
    k = params.k_factor
    rho = params.power_ratio
    with np.errstate(over="ignore"):  # rho z past the float range: u = inf, f = 0
        u = rho * z_arr + k + 1.0
    r = (k + 1.0) / u
    out = rho * r * np.exp(-(k / u * rho) * z_arr) * (r * r + rho / u * z_arr / u)
    return _scalar_or_array(out)


def normalizer_a_n(n_users, params: RatioDistParams):
    """Extreme-value normalizing constant: the 1 - 1/N quantile of the law.

    a_N = params.isf(1/N), so params.sf(a_N) = 1/N, for every M.  At
    M = 1 it is [K(K+1)/W(K e^K / N) - (K+1)] / rho, and K = 0 gives
    (N-1)/rho at every M.
    """
    return params.isf(1.0 / _user_counts(n_users, 2, "normalizer_a_n"))


def theorem1_law(n_users, k_factor: float):
    """Sum-capacity growth law under Rician interference, in nats.

    log(K(K+1) / W(K e^K / N)); tends to log(N) as K -> 0 and to a
    log(log N)-type growth for large K.  K = 0 returns log(N) exactly.
    """
    n = _user_counts(n_users, 2, "theorem1_law")
    k = _k_factor(k_factor, "theorem1_law")
    if k == 0.0:
        return _scalar_or_array(np.log(n))
    w = wright_omega(math.log(k) + k - np.log(n))
    # log K + log(K+1), not log(K(K+1)): the product overflows from K = 1.3e154.
    return _scalar_or_array(math.log(k) + math.log1p(k) - np.log(w))


def effective_users_moderate_k(n_users, k_factor: float):
    """Equivalent Rayleigh-interference user count N (K+1) exp(-K)."""
    n = _user_counts(n_users, 1, "effective_users_moderate_k")
    k = _k_factor(k_factor, "effective_users_moderate_k")
    # (K+1) e^-K first: N (K+1) overflows at huge K (N = 8 from K = 2.2e307),
    # and inf * 0 is nan.
    return _scalar_or_array(n * ((k + 1.0) * math.exp(-k)))


def effective_users_rab_m2(n_users, k_factor: float):
    """Effective user count N sqrt((K+1)^2 / (2 pi K)) under two-pattern RAB.

    Grows with K; undefined at K = 0 where the formula is singular.
    """
    n = _user_counts(n_users, 1, "effective_users_rab_m2")
    k = _k_factor(k_factor, "effective_users_rab_m2", positive=True)
    # (K+1)/sqrt(K) first: K+1 times N, or 2 pi K, overflows at K = 1e308.
    return _scalar_or_array(n * ((k + 1.0) / math.sqrt(k)) / math.sqrt(2.0 * math.pi))


def _rab_m2_prefactor(z_arr: np.ndarray, params: RatioDistParams) -> np.ndarray:
    k = params.k_factor
    with np.errstate(over="ignore"):  # rho z past the float range: u = inf, F = 1
        return (k + 1.0) / (params.power_ratio * z_arr + k + 1.0)


def rab_m2_cdf(z, params: RatioDistParams):
    """CDF of the equivalent power ratio under two-pattern RAB.

    Mixture of conditional Rician-ratio laws over the arcsine LoS power:
    F(z) = 1 - (K+1)/(rho z + K+1) * exp(-y) I0(y) with
    y = K rho z / (rho z + K + 1).  Stable for any K (scaled Bessel); y is
    formed as rho z (K / (rho z + K + 1)), as K rho z overflows at huge K.
    Reads K and rho of ``params`` and accepts any ``m_patterns``, since
    perfbench/reference.py passes it one-pattern params; it refuses M != 2,
    as :func:`rab_m2_tail_cdf` does, once that caller passes M = 2.
    """
    z_arr = _ratios(z, "rab_m2_cdf")
    with np.errstate(over="ignore", invalid="ignore"):  # rho z = inf: y = inf * 0, limit K
        rz, k = params.power_ratio * z_arr, params.k_factor
        y = np.nan_to_num(rz * (k / (rz + k + 1.0)), nan=k)
    return _scalar_or_array(1.0 - _rab_m2_prefactor(z_arr, params) * bessel_i0e(y))


class _NewtonStart(NamedTuple):
    """The cached start of :func:`_tail_newton` on one law of :func:`_rab_law`.

    Node j is t_j = log v, with y_j = log S at it, increasing in j.  Row j of
    (t, dt, d2t, d3t) holds the Taylor coefficients about y_j of the start
    t(log q) for log q in (y_(j-1), y_j], row 0 for log q <= y_0.
    ``curvature`` bounds f''/(2 f') of f(t) = log S(t), the factor of
    Newton's quadratic error term.
    """

    y: np.ndarray
    t: np.ndarray
    dt: np.ndarray
    d2t: np.ndarray
    d3t: np.ndarray
    curvature: float


@functools.lru_cache(maxsize=32)
def _rab_law(k: float, m: int) -> tuple:
    """(log_g_and_slope, start) of the M-pattern law at K, for sf and :func:`_tail_newton`.

    As a function of t = log v, ``log_g_and_slope(t)`` gives log g_M(c) and
    d log S / dt at c = (K/M)(1 - e^t), for K > 0.  M = 2 from the Bessel
    pair, g_2(c) = exp(-2c) I0(2c); M >= 3 from the Chebyshev series of
    :func:`_log_g_series`, built here once, and :func:`_series_at`'s one pass,
    less the series at c = 0, which the start's node t = 0 gives.  There the
    rounding of the series (its DCT and that pass), not of the values it is
    built from, sets the error of log g: about 20 to 40 eps at K <= 100 and
    up to 130 eps at K = 1000, against a 22-digit quadrature (M = 3, 4, 8).

    ``start`` is the :class:`_NewtonStart` of the law.  Its nodes are
    -t = geomspace(40, 1e-7) and t = 0: geometric, so that they are as
    dense at every scale of |t|, down to the root of a q near 1 at t of
    about log(q)/(K+1).  Between two nodes the start is the cubic Hermite
    interpolant of the inverse t(log S), from t and its slope 1/(d log S/dt)
    at both; left of the first node it is the tangent there, as left of
    -40 log S differs from t + log g(K/M) by about K e^-40.  The curvature
    bound is twice the largest f''/(2 f') between nodes, with f'' taken as
    the difference quotient of the slopes and f' as the left slope.  All of
    it comes from one vector call of the law, the arrays are read-only, and
    it is the same whichever thread builds it.
    """
    t = np.append(-np.geomspace(40.0, 1e-7, _START_NODES - 1), 0.0)
    if m == 2:
        def log_g_and_slope(t):
            # 1 + K e^t (1 - i1e/i0e) in i1e's buffer, and log g in i0e's.
            i0e, slope = _bessel_i0e_i1e(-k * np.expm1(t))
            slope /= i0e
            np.subtract(1.0, slope, out=slope)
            slope *= k * np.exp(t)
            slope += 1.0
            return np.log(i0e, out=i0e), slope

        log_g, slope = log_g_and_slope(t)
    else:
        coef = _log_g_series(k, m)

        def series_and_slope(t):
            # The slope is d log S / dt = 1 + (d log g / dx)(dx / dt), with
            # x = 1 - 2 e^t.
            v = np.exp(t)
            series, d_dx = _series_at(coef, v, -np.expm1(t))
            return series, 1.0 - 2.0 * v * d_dx

        # Less the series at c = 0, the start's last node t = 0, which rounds
        # to a few ulps of |a_0|, not to 0: log g(0) = 0 exactly, and so q = 1
        # gives z = 0.
        log_g, slope = series_and_slope(t)
        at_zero = float(log_g[-1])
        log_g -= at_zero

        def log_g_and_slope(t):
            series, slope = series_and_slope(t)
            return series - at_zero, slope

    y, dt = t + log_g, 1.0 / slope
    # The cubic p(d) = t_j + dt_j d + d2t_j d^2 + d3t_j d^3 in d = log q - y_j
    # with p(-h) = t_(j-1) and p'(-h) = dt_(j-1), h = y_j - y_(j-1).
    h = np.diff(y)
    secant = np.diff(t) / h
    d2t = np.r_[0.0, (dt[:-1] + 2.0 * dt[1:] - 3.0 * secant) / h]
    d3t = np.r_[0.0, (dt[:-1] + dt[1:] - 2.0 * secant) / (h * h)]
    curvature = float(np.max(np.diff(slope) / np.diff(t) / slope[:-1]))
    start = _NewtonStart(y, t, dt, d2t, d3t, curvature)
    for a in start[:5]:
        a.setflags(write=False)
    return log_g_and_slope, start


def _tail_newton(q_arr, k: float, log_g_and_slope, start: _NewtonStart):
    """1/v with v g(c) = q, in q's shape, for S = v g(c) with g non-increasing
    in c = (K/M)(1 - v).

    Newton on f(t) = log S(t) - log q in t = log v, on a law of
    :func:`_rab_law`: ``log_g_and_slope(t)`` gives log g and f'(t).  Each
    element starts on the cubic Hermite interpolant of the inverse t(log S)
    between the two nodes of ``start`` that bracket log q, within 5e-10
    max(1, |t|) of the root, so one evaluation of the law is typically all
    it takes.  An element stops once the step s just taken, or its
    quadratic error term curvature * s^2, is within 4 ulps of max(1, |t|),
    or once its step no longer halves: a step that stops shrinking is
    rounding noise.  An element still moving after the last iteration
    raises RuntimeError.  v = q / g at t - s, with log g there taken to
    first order from the last evaluation, log g - (slope - 1) s, so that
    no further law evaluation is needed; where q is within a few ulps of 1,
    v can round above 1.  Each element's 1/v depends on its own q alone.
    """
    q_flat = q_arr.reshape(-1)
    inv_v = np.ones_like(q_flat)  # q = 1: v = 1
    log_q = np.log(q_flat)
    live = np.flatnonzero(log_q < 0.0)
    q, log_q = q_flat[live], log_q[live]
    # The start's cubic in d = log q - y_j at its node j, by Horner's rule.
    j = np.searchsorted(start.y, log_q)
    d = log_q - start.y[j]
    t = start.d3t[j]
    for c in (start.d2t, start.dt, start.t):
        t *= d
        t += c[j]
    del j, d
    last = np.inf
    for _ in range(_NEWTON_STEPS):
        if live.size == 0:
            break
        log_g, slope = log_g_and_slope(t)
        step = (t + log_g - log_q) / slope
        # 1/v = g / q at t - s, before the stop test, so that the law's two
        # arrays are gone by then; an element still going overwrites it later.
        with np.errstate(over="ignore"):  # g / q past the float range: 1/v = inf
            inv_v[live] = np.exp(log_g - (slope - 1.0) * step) / q
        del log_g, slope
        size = np.abs(step)
        tol = _PPF_STEP_ULPS * np.maximum(1.0, np.abs(t))
        going = (size > tol) & (start.curvature * size * size > tol) & (size <= 0.5 * last)
        t -= step
        live, q, log_q, t, last = live[going], q[going], log_q[going], t[going], size[going]
    if live.size:
        raise RuntimeError(f"Newton on the RAB quantile at K = {k}: {live.size} "
                           f"of {q_flat.size} elements still moving after {_NEWTON_STEPS} steps")
    return inv_v.reshape(q_arr.shape)


def rab_m2_tail_cdf(z, params: RatioDistParams):
    """Large-z tail of :func:`rab_m2_cdf`: exp(-y) I0(y) replaced by 1/sqrt(2 pi K).

    The law of two patterns: ``params.m_patterns`` must be 2.
    """
    _patterns(params, 2, "rab_m2_tail_cdf")
    k = _k_factor(params.k_factor, "rab_m2_tail_cdf", positive=True)
    z_arr = _ratios(z, "rab_m2_tail_cdf")
    return _scalar_or_array(1.0 - _rab_m2_prefactor(z_arr, params) / math.sqrt(2.0 * math.pi * k))


def _j0_complement(x: np.ndarray) -> np.ndarray:
    """1 - J0(x), elementwise, of an array of finite x >= 0.

    J0(x) is the mean of cos(x sin theta) over n equally spaced theta, and
    the rule is exact to rounding once n >= x + 10 x^(1/3) + 12 (certified
    against scipy in tests/test_analytic.py); n is set by the array's largest
    x and rounded up to a multiple of 4, so that the symmetry of sin folds
    the mean onto a quarter period.  Each 1 - cos(a) is formed as 2 sin^2(a/2),
    which keeps small x to full relative precision, and sin^2 as 1/(1 + 1/tan^2),
    as numpy's tan is vectorized where its sin is not (about 3x faster on an
    AVX-512 Xeon, numpy 2.4).  One theta at a time, so temporaries are the
    size of x.
    """
    top = float(x.max(initial=0.0))
    quarter = -(-(math.ceil(top + 10.0 * top ** (1.0 / 3.0)) + 12) // 4)
    half_sines = 0.5 * np.sin((0.5 * math.pi / quarter) * np.arange(1, quarter))
    inner, term = np.zeros_like(x), np.empty_like(x)
    # tan(a) = 0, or 1/tan^2 past the float range at tiny a: sin^2 = 0.
    with np.errstate(divide="ignore", over="ignore"):
        for s in half_sines.tolist():
            inner += _sin_squared(np.multiply(x, s, out=term))
        inner *= 2.0
        inner += _sin_squared(np.multiply(0.5, x, out=term))
    inner /= quarter
    return inner


def _sin_squared(a: np.ndarray) -> np.ndarray:
    """sin^2(a) in a's buffer, as 1/(1 + 1/tan^2(a))."""
    np.tan(a, out=a)
    np.square(a, out=a)
    np.divide(1.0, a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def _kluyver_log_g(c: np.ndarray, m: int) -> np.ndarray:
    """log g_M(c) at each c >= 0 of a 1-d array, where g_M(c) = E exp(-c
    |sum_{i<=M} exp(j theta_i)|^2) over iid uniform phases.

    Kluyver's random-walk integral gives g_M(c) = 2 int_0^inf u exp(-u^2)
    J0(2 sqrt(c) u)^M du for every M.  The rule's sum of w J0^M is divided
    by its own sum of w, so that log g_M(0) = 0 exactly.  The c that share a
    panel count P take one :func:`_j0_complement` pass at the nodes u of P
    equal panels on [0, 6.5], whose weights w include 2 u exp(-u^2), with
    temporaries of a few hundred KB at K <= 1000.
    """
    panels = np.maximum(np.ceil(_KLUYVER_PANELS_PER_ROOT * np.sqrt(m * c)),
                        _KLUYVER_MIN_PANELS).astype(int)
    g = np.empty_like(c)
    for p in sorted(set(panels.tolist())):
        rows = panels == p
        half = 0.5 * _KLUYVER_SPAN / p
        u = ((2.0 * half * np.arange(p))[:, None] + half * (_GAUSS16_NODES + 1.0)).ravel()
        w = np.tile(half * _GAUSS16_WEIGHTS, p) * 2.0 * u * np.exp(-u * u)
        j0 = 1.0 - _j0_complement(np.multiply.outer(2.0 * np.sqrt(c[rows]), u))
        power = j0.copy()
        for _ in range(m - 1):
            power *= j0
        power *= w
        g[rows] = power.sum(axis=-1) / w.sum()
    return np.log(g, out=g)


def _log_g_series(k: float, m: int) -> np.ndarray:
    """Chebyshev coefficients of log g_M(c) on c in [0, K/M], in the variable
    x = 2 c M/K - 1 = 1 - 2v.

    Degree n = ceil(16 + 12 sqrt(K)): log g_M is analytic, and this degree
    brings the series to a few eps (K+1) of Kluyver's integral for M from 3
    to 16 up to K = 1000 (tests/test_analytic.py).  The values at the n + 1
    points x_i = cos(i pi/n) are log g from one :func:`_kluyver_log_g` call,
    as it returns them; the coefficients are their DCT-I, a_j = (2/n) sum''
    f_i cos(pi i j/n) with the end terms of the sum and of a halved, by the
    direct cosine sum with i j reduced mod 2n.
    """
    n = math.ceil(16.0 + 12.0 * math.sqrt(k))
    i = np.arange(n + 1)
    # c = (K/M)(1 + x_i)/2, with 1 + cos(a) = 2 cos^2(a/2).
    f = _kluyver_log_g((k / m) * np.cos(0.5 * np.pi * i / n) ** 2, m)
    f[[0, -1]] *= 0.5
    cosines = np.cos((np.pi / n) * np.arange(2 * n))[np.multiply.outer(i, i) % (2 * n)]
    cosines *= f
    coef = cosines.sum(axis=-1)
    coef *= 2.0 / n
    coef[[0, -1]] *= 0.5
    return coef


def _series_at(coef: np.ndarray, v: np.ndarray, one_minus_v: np.ndarray) -> tuple:
    """(series, d series / dx) of a Chebyshev series at x = 1 - 2v, given v
    and 1 - v to full precision, from one pass over the coefficients; each
    element's pair depends on that element alone.

    The series by Clenshaw's recurrence in Reinsch's form: it steps with the
    offset of x from its nearer end, 1 - x = 2v or 1 + x = 2(1 - v), and
    not with x, whose rounding near -1 would cost up to K/4 ulps of log g.
    The derivative, sum k a_k U_(k-1)(x), by the plain Clenshaw recurrence
    of the second-kind polynomials U: it only sets Newton's step.
    """
    top = v < 0.5
    sign = np.where(top, 1.0, -1.0)
    offset2 = np.where(top, -4.0 * v, 4.0 * one_minus_v)  # 2 (x - sign)
    x2 = 2.0 - 4.0 * v
    b, d, u, u_next, tmp = (np.zeros_like(v) for _ in range(5))
    for k, a in zip(range(coef.size - 1, 0, -1), coef[:0:-1].tolist()):
        d *= sign
        d += np.multiply(offset2, b, out=tmp)
        d += a
        b *= sign
        b += d
        # u_(k-1) = 2x u_k - u_(k+1) + k a_k; the buffer of u_(k+1) is free next.
        np.multiply(x2, u, out=tmp)
        tmp -= u_next
        tmp += k * a
        u, u_next, tmp = tmp, u, u_next
    return coef[0] + 0.5 * offset2 * b + sign * d, u
