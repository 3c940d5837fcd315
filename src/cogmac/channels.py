"""The channel kernel: seeded draws of every user's equivalent link powers.

Under max-SINR scheduling with interference-inverting power, a user enters
the capacity only through its equivalent secondary power |h_s,eq|^2 and its
equivalent interference power |h_sp,eq|^2.  :func:`draw_gains` samples
exactly those two, through distributional identities of the full model
(M basis patterns per user, CN secondary gains, Rician interference with
frozen per-(user, pattern) LoS phases, weights e^{j theta_i} / sqrt(M) with
fresh uniform phases every slot):

* Unit-norm weights keep the secondary sum CN(0, gamma_s), so
  gain_s = gamma_s * Exp(1).
* The weighted scattering is CN(0, gamma_sp / (K+1)) whatever the weights,
  and circular, so the frozen LoS phases and the absolute weight phase drop
  out: only the artificial-LoS magnitude
  L = a |1 + sum_{i=2..M} e^{j theta_i}| / sqrt(M), a = sqrt(K gamma_sp / (K+1)),
  survives, with M-1 uniform relative phases.  It is formed in real
  arithmetic from the half-angle tangents t = tan(theta/2): 2/sqrt(1+t^2)
  for M = 2, else re = 1 + sum (1-t^2)/(1+t^2) and im = sum 2t/(1+t^2)
  (Weierstrass identities, exact; numpy's float64 tan is vectorized where
  its cos and sin are scalar).
* The scattering is drawn in polar form (Box & Muller, 1958): radius
  r = sqrt(gamma_sp E / (K+1)) with E ~ Exp(1), and an independent uniform
  angle phi = 2 pi U.  Then gain_sp = |L + r e^{j phi}|^2
  = (L - r)^2 + 4 L r / (1 + tan^2(phi/2)), a sum of nonnegative terms;
  the expanded L^2 + r^2 + 2 L r cos(phi) can round below zero.
* At K = 0, L is zero and gain_sp = gamma_sp * Exp(1) for every M, the
  same identity as gain_s: two exponentials per user, no phases, no angle.

The kernel takes an explicit ``numpy.random.Generator``; nothing touches
global RNG state, so chunks can run concurrently on independent streams.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .simulator import NetworkConfig

__all__ = ["draw_gains"]


def _half_tan(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """tan(pi U) of fresh uniforms U, in ``out``: the half-angle tangent of
    a uniform phase 2 pi U."""
    rng.random(out=out)
    out *= math.pi
    return np.tan(out, out=out)


def draw_gains(
    config: "NetworkConfig", rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Equivalent powers (gain_s, gain_sp) of ``size`` independent slots.

    Each array has shape (size, n_users); all entries are independent.
    ``config.mode`` does not matter: baseline is the M = 1 case, where the
    single weight is a pure phase rotation.

    Fixed draw order: secondary exponentials, then at K > 0 the M-1
    relative weight phases (one (size, n_users) plane after another), then
    the scattering's exponentials E, then at K > 0 its angles U.  The draws
    are combined in place, in 2 to 5 (size, n_users) planes of one buffer
    per call: as one allocation a block's working set stays on glibc's
    heap, where separate planes were unmapped and faulted in again.
    """
    n, m, k = config.n_users, config.m_patterns, config.k_factor
    buf = np.empty((2 if k == 0.0 else 3 if m == 1 else 4 if m == 2 else 5, size, n))
    gain_s = rng.standard_exponential(out=buf[0])
    gain_s *= config.mean_secondary_power
    los = math.sqrt(k * config.mean_interference_power / (k + 1.0))
    if k > 0.0 and m > 1:
        t = buf[1]  # one plane of half-angle tangents tan(theta / 2)
        if m == 2:  # |1 + e^{j theta}| = 2 |cos(theta / 2)| = 2 / sqrt(1 + t^2)
            mag = np.square(_half_tan(rng, t), out=t)
            mag += 1.0
            np.divide(2.0, np.sqrt(mag, out=mag), out=mag)
        else:  # cos theta = 2 w - 1 and sin theta = 2 t w, w = 1 / (1 + t^2)
            re, im, w = buf[2], buf[3], buf[4]
            buf[2:4] = 0.0
            for _ in range(m - 1):
                np.square(_half_tan(rng, t), out=w)
                w += 1.0
                np.divide(1.0, w, out=w)
                re += w
                w *= t
                im += w
            re *= 2.0  # 1 + sum cos theta_i
            re += 2.0 - m
            im *= 2.0  # sum sin theta_i
            np.square(re, out=re)
            re += np.square(im, out=im)
            mag = np.sqrt(re, out=re)
        mag *= los / math.sqrt(m)
        los = mag
    r = rng.standard_exponential(out=buf[-2 if k > 0.0 else -1])  # r^2 = gamma_sp E / (K+1)
    r *= config.mean_interference_power / (k + 1.0)
    if k == 0.0:  # L = 0: gain_sp = r^2, and no angle is drawn
        return gain_s, r
    np.sqrt(r, out=r)
    c = _half_tan(rng, buf[-1])  # tan(phi / 2), phi = 2 pi U
    np.square(c, out=c)
    c += 1.0
    np.divide(4.0, c, out=c)  # 4 cos^2(phi / 2) = 4 / (1 + tan^2(phi / 2))
    c *= r
    c *= los
    r -= los  # gain_sp = (L - r)^2 + 4 L r cos^2(phi / 2)
    np.square(r, out=r)
    r += c
    return gain_s, r
