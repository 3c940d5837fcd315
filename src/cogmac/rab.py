"""Random aerial beamforming: the arcsine law behind the artificial LoS.

A user assigns weight (1/sqrt(M)) e^{j theta_i} to each of its M basis
patterns, with fresh uniform phases every slot.  The interference link then
carries a randomized ("artificial") LoS phasor; for M = 2 its power is
(K gamma_sp / (K+1)) (1 + cos(theta)) with theta uniform, so it follows the
arcsine law of cos(theta).  The channel draws themselves live in
:func:`cogmac.channels.draw_gains`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["arcsine_cdf"]


def arcsine_cdf(y):
    """CDF 1/2 + arcsin(y)/pi of cos(U), U uniform; 0 below -1 and 1 above 1."""
    return 0.5 + np.arcsin(np.clip(np.asarray(y, dtype=float), -1.0, 1.0)) / math.pi
