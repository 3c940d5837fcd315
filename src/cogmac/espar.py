"""Beamspace model of a parasitic-array antenna: reactance-controlled element
currents, steering vectors on a circular layout, orthonormal basis patterns
(QR with a positive diagonal, which is the Gram-Schmidt basis), and weight
extraction.

The module maps reactance loads to basis-pattern weights; it does not
realize the simulator's RAB weights.  The simulator draws weights of equal
magnitude 1/sqrt(M) directly and never routes through reactance space, and
the bundled coupling fixture comes nowhere near them: at M = 2, one
parasitic reactance swept over +-[1e-2, 1e6] ohms (8000 values, through
element_currents, build_basis(cfg, 256) and pattern_weights) puts at most
0.037% of the weight power on pattern 2 at the default radius lambda/16,
and 0.105% at lambda/4, where equal weights put 50%.  Geometry defaults to
a uniform circular array of radius lambda/16 with the active element at
the center; the default coupling fixture is built from the configured
geometry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .analytic import _integer, _numbers

__all__ = [
    "DegenerateLoadError",
    "RankDeficientGeometryError",
    "EsparConfig",
    "BasisSet",
    "synthetic_admittance",
    "element_currents",
    "steering_vector",
    "build_basis",
    "pattern_weights",
    "pattern_value",
]

DEFAULT_RADIUS_WAVELENGTHS = 1.0 / 16.0
_COND_LIMIT = 1e12
_ACTIVE_LOAD_OHMS = 50.0


class DegenerateLoadError(ValueError):
    """Reactance setting makes the load network numerically singular."""


class RankDeficientGeometryError(ValueError):
    """Element layout yields linearly dependent steering components."""


def synthetic_admittance(radii, angles) -> np.ndarray:
    """Bundled symmetric, diagonally dominant admittance fixture (siemens)
    for elements at polar positions (radii in wavelengths, angles in
    radians), the active element first.

    Mutual terms decay with inter-element spacing; purely a plausible
    stand-in since measured coupling matrices are hardware-specific.
    """
    x = radii * np.cos(angles)
    y = radii * np.sin(angles)
    denom = 1.0 + 8.0 * np.hypot(x[:, None] - x, y[:, None] - y)
    # Real and imaginary parts divided separately: a real divisor then gives
    # the same bits as Python's complex division.
    adm = np.empty(denom.shape, dtype=complex)
    adm.real = 0.002 / denom
    adm.imag = -0.001 / denom
    np.fill_diagonal(adm, 1.0 / _ACTIVE_LOAD_OHMS)
    return adm


def _element_layout(cfg: EsparConfig) -> tuple[np.ndarray, np.ndarray]:
    """Element radii (wavelengths) and angles (radians), the centered active
    element first."""
    n_par = len(cfg.element_angles)
    return (np.array((0.0,) + (cfg.radius_wavelengths,) * n_par),
            np.array((0.0, *cfg.element_angles)))


@dataclass(frozen=True, eq=False)
class EsparConfig:
    """Antenna description: element count, coupling matrix, feed, geometry.
    ``m_elements`` is an integer >= 1, and the feed, radius, M - 1 angles and
    M x M admittance finite numbers of those shapes, else ``ValueError``
    names the field.  The feed is stored as a complex, the radius as a float,
    the angles as a tuple of floats and the admittance as a read-only copy of
    the one given, so their checks hold for the config's lifetime; equality
    and hash are by identity."""

    m_elements: int = 4
    admittance: np.ndarray = None            # M x M complex, symmetric
    feed_voltage: complex = 1.0 + 0.0j
    radius_wavelengths: float = DEFAULT_RADIUS_WAVELENGTHS
    element_angles: tuple = None             # M-1 parasitic angles, radians

    def __post_init__(self) -> None:
        m = _integer(self.m_elements, "m_elements", 1)
        object.__setattr__(self, "m_elements", m)
        for name, kind in (("feed_voltage", numbers.Complex), ("radius_wavelengths", numbers.Real)):
            value = _numbers(getattr(self, name), name, (), "a number", kind).item()
            object.__setattr__(self, name, value)
        if m > 1 and not self.radius_wavelengths > 0.0:
            raise ValueError("radius_wavelengths must be > 0 for multi-element arrays")
        if self.element_angles is None:
            angles = tuple(2.0 * math.pi * i / (m - 1) for i in range(m - 1))
        else:  # a tuple of floats, which edits to the caller's object do not reach
            angles = tuple(_numbers(self.element_angles, "element_angles", (m - 1,),
                                    "real numbers").tolist())
        object.__setattr__(self, "element_angles", angles)
        if self.admittance is None:
            object.__setattr__(self, "admittance", synthetic_admittance(*_element_layout(self)))
        # A copy, made read-only below.
        y = _numbers(self.admittance, "admittance", (m, m), "a matrix of numbers",
                     numbers.Complex)
        if not np.allclose(y, y.T, rtol=1e-10, atol=1e-14):
            raise ValueError("admittance must be symmetric (reciprocity)")
        cond = np.linalg.cond(y)  # inf for a singular matrix
        if not cond <= _COND_LIMIT:
            raise ValueError(
                f"admittance must be invertible (condition estimate {cond:.3e} > 1e12)"
            )
        y.setflags(write=False)
        object.__setattr__(self, "admittance", y)


@dataclass
class BasisSet:
    """Orthonormal basis patterns sampled on a uniform angle grid."""

    theta_grid: np.ndarray     # quadrature nodes on [0, 2 pi)
    basis_values: np.ndarray   # (M, grid) complex, rows orthonormal under the grid
    projections: np.ndarray    # (M, M), column l = steering components onto pattern l
    weight: float              # quadrature weight 2 pi / grid size

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """Trapezoidal inner product <f, g> on the periodic grid."""
        return complex(self.weight * np.sum(f * np.conj(g)))

    def gram(self) -> np.ndarray:
        """(M, M) matrix of <Phi_i, Phi_j>; the identity for an orthonormal basis."""
        return self.weight * (self.basis_values @ self.basis_values.conj().T)


def element_currents(cfg: EsparConfig, reactances) -> np.ndarray:
    """Element currents v_s (Y^-1 + X)^-1 u for loads X = diag(50, j x_1, ...).

    Raises ``ValueError`` on a wrong count or a non-finite reactance, and
    :class:`DegenerateLoadError` when the load network's condition estimate
    exceeds 1e12.
    """
    x = _numbers(reactances, "reactances", (cfg.m_elements - 1,), "real numbers")
    loads = np.concatenate(([complex(_ACTIVE_LOAD_OHMS)], 1j * x))
    system = np.linalg.inv(cfg.admittance) + np.diag(loads)
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise DegenerateLoadError(
            f"load network is numerically singular (condition estimate {cond:.3e})"
        )
    u = np.zeros(cfg.m_elements, dtype=complex)
    u[0] = 1.0
    return complex(cfg.feed_voltage) * np.linalg.solve(system, u)


def steering_vector(cfg: EsparConfig, theta) -> np.ndarray:
    """Steering components a_m(theta) = exp(j 2 pi r_m cos(theta - psi_m)).

    The centered active element contributes a constant 1.  ``theta`` may be
    scalar or an array; the result has shape (M, ...) matching theta.
    """
    th = np.asarray(theta, dtype=float)
    column = (-1,) + (1,) * th.ndim  # element axis first, theta's axes after
    r, psi = (v.reshape(column) for v in _element_layout(cfg))
    return np.exp(2j * math.pi * r * np.cos(th - psi))


def build_basis(cfg: EsparConfig, grid_size: int) -> BasisSet:
    """Orthonormal basis of the steering components a on a grid of weight w:
    sqrt(w) a^T = Q R by QR with a positive diagonal, which is the
    Gram-Schmidt basis.  |R_ll| is component l's residual norm; below 1e-10
    of its own norm, l depends linearly on the earlier components.  The
    trapezoidal rule on a uniform periodic grid is spectrally accurate for
    these trigonometric integrands, so an integer grid_size >= 4 M suffices.
    """
    grid_size = _integer(grid_size, "grid_size", 4 * cfg.m_elements)
    theta = np.arange(grid_size) * (2.0 * math.pi / grid_size)
    weight = 2.0 * math.pi / grid_size
    scaled = math.sqrt(weight) * steering_vector(cfg, theta).T  # (grid, M)
    q, r = np.linalg.qr(scaled)
    diag = np.diag(r)
    dependent = np.flatnonzero(np.abs(diag) < 1e-10 * np.linalg.norm(scaled, axis=0))
    if dependent.size:
        raise RankDeficientGeometryError(f"steering component {dependent[0]} depends linearly "
                                         "on earlier ones (coincident element positions?)")
    phase = diag / np.abs(diag)
    return BasisSet(theta_grid=theta, basis_values=(q * phase).T / math.sqrt(weight),
                    projections=(np.conj(phase)[:, None] * r).T, weight=weight)


def pattern_weights(currents, basis: BasisSet) -> np.ndarray:
    """Basis-pattern weights w_l = i^T q_l from element currents."""
    m = basis.projections.shape[0]
    return _numbers(currents, "currents", (m,), "numbers", numbers.Complex) @ basis.projections


def pattern_value(currents, cfg: EsparConfig, theta) -> complex:
    """Radiation pattern P(theta) = i^T a(theta) at an arbitrary angle."""
    i = _numbers(currents, "currents", (cfg.m_elements,), "numbers", numbers.Complex)
    out = np.tensordot(i, steering_vector(cfg, theta), axes=(0, 0))
    return complex(out) if out.ndim == 0 else out
