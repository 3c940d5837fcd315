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
    The admittance is a read-only copy of the one given and the angles a
    tuple of floats, so their checks hold for the config's lifetime;
    equality and hash are by identity."""

    m_elements: int = 4
    admittance: np.ndarray = None            # M x M complex, symmetric
    feed_voltage: complex = 1.0 + 0.0j
    radius_wavelengths: float = DEFAULT_RADIUS_WAVELENGTHS
    element_angles: tuple = None             # M-1 parasitic angles, radians

    def __post_init__(self) -> None:
        if isinstance(self.m_elements, bool) or not isinstance(self.m_elements, (int, np.integer)):
            raise ValueError(f"m_elements must be an integer, got {self.m_elements!r}")
        object.__setattr__(self, "m_elements", int(self.m_elements))
        if self.m_elements < 1:
            raise ValueError(f"m_elements must be >= 1, got {self.m_elements}")
        for name, kind in (("feed_voltage", numbers.Complex), ("radius_wavelengths", numbers.Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.m_elements > 1 and not self.radius_wavelengths > 0.0:
            raise ValueError("radius_wavelengths must be > 0 for multi-element arrays")
        n_par = self.m_elements - 1
        if self.element_angles is None:
            angles = tuple(2.0 * math.pi * i / n_par for i in range(n_par)) if n_par else ()
        else:  # a tuple of floats, which edits to the caller's object do not reach
            given = np.asarray(self.element_angles)
            if given.ndim != 1 or given.dtype.kind not in "iuf":
                raise ValueError(f"element_angles must be real numbers, got {self.element_angles!r}")
            if given.size != n_par:
                raise ValueError(f"need {n_par} parasitic angles, got {given.size}")
            angles = tuple(given.astype(float).tolist())
        object.__setattr__(self, "element_angles", angles)
        if not np.all(np.isfinite([self.feed_voltage, self.radius_wavelengths,
                                   *self.element_angles])):
            raise ValueError("feed_voltage, radius_wavelengths and element_angles must be finite")
        if self.admittance is None:
            object.__setattr__(self, "admittance", synthetic_admittance(*_element_layout(self)))
        y = np.array(self.admittance, dtype=complex)  # a copy, made read-only below
        if y.shape != (self.m_elements, self.m_elements):
            raise ValueError(
                f"admittance must be {self.m_elements}x{self.m_elements}, got {y.shape}"
            )
        if not np.isfinite(y).all():
            raise ValueError("admittance must be finite")
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
    x = np.asarray(reactances, dtype=float)
    if x.shape != (cfg.m_elements - 1,):
        raise ValueError(f"expected {cfg.m_elements - 1} reactances, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"reactances must be finite, got {x.tolist()}")
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
    these trigonometric integrands, so grid_size >= 4 M suffices.
    """
    if grid_size < 4 * cfg.m_elements:
        raise ValueError(f"grid_size must be >= 4*M = {4 * cfg.m_elements}, got {grid_size}")
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
    i = np.asarray(currents, dtype=complex)
    m = basis.projections.shape[0]
    if i.shape != (m,):
        raise ValueError(f"expected {m} currents, got shape {i.shape}")
    return i @ basis.projections


def pattern_value(currents, cfg: EsparConfig, theta) -> complex:
    """Radiation pattern P(theta) = i^T a(theta) at an arbitrary angle."""
    i = np.asarray(currents, dtype=complex)
    a = steering_vector(cfg, theta)
    if i.shape != (a.shape[0],):
        raise ValueError(f"expected {a.shape[0]} currents, got shape {i.shape}")
    out = np.tensordot(i, a, axes=(0, 0))
    return complex(out) if out.ndim == 0 else out
