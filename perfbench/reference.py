"""Reference ergodic capacities for the figure presets' grid points.

The presets pin unit mean powers, a unit interference cap and no primary
interference, so the scheduled SINR of a slot is the largest of N iid
ratios z = gain_s / gain_sp and

    C(N) = E[log(1 + max z)] = integral_0^inf (1 - F(t)^N) / (1 + t) dt.

The integral is taken by the trapezoid rule in u = log t, where the
integrand is smooth and decays exponentially at both ends.

F comes from ``cogmac.analytic`` for baseline links (``ratio_cdf``) and
two-pattern RAB (``rab_m2_cdf``).  M >= 3 patterns have no closed form in
the package; their references sit in ``rab_reference.json``, which
``python3 perfbench/reference.py`` writes from :func:`rab_survival`, an
exact quadrature over the random weight phases that shares no code with
the simulator.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rab_reference.json")
TABLE_K = 10.0
TABLE_M = (3, 4)
TABLE_N = (1, 8, 16, 32, 64, 128, 256, 512)

# log t from -30 to 45: below, the integrand is under e^-30; above, the
# tail N * P(z > t) / t is under 1e-16 for every N <= 512 used here.
_LOG_T = np.linspace(-30.0, 45.0, 15001)
# Points of t evaluated together by rab_survival, to bound its memory.
_BLOCK = 500


def capacities(survival, n_list) -> dict:
    """C(N) in nats for each N, given the survival function 1 - F of one ratio."""
    t = np.exp(_LOG_T)
    surv = np.clip(np.asarray(survival(t), dtype=float), 0.0, 1.0)
    weight = t / (1.0 + t)
    h = _LOG_T[1] - _LOG_T[0]
    out = {}
    with np.errstate(divide="ignore"):
        log_f = np.log1p(-surv)
        for n in n_list:
            g = -np.expm1(n * log_f) * weight
            out[int(n)] = float(h * (g.sum() - 0.5 * (g[0] + g[-1])))
    return out


def baseline_survival(k_factor: float):
    """1 - F for a Rayleigh secondary link over a Rician (K) interference link."""
    from cogmac.analytic import RatioDistParams, ratio_cdf

    params = RatioDistParams(k_factor, 1.0)
    return lambda t: 1.0 - ratio_cdf(t, params)


def rab_m2_survival(k_factor: float):
    """1 - F of the two-pattern RAB equivalent ratio (mixed Bessel law)."""
    from cogmac.analytic import RatioDistParams, rab_m2_cdf

    params = RatioDistParams(k_factor, 1.0)
    return lambda t: 1.0 - rab_m2_cdf(t, params)


def rab_survival(k_factor: float, m_patterns: int, grid: int = 64):
    """Exact 1 - F of the M-pattern RAB equivalent ratio, by quadrature.

    With unit-norm random weights the secondary gain is Exp(1), the combined
    scattering is CN(0, s2) with s2 = 1/(K+1), and the combined LoS power is
    a = K/(M(K+1)) |sum_i exp(j theta_i)|^2.  Given a,
    P(z > t) = E[exp(-t gain_sp)] = exp(-t a / (1 + t s2)) / (1 + t s2).
    Fixing theta_1 = 0 and integrating the last phase in closed form
    (E exp(-c(r^2 + 1 + 2 r cos phi)) = exp(-c(r^2 + 1)) I0(2 c r), with
    r = |1 + sum of the other phasors|) leaves an (M-2)-dimensional
    periodic integrand, which the trapezoid rule integrates to rounding
    error on a modest grid.
    """
    if m_patterns < 1:
        raise ValueError(f"m_patterns must be >= 1, got {m_patterns}")
    s2 = 1.0 / (k_factor + 1.0)
    los = k_factor / (m_patterns * (k_factor + 1.0))
    if m_patterns == 1:
        r = None
    else:
        phases = 2.0 * math.pi * np.arange(grid) / grid
        mesh = np.meshgrid(*([phases] * (m_patterns - 2)), indexing="ij")
        r = np.abs(1.0 + sum(np.exp(1j * p) for p in mesh)).ravel()

    def survival(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        for start in range(0, t.size, _BLOCK):
            tb = t[start : start + _BLOCK]
            c = (tb / (1.0 + tb * s2) * los)[:, None]
            if r is None:
                mix = np.exp(-c[:, 0])
            else:
                mix = (np.exp(-c * (r * r + 1.0)) * np.i0(2.0 * c * r)).mean(axis=1)
            out[start : start + _BLOCK] = mix / (1.0 + tb * s2)
        return out

    return survival


def load_table() -> dict:
    """{(M, N): mean capacity in nats} at K = TABLE_K."""
    with open(TABLE_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw["k_factor"] != TABLE_K:
        raise ValueError(f"{TABLE_PATH}: table is for K={raw['k_factor']}, expected {TABLE_K}")
    return {
        (int(m), int(n)): float(v)
        for m, row in raw["mean_nats"].items()
        for n, v in row.items()
    }


def build_table() -> dict:
    return {
        "k_factor": TABLE_K,
        "method": "reference.rab_survival quadrature (grid 64 per phase) + capacities()",
        "mean_nats": {
            str(m): {str(n): v for n, v in capacities(rab_survival(TABLE_K, m), TABLE_N).items()}
            for m in TABLE_M
        },
    }


if __name__ == "__main__":
    table = build_table()
    with open(TABLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    json.dump(table["mean_nats"], sys.stdout, indent=1)
    print()
