"""The M >= 3 RAB law against numpy.polynomial, which the law itself never
loads (nor numpy.fft): its 16-point Gauss-Legendre rule, a literal equal to
leggauss's to the bit without LAPACK's eigen-solve, and its slope, which
takes the series' derivative from the second-kind Clenshaw recurrence in
the pass that sums log g, against chebder and chebval.  Also the measured
accuracy of wright_omega."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogmac import analytic


def test_rab_law_loads_no_numpy_polynomial():
    # A fresh interpreter builds the K = 10, M = 3 law and draws one
    # quantile.  numpy.polynomial and numpy.fft may be in sys.modules only if
    # plain `import numpy` put them there (numpy 1.x does), and no
    # eigen-solve runs.
    code = "\n".join([
        "import sys, numpy",
        "names = ('numpy.polynomial', 'numpy.fft')",
        "eager = [name in sys.modules for name in names]",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('eigvalsh called')",
        "numpy.linalg.eigvalsh = refuse",
        "from cogmac import analytic as a",
        "a._rab_law(10.0, 3)",
        "a.RatioDistParams(10.0, 1.0, 3).isf(0.5)",
        "print(*eager, *[name in sys.modules for name in names])",
    ])
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    eager_polynomial, eager_fft, polynomial, fft = out.stdout.split()
    assert polynomial == eager_polynomial
    assert fft == eager_fft


def test_gauss_legendre_literals_match_leggauss():
    x, w = np.polynomial.legendre.leggauss(16)
    assert analytic._GAUSS16_NODES.tobytes() == x.tobytes()
    assert analytic._GAUSS16_WEIGHTS.tobytes() == w.tobytes()


@pytest.mark.parametrize("k, m", [(1.0, 3), (10.0, 3), (10.0, 4), (100.0, 3), (100.0, 16),
                                  (1000.0, 3), (1000.0, 16)])
def test_slope_matches_numpy_chebder(k, m):
    # The law's slope d log S / dt = 1 - 2v (d log g / dx) takes the
    # derivative from the U recurrence in the same pass as log g; numpy's
    # chebder and chebval on the same coefficients are the reference.
    cheb = np.polynomial.chebyshev
    coef = analytic._log_g_series(k, m)
    t = -np.geomspace(40.0, 1e-7, 200)
    v = np.exp(t)
    want = 1.0 - 2.0 * v * cheb.chebval(1.0 - 2.0 * v, cheb.chebder(coef))
    _, slope = analytic._rab_law(k, m)[0](t)
    assert np.max(np.abs(slope / want - 1.0)) <= 1e-13


def test_wright_omega_rounding_bound():
    # Rounding in 1 + y - log(w) leaves about (1 + |y|) eps; scipy's
    # wrightomega is the reference.
    special = pytest.importorskip("scipy.special")
    y = np.linspace(-45.0, 50.0, 95_001)
    exact = special.wrightomega(y)
    rel = np.abs(analytic.wright_omega(y) - exact) / exact
    assert np.all(rel <= 2.0 * (1.0 + np.abs(y)) * np.finfo(float).eps)
