"""The M >= 3 RAB law's fixed constants: the 16-point Gauss-Legendre rule
and the Chebyshev derivative, each equal to numpy.polynomial's to the bit,
without the law loading numpy.polynomial or calling LAPACK; and the
measured accuracy of wright_omega."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogmac import analytic


def test_rab_law_loads_no_numpy_polynomial():
    # A fresh interpreter builds the K = 10, M = 3 law and draws one
    # quantile.  numpy.polynomial may be in sys.modules only if plain
    # `import numpy` put it there (numpy 1.x does), and no eigen-solve runs.
    code = "\n".join([
        "import sys, numpy",
        "eager = 'numpy.polynomial' in sys.modules",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('eigvalsh called')",
        "numpy.linalg.eigvalsh = refuse",
        "from cogmac import analytic as a",
        "a._rab_law(10.0, 3)",
        "a.RatioDistParams(10.0, 1.0, 3).isf(0.5)",
        "print(eager, 'numpy.polynomial' in sys.modules)",
    ])
    src = str(Path(analytic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    eager, loaded = out.stdout.split()
    assert loaded == eager


def test_gauss_legendre_literals_match_leggauss():
    x, w = np.polynomial.legendre.leggauss(16)
    assert analytic._GAUSS16_NODES.tobytes() == x.tobytes()
    assert analytic._GAUSS16_WEIGHTS.tobytes() == w.tobytes()


@pytest.mark.parametrize("k, m", [(1.0, 3), (10.0, 3), (10.0, 4), (100.0, 3), (100.0, 16)])
def test_chebder_matches_numpy(k, m):
    coef, dcoef, _ = analytic._log_g_series(k, m)
    assert dcoef.tobytes() == np.polynomial.chebyshev.chebder(coef).tobytes()


def test_wright_omega_rounding_bound():
    # Rounding in 1 + y - log(w) leaves about (1 + |y|) eps; scipy's
    # wrightomega is the reference.
    special = pytest.importorskip("scipy.special")
    y = np.linspace(-45.0, 50.0, 95_001)
    exact = special.wrightomega(y)
    rel = np.abs(analytic.wright_omega(y) - exact) / exact
    assert np.all(rel <= 2.0 * (1.0 + np.abs(y)) * np.finfo(float).eps)
