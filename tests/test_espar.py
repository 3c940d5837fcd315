"""Beamspace model tests: current solves, basis orthonormality,
reconstruction, and Parseval identities."""

import math

import numpy as np
import pytest

from cogmac.espar import (
    DegenerateLoadError,
    EsparConfig,
    RankDeficientGeometryError,
    build_basis,
    element_currents,
    pattern_value,
    pattern_weights,
    steering_vector,
    synthetic_admittance,
)


def admittance_loop(m, radius=1.0 / 16.0, angles=None):
    """Element-by-element build of the bundled admittance fixture: centre
    element plus m-1 elements on a circle of the given radius (wavelengths),
    evenly spaced unless angles are given."""
    if angles is None:
        angles = [2.0 * math.pi * i / max(1, m - 1) for i in range(m - 1)]
    pos = [(0.0, 0.0)] + [(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    y = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                y[i, j] = 1.0 / 50.0
            else:
                d = math.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1])
                y[i, j] = (0.002 - 0.001j) / (1.0 + 8.0 * d)
    return y


def gram_schmidt_loop(a, weight):
    """Two-pass modified Gram-Schmidt of the rows of ``a`` under the
    trapezoidal inner product, one element at a time: (basis, projections)."""
    m, grid = a.shape

    def ip(f, g):
        return weight * sum(f[t] * np.conj(g[t]) for t in range(grid))

    basis = np.zeros_like(a)
    for l in range(m):
        v = a[l].copy()
        for _ in range(2):
            for k in range(l):
                v = v - ip(v, basis[k]) * basis[k]
        basis[l] = v / math.sqrt(ip(v, v).real)
    proj = np.array([[ip(a[row], basis[col]) for col in range(m)] for row in range(m)])
    return basis, proj


def gram_matrix(basis):
    m = basis.basis_values.shape[0]
    g = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            g[i, j] = basis.inner(basis.basis_values[i], basis.basis_values[j])
    return g


class TestElementCurrents:
    def test_single_element_scalar_reduction(self):
        y11 = 0.02 + 0.003j
        cfg = EsparConfig(m_elements=1, admittance=np.array([[y11]]), feed_voltage=2.0 + 1.0j)
        i = element_currents(cfg, [])
        assert i[0] == pytest.approx((2.0 + 1.0j) / (1.0 / y11 + 50.0), rel=1e-14)

    def test_linearity_in_feed(self):
        base = EsparConfig(m_elements=3, feed_voltage=1.0 + 0.0j)
        doubled = EsparConfig(m_elements=3, feed_voltage=2.0 + 0.0j)
        x = [12.0, -30.0]
        assert np.allclose(element_currents(doubled, x), 2.0 * element_currents(base, x))

    def test_two_element_hand_solve(self):
        y = np.array([[0.02, 0.002 - 0.001j], [0.002 - 0.001j, 0.02]])
        cfg = EsparConfig(m_elements=2, admittance=y, feed_voltage=1.0 + 0.0j)
        x1 = 25.0
        system = np.linalg.inv(y) + np.diag([50.0 + 0.0j, 1j * x1])
        a, b = system[0]
        c, d = system[1]
        det = a * d - b * c
        expected = np.array([d / det, -c / det])  # first column of the 2x2 inverse
        assert np.allclose(element_currents(cfg, [x1]), expected, atol=1e-12)

    def test_degenerate_load_detected(self):
        # Craft Y so that Y^-1 + diag(50, 0j) is exactly singular.
        y_inv = np.array([[1.0 + 0.0j, 2.0j], [2.0j, -4.0 / 51.0 + 0.0j]])
        cfg = EsparConfig(m_elements=2, admittance=np.linalg.inv(y_inv))
        with pytest.raises(DegenerateLoadError):
            element_currents(cfg, [0.0])

    def test_wrong_reactance_count(self):
        cfg = EsparConfig(m_elements=3)
        with pytest.raises(ValueError):
            element_currents(cfg, [1.0])


class TestBasis:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [64, 256])
    def test_orthonormality(self, m, grid):
        basis = build_basis(EsparConfig(m_elements=m), grid)
        g = gram_matrix(basis)
        assert np.max(np.abs(g - np.eye(m))) <= 1e-8

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_gram_method_matches_pairwise_inner(self, m):
        basis = build_basis(EsparConfig(m_elements=m), 64)
        assert np.allclose(basis.gram(), gram_matrix(basis), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_steering_reconstruction(self, m):
        cfg = EsparConfig(m_elements=m)
        basis = build_basis(cfg, 256)
        a = steering_vector(cfg, basis.theta_grid)
        recon = basis.projections @ basis.basis_values
        assert np.max(np.abs(a - recon)) <= 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [64, 256])
    def test_qr_basis_is_gram_schmidt(self, m, grid):
        # From M = 5 on the steering set is ill-conditioned and the two
        # factorizations part by far more than roundoff (6e-7 at M = 8).
        cfg = EsparConfig(m_elements=m)
        basis = build_basis(cfg, grid)
        gs_basis, gs_proj = gram_schmidt_loop(steering_vector(cfg, basis.theta_grid), basis.weight)
        assert np.max(np.abs(basis.basis_values - gs_basis)) <= 1e-10
        assert np.max(np.abs(basis.projections - gs_proj)) <= 1e-10
        diag = np.diag(basis.projections)
        assert np.all(np.abs(diag.imag) <= 1e-14) and np.all(diag.real > 0.0)

    def test_basis_count_equals_elements(self):
        for m in [2, 3, 4]:
            basis = build_basis(EsparConfig(m_elements=m), 128)
            assert basis.basis_values.shape[0] == m

    def test_residual_flat_or_decreasing_with_grid(self):
        cfg = EsparConfig(m_elements=3)
        residuals = []
        for grid in [64, 256, 1024]:
            basis = build_basis(cfg, grid)
            a = steering_vector(cfg, basis.theta_grid)
            recon = basis.projections @ basis.basis_values
            residuals.append(np.max(np.abs(a - recon)))
        assert all(r <= 1e-8 for r in residuals)

    def test_single_element_constant_modulus(self):
        basis = build_basis(EsparConfig(m_elements=1), 64)
        mags = np.abs(basis.basis_values[0])
        assert np.max(mags) - np.min(mags) < 1e-12
        assert mags[0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    def test_rank_deficiency_reported(self):
        cfg = EsparConfig(m_elements=3, element_angles=(0.4, 0.4))
        with pytest.raises(RankDeficientGeometryError, match="component 2"):
            build_basis(cfg, 128)

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            build_basis(EsparConfig(m_elements=4), 8)


class TestPatternWeights:
    def test_zero_currents(self):
        basis = build_basis(EsparConfig(m_elements=3), 128)
        w = pattern_weights(np.zeros(3, dtype=complex), basis)
        assert np.all(w == 0.0)

    def test_single_basis_alignment(self):
        # Currents reproducing exactly one basis pattern light up one weight.
        cfg = EsparConfig(m_elements=2)
        basis = build_basis(cfg, 128)
        q = basis.projections
        currents = np.linalg.solve(q.T, np.array([0.0, 1.0], dtype=complex))
        w = pattern_weights(currents, basis)
        assert abs(w[0]) < 1e-10
        assert w[1] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_parseval(self, m):
        rng = np.random.default_rng(m)
        cfg = EsparConfig(m_elements=m)
        basis = build_basis(cfg, 256)
        currents = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w = pattern_weights(currents, basis)
        pattern = pattern_value(currents, cfg, basis.theta_grid)
        norm_sq = basis.inner(pattern, pattern).real
        assert abs(np.sum(np.abs(w) ** 2) - norm_sq) <= 1e-8

    def test_dimension_mismatch(self):
        basis = build_basis(EsparConfig(m_elements=2), 64)
        with pytest.raises(ValueError):
            pattern_weights(np.zeros(3, dtype=complex), basis)


class TestPatternValue:
    def test_isotropic_single_element(self):
        cfg = EsparConfig(m_elements=1)
        i = element_currents(cfg, [])
        vals = pattern_value(i, cfg, np.linspace(0.0, 2.0 * math.pi, 33))
        assert np.max(np.abs(vals - vals[0])) < 1e-14

    def test_matches_basis_expansion_on_grid(self):
        rng = np.random.default_rng(3)
        cfg = EsparConfig(m_elements=4)
        basis = build_basis(cfg, 256)
        currents = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = pattern_value(currents, cfg, basis.theta_grid)
        expansion = pattern_weights(currents, basis) @ basis.basis_values
        assert np.max(np.abs(direct - expansion)) <= 1e-8

    def test_periodicity(self):
        cfg = EsparConfig(m_elements=3)
        i = element_currents(cfg, [5.0, -5.0])
        assert pattern_value(i, cfg, 0.0) == pytest.approx(
            pattern_value(i, cfg, 2.0 * math.pi), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected 3 currents"):
            pattern_value(np.ones(2, dtype=complex), EsparConfig(m_elements=3), 0.0)


class TestConfigValidation:
    def test_synthetic_admittance_symmetric_dominant(self):
        for m in [1, 2, 4, 6]:
            y = EsparConfig(m_elements=m).admittance
            assert np.allclose(y, y.T)
            for i in range(m):
                off = sum(abs(y[i, j]) for j in range(m) if j != i)
                assert abs(y[i, i]) > off

    def test_synthetic_admittance_matches_loop(self):
        # Bit for bit up to 17 elements; beyond, numpy's hypot may differ from
        # math.hypot in the last place.
        for m in range(1, 18):
            assert np.array_equal(EsparConfig(m_elements=m).admittance, admittance_loop(m))
        for m in (33, 64, 200):
            np.testing.assert_allclose(EsparConfig(m_elements=m).admittance,
                                       admittance_loop(m), rtol=4e-16, atol=0.0)

    def test_default_admittance_follows_the_configured_layout(self):
        # The parasitic element at (1/4, 0) is 1/4 from the centre, so the
        # mutual term divides by 1 + 8/4 = 3 (1.5 would be the lambda/16 circle).
        y = EsparConfig(m_elements=2, radius_wavelengths=0.25).admittance
        assert y[0, 1] == y[1, 0] == complex(0.002 / 3, -0.001 / 3)
        angles = (0.3, 1.1, 4.0)
        cfg = EsparConfig(m_elements=4, radius_wavelengths=0.2, element_angles=angles)
        assert np.array_equal(cfg.admittance, admittance_loop(4, 0.2, angles))

    @pytest.mark.parametrize("radius, angles", [
        (1.0 / 16.0, None), (0.2, (0.3, 1.1, 4.0)),
    ])
    def test_steering_vector_follows_the_configured_layout(self, radius, angles):
        # The layout the default admittance is built from: the active element
        # at the centre, then the parasitic elements at (radius, angle).
        cfg = EsparConfig(m_elements=4, radius_wavelengths=radius, element_angles=angles)
        if angles is None:
            angles = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
        thetas = np.linspace(0.0, 2.0 * math.pi, 7)
        a = steering_vector(cfg, thetas)
        assert a.shape == (4, 7) and steering_vector(cfg, 0.5).shape == (4,)
        assert np.all(a[0] == 1.0)
        for m, psi in enumerate(angles, start=1):
            want = [np.exp(2j * math.pi * radius * math.cos(t - psi)) for t in thetas]
            np.testing.assert_allclose(a[m], want, rtol=1e-15, atol=1e-15)

    def test_asymmetric_admittance_rejected(self):
        y = np.array([[0.02, 0.001], [0.003, 0.02]])
        with pytest.raises(ValueError):
            EsparConfig(m_elements=2, admittance=y)

    @pytest.mark.parametrize("y", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
                                   [[1.0, 1.0], [1.0, 1.0 + 1e-13]]])
    def test_non_invertible_admittance_rejected(self, y):
        # element_currents inverts Y: a singular or near-singular one is a
        # bad config, not a bad reactance.
        with pytest.raises(ValueError, match="admittance must be invertible"):
            EsparConfig(m_elements=2, admittance=np.array(y))

    @pytest.mark.parametrize("m", [3.0, 2.5, True, "3"])
    def test_m_elements_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="m_elements"):
            EsparConfig(m_elements=m)

    def test_numpy_integer_m_elements_is_stored_as_int(self):
        assert type(EsparConfig(m_elements=np.int64(3)).m_elements) is int

    @pytest.mark.parametrize("kw,message", [
        (dict(m_elements=0), "m_elements must be >= 1"),
        (dict(m_elements=2, admittance=np.eye(3)), "admittance must be 2x2"),
        (dict(m_elements=2, radius_wavelengths=0.0), "radius_wavelengths must be > 0"),
        (dict(feed_voltage="1"), "feed_voltage must be a number"),
        (dict(feed_voltage=None), "feed_voltage must be a number"),
        (dict(feed_voltage=True), "feed_voltage must be a number"),
        (dict(radius_wavelengths="0.1"), "radius_wavelengths must be a number"),
        (dict(radius_wavelengths=[0.1]), "radius_wavelengths must be a number"),
        (dict(radius_wavelengths=1j), "radius_wavelengths must be a number"),
        (dict(m_elements=3, element_angles=[0.0, 1j]), "element_angles must be real numbers"),
        (dict(m_elements=3, element_angles=["0.5", 1.0]), "element_angles must be real numbers"),
        (dict(m_elements=3, element_angles=[[0.0], [1.0]]), "element_angles must be real numbers"),
        (dict(radius_wavelengths=10**400), "radius_wavelengths must be finite, got a number past"),
        (dict(feed_voltage=10**400), "feed_voltage must be finite, got a number past"),
        (dict(feed_voltage=-(10**400)), "feed_voltage must be finite, got a number past"),
        (dict(m_elements=3, element_angles=[True, 1.0]), "element_angles must be real numbers"),
        (dict(m_elements=3, element_angles=[0.0, 10**400]),
         "element_angles must be finite, got a number past"),
        # Each entry of the admittance is a number in the float range, not a bool.
        (dict(m_elements=2, admittance=[[0.02, 10**400], [0, 0.02]]),
         "admittance must be finite, got a number past"),
        (dict(m_elements=2, admittance=[[0.02, "x"], ["x", 0.02]]),
         "admittance must be a matrix of numbers, got 'x'"),
        (dict(m_elements=2, admittance=[[0.02, True], [True, 0.02]]),
         "admittance must be a matrix of numbers, got True"),
        (dict(m_elements=2, admittance=[[0.02, None], [None, 0.02]]),
         "admittance must be a matrix of numbers, got None"),
        (dict(m_elements=2, admittance=[[0.02], [0.0, 0.02]]),
         "admittance must be a matrix of numbers, got \\[0.02\\]"),
    ])
    def test_bad_config_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            EsparConfig(**kw)

    def test_admittance_is_a_read_only_copy(self):
        # The checks of __post_init__ hold for the config's lifetime, and the
        # caller's own array stays writable.
        y = synthetic_admittance(np.array([0.0, 0.0625]), np.zeros(2))
        cfg = EsparConfig(m_elements=2, admittance=y)
        assert y.flags.writeable and not np.shares_memory(y, cfg.admittance)
        with pytest.raises(ValueError, match="read-only"):
            cfg.admittance[0, 1] = 5.0
        # Equality and hash by identity: the generated ones compared the array.
        assert cfg == cfg and cfg != EsparConfig(m_elements=2, admittance=y)
        assert hash(cfg) == hash(cfg)

    def test_angle_count_check(self):
        with pytest.raises(ValueError):
            EsparConfig(m_elements=3, element_angles=(0.1,))

    @pytest.mark.parametrize("given", [[0.0, 1.0], np.array([0.0, 1.0])])
    def test_angles_are_a_tuple_of_floats_copied_at_construction(self, given):
        cfg = EsparConfig(m_elements=3, element_angles=given)
        if isinstance(given, list):
            given.append(2.0)
        else:
            given[1] = 2.0
        assert cfg.element_angles == (0.0, 1.0)
        assert all(type(a) is float for a in cfg.element_angles)
        assert build_basis(cfg, 64).basis_values.shape == (3, 64)
