import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdecon import harmonics as sh
from sphdecon import sphere_grid as sg
from sphdecon.errors import IllConditionedError, InvalidArgumentError


def fibonacci_points(n, jitter_seed=None):
    k = np.arange(n)
    phi = np.pi * (3 - np.sqrt(5)) * k
    z = 1 - 2 * (k + 0.5) / n
    if jitter_seed is not None:
        rng = np.random.default_rng(jitter_seed)
        z = np.clip(z + 0.01 * rng.standard_normal(n), -1, 1)
    s = np.sqrt(1 - z**2)
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def gauss_legendre_sphere(nz, nphi):
    x, w = np.polynomial.legendre.leggauss(nz)
    phi = 2 * np.pi * np.arange(nphi) / nphi
    zz, pp = np.meshgrid(x, phi, indexing="ij")
    s = np.sqrt(1 - zz**2)
    pts = np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=-1).reshape(-1, 3)
    wts = np.repeat(w, nphi) * (2 * np.pi / nphi)
    return pts, wts


class TestBasis:
    def test_coefficient_count(self):
        assert sh.ShBasis(0).L == 1
        assert sh.ShBasis(4).L == 15
        assert sh.ShBasis(8).L == 45
        assert sh.ShBasis(20).L == 231

    def test_degrees_sorted(self):
        basis = sh.ShBasis(4)
        assert basis.degrees == sorted(basis.degrees)
        assert all(l % 2 == 0 for l, _ in basis.degrees)

    def test_rejects_odd(self):
        with pytest.raises(InvalidArgumentError):
            sh.ShBasis(3)


class TestEvalSh:
    def test_y00_constant(self):
        for p in ([0, 0, 1], [1, 0, 0], [0.6, 0, 0.8]):
            assert sh.eval_sh(0, 0, p) == pytest.approx(1 / np.sqrt(4 * np.pi), abs=1e-12)

    def test_y20_north_pole(self):
        val = sh.eval_sh(2, 0, [0, 0, 1])
        assert val == pytest.approx(np.sqrt(5 / (4 * np.pi)), abs=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            sh.eval_sh(2, 3, [0, 0, 1])

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidArgumentError):
            sh.eval_sh(2, 0, [0, 0, 2])

    def test_orthonormality_healpix_equal_weights(self):
        # oracle: quadrature with equal pixel weights 4*pi/N; equal-weight
        # center quadrature carries a few-1e-3 intrinsic error at this band
        grid = sg.build_grid(16)
        Y = sh.design_matrix(sh.ShBasis(8), grid.vertices).Y
        gram = Y @ Y.T * (4 * np.pi / grid.n_vertices)
        assert np.abs(gram - np.eye(45)).max() < 1e-2

    def test_orthonormality_exact_quadrature(self):
        # independent oracle: Gauss-Legendre x uniform azimuth, exact at this band
        pts, wts = gauss_legendre_sphere(40, 90)
        Y = sh.design_matrix(sh.ShBasis(20), pts).Y
        gram = (Y * wts) @ Y.T
        assert np.abs(gram - np.eye(231)).max() < 1e-12


class TestDesignMatrix:
    def test_lmax0_all_constant(self):
        pts = fibonacci_points(5)
        dm = sh.design_matrix(sh.ShBasis(0), pts)
        assert dm.Y.shape == (1, 5)
        assert np.allclose(dm.Y, 1 / np.sqrt(4 * np.pi))

    def test_shape_lmax4(self):
        dm = sh.design_matrix(sh.ShBasis(4), fibonacci_points(64))
        assert dm.Y.shape == (15, 64)

    def test_near_identity_gram_nside8(self):
        grid = sg.build_grid(8)
        Y = sh.design_matrix(sh.ShBasis(8), grid.vertices).Y
        gram = Y @ Y.T * (4 * np.pi / grid.n_vertices)
        assert np.abs(gram - np.eye(45)).max() < 2e-2

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidArgumentError):
            sh.design_matrix(sh.ShBasis(2), np.array([[0.0, 0.0, 0.5]]))


class TestFitShc:
    def test_constant_field(self):
        pts = fibonacci_points(100)
        coeffs = sh.fit_shc(np.ones(100), pts, 4)
        assert coeffs.values[0] == pytest.approx(np.sqrt(4 * np.pi), abs=1e-8)
        assert np.abs(coeffs.values[1:]).max() < 1e-8

    def test_round_trip_exact(self):
        grid = sg.build_grid(8)
        rng = np.random.default_rng(7)
        c = rng.standard_normal(sh.ShBasis(8).L)
        vals = sh.evaluate_shc(sh.ShCoeffs(sh.ShBasis(8), c), grid.vertices)
        refit = sh.fit_shc(vals, grid.vertices, 8)
        assert np.abs(refit.values - c).max() < 1e-8

    def test_underdetermined_raises(self):
        with pytest.raises(IllConditionedError) as err:
            sh.fit_shc(np.ones(6), fibonacci_points(6), 4, tikhonov=0.0)
        assert "condition" in str(err.value)

    def test_ridge_allows_underdetermined(self):
        coeffs = sh.fit_shc(np.ones(6), fibonacci_points(6), 4, tikhonov=1e-3)
        assert np.all(np.isfinite(coeffs.values))


class TestResample:
    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(3)
        grads = fibonacci_points(64, jitter_seed=1)
        c = rng.standard_normal(sh.ShBasis(4).L)
        samples = sh.evaluate_shc(sh.ShCoeffs(sh.ShBasis(4), c), grads)
        grid = sg.build_grid(8)
        on_grid = sh.resample(samples, grads, grid, l_max_fit=4)
        refit = sh.fit_shc(on_grid, grid.vertices, 4)
        assert np.abs(refit.values - c).max() < 1e-6

    def test_zero_samples(self):
        grid = sg.build_grid(4)
        out = sh.resample(np.zeros(64), fibonacci_points(64), grid)
        assert np.abs(out).max() == 0.0

    def test_basis_reproduction(self):
        grads = fibonacci_points(64, jitter_seed=2)
        grid = sg.build_grid(8)
        samples = np.array([sh.eval_sh(2, 0, g) for g in grads])
        out = sh.resample(samples, grads, grid, l_max_fit=4)
        expect = np.array([sh.eval_sh(2, 0, v) for v in grid.vertices])
        assert np.abs(out - expect).max() < 1e-6

    def test_default_degree(self):
        assert sh.default_fit_degree(8) == 2
        assert sh.default_fit_degree(16) == 2
        assert sh.default_fit_degree(32) == 4
        assert sh.default_fit_degree(64) == 8
        assert sh.default_fit_degree(128) == 8

    def test_linear_in_samples(self):
        grads = fibonacci_points(32, jitter_seed=4)
        grid = sg.build_grid(4)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 32))
        lhs = sh.resample(2 * a + 3 * b, grads, grid)
        rhs = 2 * sh.resample(a, grads, grid) + 3 * sh.resample(b, grads, grid)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestInvariants:
    def test_antipodal_symmetry(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal(sh.ShBasis(8).L)
        pts = fibonacci_points(50, jitter_seed=5)
        coeffs = sh.ShCoeffs(sh.ShBasis(8), c)
        assert np.array_equal(
            sh.evaluate_shc(coeffs, pts), sh.evaluate_shc(coeffs, -pts)
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rotational_closure_per_degree_energy(self, seed):
        rng = np.random.default_rng(seed)
        axis_angle = rng.standard_normal(3)
        theta = np.linalg.norm(axis_angle)
        if theta < 1e-6:
            rot = np.eye(3)
        else:
            k = axis_angle / theta
            K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
            rot = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * K @ K
        pts = fibonacci_points(96, jitter_seed=seed % 17)
        c = rng.standard_normal(sh.ShBasis(6).L)
        vals = sh.evaluate_shc(sh.ShCoeffs(sh.ShBasis(6), c), pts)
        refit = sh.fit_shc(vals, pts @ rot.T, 6).values
        basis = sh.ShBasis(6)
        for l in (0, 2, 4, 6):
            idx = [i for i, (ll, _) in enumerate(basis.degrees) if ll == l]
            assert np.sum(refit[idx] ** 2) == pytest.approx(np.sum(c[idx] ** 2), abs=1e-8)
