import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, lpmv

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


def eval_sh(l, m, p):
    """Reference for one real orthonormal SH at a unit vector or an (n, 3) array of them."""
    x, y, z = np.asarray(p, float).T
    am = abs(m)
    # lpmv carries the Condon-Shortley phase; (-1)^m removes it
    norm = (-1.0) ** am * np.sqrt(
        (2 * l + 1) / (4 * np.pi) * np.exp(gammaln(l - am + 1) - gammaln(l + am + 1))
    )
    leg = norm * lpmv(am, l, z)
    phi = np.arctan2(y, x)
    if m > 0:
        return np.sqrt(2.0) * leg * np.cos(m * phi)
    if m < 0:
        return np.sqrt(2.0) * leg * np.sin(am * phi)
    return leg


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
            assert eval_sh(0, 0, p) == pytest.approx(1 / np.sqrt(4 * np.pi), abs=1e-12)

    def test_y20_north_pole(self):
        val = eval_sh(2, 0, [0, 0, 1])
        assert val == pytest.approx(np.sqrt(5 / (4 * np.pi)), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidArgumentError):
            sh.zonal_design([2], [[0, 0, 2]])

    def test_orthonormality_healpix_equal_weights(self):
        # oracle: quadrature with equal pixel weights 4*pi/N; equal-weight
        # center quadrature carries a few-1e-3 intrinsic error at this band
        grid = sg.build_grid(16)
        Y = sh.design_matrix(sh.ShBasis(8), grid.vertices)
        gram = Y @ Y.T * (4 * np.pi / grid.n_vertices)
        assert np.abs(gram - np.eye(45)).max() < 1e-2

    def test_orthonormality_exact_quadrature(self):
        # independent oracle: Gauss-Legendre x uniform azimuth, exact at this band
        pts, wts = gauss_legendre_sphere(40, 90)
        Y = sh.design_matrix(sh.ShBasis(20), pts)
        gram = (Y * wts) @ Y.T
        assert np.abs(gram - np.eye(231)).max() < 1e-12


class TestDesignMatrix:
    def test_lmax0_all_constant(self):
        pts = fibonacci_points(5)
        Y = sh.design_matrix(sh.ShBasis(0), pts)
        assert Y.shape == (1, 5)
        assert np.allclose(Y, 1 / np.sqrt(4 * np.pi))

    def test_shape_lmax4(self):
        Y = sh.design_matrix(sh.ShBasis(4), fibonacci_points(64))
        assert Y.shape == (15, 64)

    def test_near_identity_gram_nside8(self):
        grid = sg.build_grid(8)
        Y = sh.design_matrix(sh.ShBasis(8), grid.vertices)
        gram = Y @ Y.T * (4 * np.pi / grid.n_vertices)
        assert np.abs(gram - np.eye(45)).max() < 2e-2

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidArgumentError):
            sh.design_matrix(sh.ShBasis(2), np.array([[0.0, 0.0, 0.5]]))

    def test_matches_lpmv_reference(self):
        # 24 is the largest fodf_degree whose WM refit on the default nside-8
        # input grid is well conditioned; rows of a lower degree's basis are
        # the leading rows of the higher one's, so one reference covers all
        s = np.sqrt(0.5)
        poles_equator = np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0], [0, 1.0, 0],
                                  [-1.0, 0, 0], [0, -1.0, 0], [s, s, 0], [s, -s, 0]])
        for points in (sg.build_grid(8).vertices, sg.build_grid(32).vertices, poles_equator):
            top = sh.ShBasis(24)
            ref = np.array([eval_sh(l, m, points) for l, m in top.degrees])
            for degree in range(0, 25, 2):
                Y = sh.design_matrix(sh.ShBasis(degree), points)
                assert np.abs(Y - ref[: Y.shape[0]]).max() < 1e-12, degree

    def test_zonal_rows_match_design_matrix(self):
        points = fibonacci_points(50, jitter_seed=3)
        Y = sh.design_matrix(sh.ShBasis(8), points)
        rows = [sh.ShBasis(8).degrees.index((l, 0)) for l in (8, 0, 4)]
        assert np.array_equal(sh.zonal_design([8, 0, 4], points), Y[rows])


class TestFitShc:
    def test_constant_field(self):
        pts = fibonacci_points(100)
        coeffs = sh.fit_matrix(pts, 4) @ np.ones(100)
        assert coeffs[0] == pytest.approx(np.sqrt(4 * np.pi), abs=1e-8)
        assert np.abs(coeffs[1:]).max() < 1e-8

    def test_round_trip_exact(self):
        grid = sg.build_grid(8)
        rng = np.random.default_rng(7)
        c = rng.standard_normal(sh.ShBasis(8).L)
        vals = c @ sh.design_matrix(sh.ShBasis(8), grid.vertices)
        refit = sh.fit_matrix(grid.vertices, 8) @ vals
        assert np.abs(refit - c).max() < 1e-8

    def test_underdetermined_raises(self):
        with pytest.raises(IllConditionedError) as err:
            sh.fit_matrix(fibonacci_points(6), 4, tikhonov=0.0)
        assert "condition" in str(err.value)

    def test_ridge_allows_underdetermined(self):
        coeffs = sh.fit_matrix(fibonacci_points(6), 4, tikhonov=1e-3) @ np.ones(6)
        assert np.all(np.isfinite(coeffs))


class TestResample:
    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(3)
        grads = fibonacci_points(64, jitter_seed=1)
        c = rng.standard_normal(sh.ShBasis(4).L)
        samples = c @ sh.design_matrix(sh.ShBasis(4), grads)
        grid = sg.build_grid(8)
        on_grid = sh.resample(samples, sh.resample_matrices(grads, grid.vertices))
        refit = sh.fit_matrix(grid.vertices, 4) @ on_grid
        assert np.abs(refit - c).max() < 1e-6

    def test_zero_samples(self):
        grid = sg.build_grid(4)
        out = sh.resample(np.zeros(64), sh.resample_matrices(fibonacci_points(64), grid.vertices))
        assert np.abs(out).max() == 0.0

    def test_basis_reproduction(self):
        grads = fibonacci_points(64, jitter_seed=2)
        grid = sg.build_grid(8)
        samples = np.array([eval_sh(2, 0, g) for g in grads])
        out = sh.resample(samples, sh.resample_matrices(grads, grid.vertices))
        expect = np.array([eval_sh(2, 0, v) for v in grid.vertices])
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
        mats = sh.resample_matrices(grads, grid.vertices)
        lhs = sh.resample(2 * a + 3 * b, mats)
        rhs = 2 * sh.resample(a, mats) + 3 * sh.resample(b, mats)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestInvariants:
    def test_antipodal_symmetry(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal(sh.ShBasis(8).L)
        pts = fibonacci_points(50, jitter_seed=5)
        Y = sh.design_matrix(sh.ShBasis(8), pts)
        Y_flipped = sh.design_matrix(sh.ShBasis(8), -pts)
        assert np.array_equal(c @ Y, c @ Y_flipped)

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
        basis = sh.ShBasis(6)
        vals = c @ sh.design_matrix(basis, pts)
        refit = sh.fit_matrix(pts @ rot.T, 6) @ vals
        for l in (0, 2, 4, 6):
            idx = [i for i, (ll, _) in enumerate(basis.degrees) if ll == l]
            assert np.sum(refit[idx] ** 2) == pytest.approx(np.sum(c[idx] ** 2), abs=1e-8)
