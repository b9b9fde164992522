import numpy as np
import pytest
from conftest import (
    random_circulant,
    random_hermitian,
    random_matrix,
    random_unitary,
    scaled_to_radius,
)

from specto import (
    GridSpec,
    Matrix,
    NumericalError,
    auto_grid,
    compute_field,
    eigenvalues,
    extract_contours,
    jacobian_norm_bound_check,
    kreiss_lower_bound,
    kreiss_sandwich_check,
    mat_power_norms,
    pseudospectral_radius,
    sigma_min_at,
    two_norm,
)

JORDAN2 = Matrix([[0.0, 1.0], [0.0, 0.0]])
JORDAN_HALF_SIGMA = (np.sqrt(2) - 1) / 2  # sigma_min([[−0.5,1],[0,−0.5]])


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, -1.0, 1.0, nx=1)

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, np.inf, 0.0, 1.0), (-np.inf, 0.0, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308), (np.nan, 1.0, 0.0, 1.0)],
    )
    def test_non_finite_bounds_or_width(self, bounds):
        with pytest.raises(ValueError):
            GridSpec(*bounds)

    def test_node_map_is_affine(self):
        g = GridSpec(-1.0, 1.0, 0.0, 2.0, nx=5, ny=3)
        nodes = g.nodes()
        assert nodes.shape == (5, 3)
        assert nodes[0, 0] == -1.0 + 0.0j
        assert nodes[4, 2] == 1.0 + 2.0j
        assert nodes[2, 1] == pytest.approx(0.0 + 1.0j, abs=1e-15)


class TestSigmaMin:
    def test_identity_distance(self):
        assert sigma_min_at(Matrix.identity(2), 1 + 0.3j) == pytest.approx(0.3, abs=1e-12)

    def test_eigenvalue_is_zero(self):
        assert sigma_min_at(JORDAN2, 0.0) <= 1e-15

    def test_jordan_closed_form(self):
        got = sigma_min_at(JORDAN2, 0.5)
        assert got == pytest.approx(JORDAN_HALF_SIGMA, abs=1e-9)
        # independent oracle: direct SVD of the shifted matrix
        oracle = np.linalg.svd([[-0.5, 1.0], [0.0, -0.5]], compute_uv=False)[-1]
        assert got == pytest.approx(oracle, abs=1e-14)

    def test_normal_matrix_oracle(self, rng):
        # sigma_min equals the distance to the nearest eigenvalue, 200 samples
        w = random_hermitian(rng, 8)
        evs = eigenvalues(w)
        lams = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
        for lam in lams:
            expected = np.abs(evs - lam).min()
            assert abs(sigma_min_at(w, lam) - expected) <= 1e-8

    def test_shift_equivariance(self, rng):
        w = random_matrix(rng, 6)
        for _ in range(10):
            lam = complex(rng.normal(), rng.normal())
            c = complex(rng.normal(), rng.normal())
            shifted = Matrix(w.array + c * np.eye(6))
            assert sigma_min_at(shifted, lam + c) == pytest.approx(
                sigma_min_at(w, lam), abs=1e-10
            )

    def test_requires_square(self):
        with pytest.raises(ValueError):
            sigma_min_at(Matrix.zeros(2, 3), 0.0)

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match="SVD did not converge"):
            sigma_min_at(JORDAN2, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_shift_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflowed"):
            sigma_min_at(Matrix([[1.7e308]]), -1.7e308)


class TestComputeField:
    def test_identity_field_is_distance(self):
        g = GridSpec(0.0, 2.0, -1.0, 1.0, 41, 41)
        f = compute_field(Matrix.identity(2), g, workers=1)
        expected = np.abs(g.nodes() - 1.0)
        np.testing.assert_allclose(f.values, expected, atol=1e-9)

    def test_node_at_eigenvalue(self):
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)  # node at 0.5 exists? nodes at -1,-.5,0,.5,1
        f = compute_field(Matrix.diag([0.5, -0.5]), g, workers=1)
        assert f.values[3, 2] <= 1e-8  # node 0.5 + 0j
        assert f.values[2, 2] == pytest.approx(0.5, abs=1e-12)  # origin node

    def test_jordan_node_value(self):
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
        f = compute_field(JORDAN2, g, workers=1)
        assert f.values[3, 2] == pytest.approx(JORDAN_HALF_SIGMA, abs=1e-12)

    def test_matches_pointwise_kernel_exactly(self, rng):
        w = random_matrix(rng, 5)
        g = GridSpec(-2.0, 2.0, -2.0, 2.0, 13, 11)
        f = compute_field(w, g, workers=1)
        nodes = g.nodes()
        for i, j in ((0, 0), (5, 7), (12, 10), (3, 2)):
            assert f.values[i, j] == sigma_min_at(w, nodes[i, j])

    def test_deterministic_across_worker_counts(self, rng):
        w = random_matrix(rng, 16)
        g = GridSpec(-2.0, 2.0, -2.0, 2.0, 30, 30)
        base = compute_field(w, g, workers=1).values
        for k in (2, 3, 5):
            assert np.array_equal(compute_field(w, g, workers=k).values, base)

    def test_unitary_similarity_invariance(self, rng):
        w = random_matrix(rng, 6)
        u = random_unitary(rng, 6)
        g = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
        f1 = compute_field(w, g, workers=1)
        f2 = compute_field(u @ w @ u.adjoint(), g, workers=1)
        np.testing.assert_allclose(f1.values, f2.values, atol=1e-9)

    def test_monotone_sublevel_sets(self, rng):
        w = random_matrix(rng, 5)
        f = compute_field(w, GridSpec(-2, 2, -2, 2, 25, 25), workers=1)
        small = f.values <= 0.1
        large = f.values <= 0.4
        assert not (small & ~large).any()


class TestAutoGrid:
    def test_unit_disk_dominates(self):
        g = auto_grid(Matrix.identity(2), pad=0.5)
        assert (g.re_min, g.re_max, g.im_min, g.im_max) == (-1.5, 1.5, -1.5, 1.5)

    def test_eigenvalue_extends_box(self):
        g = auto_grid(Matrix.diag([3.0]), pad=0.5)
        assert (g.re_min, g.re_max, g.im_min, g.im_max) == (-1.5, 3.5, -1.5, 1.5)

    def test_zero_pad_contains_unit_square(self):
        g = auto_grid(Matrix.diag([1.0]), pad=0.0)
        assert (g.re_min, g.re_max, g.im_min, g.im_max) == (-1.0, 1.0, -1.0, 1.0)

    def test_shared_grid_is_union_of_boxes(self, rng):
        for _ in range(20):
            a = random_matrix(rng, 5, scale=rng.uniform(0.1, 3.0))
            b = random_matrix(rng, 5, scale=rng.uniform(0.1, 3.0))
            both = auto_grid(a, b, pad=0.3, nx=7, ny=9)
            ga, gb = auto_grid(a, pad=0.3, nx=7, ny=9), auto_grid(b, pad=0.3, nx=7, ny=9)
            assert both.re_min == min(ga.re_min, gb.re_min)
            assert both.re_max == max(ga.re_max, gb.re_max)
            assert both.im_min == min(ga.im_min, gb.im_min)
            assert both.im_max == max(ga.im_max, gb.im_max)
            assert (both.nx, both.ny) == (7, 9)

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError):
            auto_grid()

    def test_overflowing_spectrum_is_numerical_error(self):
        # eigenvalues 1e308 +- 1e308i are finite, the imaginary width is not
        with pytest.raises(NumericalError, match="finite grid"):
            auto_grid(Matrix([[1e308, -1e308], [1e308, 1e308]]))

    @pytest.mark.parametrize("pad", [-0.1, float("nan"), float("inf")])
    def test_bad_pad(self, pad):
        with pytest.raises(ValueError, match="pad"):
            auto_grid(Matrix.identity(2), pad=pad)


class TestContours:
    def test_identity_circle(self):
        g = GridSpec(-0.5, 2.5, -1.5, 1.5, 121, 121)
        f = compute_field(Matrix.identity(2), g, workers=1)
        cs = extract_contours(f, [0.3])
        assert len(cs.polylines[0]) == 1
        poly = cs.polylines[0][0]
        assert poly[0] == poly[-1]  # closed
        radii = np.abs(poly - 1.0)
        cell = np.hypot(*g.step)
        assert np.abs(radii - 0.3).max() <= 2 * cell

    def test_level_below_minimum_is_empty(self):
        f = compute_field(Matrix.identity(2), GridSpec(2.0, 3.0, 2.0, 3.0, 11, 11), workers=1)
        cs = extract_contours(f, [1e-6])
        assert cs.polylines[0] == ()

    def test_two_separated_disks(self):
        f = compute_field(Matrix.diag([1.0, -1.0]), GridSpec(-2, 2, -1.2, 1.2, 161, 97), workers=1)
        cs = extract_contours(f, [0.2])
        assert len(cs.polylines[0]) == 2
        for poly in cs.polylines[0]:
            assert poly[0] == poly[-1]

    def test_vertices_inside_bbox(self, rng):
        w = random_matrix(rng, 4)
        g = auto_grid(w, pad=0.5, nx=41, ny=41)
        f = compute_field(w, g, workers=1)
        cs = extract_contours(f, [0.1, 0.5, 1.0])
        for group in cs.polylines:
            for poly in group:
                assert (poly.real >= g.re_min - 1e-12).all()
                assert (poly.real <= g.re_max + 1e-12).all()
                assert (poly.imag >= g.im_min - 1e-12).all()
                assert (poly.imag <= g.im_max + 1e-12).all()

    def test_levels_must_increase(self):
        f = compute_field(Matrix.identity(2), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError):
            extract_contours(f, [0.5, 0.1])
        with pytest.raises(ValueError):
            extract_contours(f, [-0.5, 0.1])
        with pytest.raises(ValueError):
            extract_contours(f, [])


class TestPseudospectralRadius:
    def test_identity(self):
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 161, 161)
        f = compute_field(Matrix.identity(2), g, workers=1)
        step = max(g.step)
        assert pseudospectral_radius(f, 0.25) == pytest.approx(1.25, abs=2 * step)

    def test_contraction(self):
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 161, 161)
        f = compute_field(Matrix.diag([0.5]), g, workers=1)
        assert pseudospectral_radius(f, 0.1) == pytest.approx(0.6, abs=2 * max(g.step))

    def test_jordan_bulge_scales_like_sqrt_eps(self):
        g = GridSpec(-0.15, 0.15, -0.15, 0.15, 301, 301)
        f = compute_field(JORDAN2, g, workers=1)
        assert pseudospectral_radius(f, 0.01) >= 0.09

    def test_fallback_to_eigenvalues(self):
        # grid far away from the pseudospectrum: no qualifying node
        g = GridSpec(5.0, 6.0, 5.0, 6.0, 5, 5)
        f = compute_field(Matrix.diag([0.5, -0.25]), g, workers=1)
        assert pseudospectral_radius(f, 1e-6) == pytest.approx(0.5)

    def test_monotone_in_eps(self, rng):
        w = random_matrix(rng, 4)
        f = compute_field(w, auto_grid(w, nx=61, ny=61), workers=1)
        radii = [pseudospectral_radius(f, e) for e in (0.01, 0.1, 0.5, 1.0)]
        assert radii == sorted(radii)

    def test_rejects_nonpositive_eps(self):
        f = compute_field(Matrix.identity(2), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError):
            pseudospectral_radius(f, 0.0)


class TestKreiss:
    def test_identity_bound_near_one(self):
        g = GridSpec(-2.2, 2.2, -2.2, 2.2, 221, 221)
        f = compute_field(Matrix.identity(2), g, workers=1)
        k = kreiss_lower_bound(f, [0.1, 0.5, 1.0])
        assert 0.9 <= k <= 1.0 + 1e-9

    def test_stable_normal_below_one(self):
        g = GridSpec(-2.2, 2.2, -2.2, 2.2, 221, 221)
        f = compute_field(Matrix.diag([0.5]), g, workers=1)
        assert kreiss_lower_bound(f, [0.1, 0.5, 1.0]) <= 1.0

    def test_transient_growth_detected(self):
        w = Matrix(np.diag([0.9] * 5) + np.diag([1.0] * 4, 1))
        assert mat_power_norms(w, 64).max() > 1.0  # brute-force transient growth
        g = GridSpec(-2.5, 2.5, -2.5, 2.5, 201, 201)
        f = compute_field(w, g, workers=1)
        assert kreiss_lower_bound(f, np.logspace(-4, 0, 20)) > 1.0

    def test_overflowing_bound_is_numerical_error(self):
        w = Matrix([[1.7e308]])  # rho_eps = 1.7e308, so (rho_eps - 1)/1e-3 is past the float range
        f = compute_field(w, auto_grid(w, nx=5, ny=5), workers=1)
        assert kreiss_lower_bound(f, [1.0]) == pytest.approx(1.7e308)
        with pytest.raises(NumericalError, match="overflow"):
            kreiss_lower_bound(f, [1e-3, 1.0])

    def test_eps_list_validation(self):
        f = compute_field(Matrix.identity(2), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError):
            kreiss_lower_bound(f, [])
        with pytest.raises(ValueError):
            kreiss_lower_bound(f, [0.1, -0.5])


class TestKreissSandwich:
    def _field_for(self, w, nx=161):
        half = two_norm(w) + 1.2
        return compute_field(w, GridSpec(-half, half, -half, half, nx, nx), workers=1)

    def test_scaled_identity(self):
        w = 0.99 * Matrix.identity(2)
        res = kreiss_sandwich_check(w, self._field_for(w), [0.1, 0.5, 1.0])
        assert res.holds
        assert res.mid == pytest.approx(1.0, abs=1e-12)
        assert res.lhs <= 1.0 + 1e-9

    def test_stable_diagonal(self):
        w = Matrix.diag([0.5, 0.2])
        res = kreiss_sandwich_check(w, self._field_for(w), np.logspace(-4, 0, 20))
        assert res.holds and res.mid == pytest.approx(1.0, abs=1e-12)

    def test_transient_bidiagonal(self):
        w = Matrix(np.diag([0.8] * 4) + np.diag([2.0] * 3, 1))
        res = kreiss_sandwich_check(w, self._field_for(w), np.logspace(-4, 0, 20))
        assert res.mid > 1.0  # growth before decay
        assert res.holds
        assert 0 < res.l_peak

    def test_adaptive_l_max_extends(self):
        # rho close to 1: peak far beyond the initial window; the window
        # must grow until the peak is interior
        w = Matrix(np.diag([0.97] * 4) + np.diag([1.0] * 3, 1))
        res = kreiss_sandwich_check(w, self._field_for(w), np.logspace(-4, 0, 20), l_max=4)
        assert res.l_peak > 4
        assert res.mid == pytest.approx(mat_power_norms(w, 2 * res.l_peak).max(), rel=1e-12)
        assert res.lhs <= res.mid * 1.05  # lower inequality is resolution-proof

    def test_rejects_unstable(self):
        w = Matrix.diag([1.5, 0.2])
        with pytest.raises(ValueError, match="spectral radius"):
            kreiss_sandwich_check(w, self._field_for(w), [0.5])

    def test_random_stable_samples(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            w = scaled_to_radius(rng, n, float(rng.uniform(0.5, 0.95)))
            res = kreiss_sandwich_check(w, self._field_for(w), np.logspace(-4, 0, 20))
            assert res.holds


class TestJacobianBound:
    def test_unit_norm(self):
        assert jacobian_norm_bound_check(Matrix.identity(3), 1.0, 17) == pytest.approx(1.0)

    def test_arithmetic(self):
        w = Matrix.diag([2.0, 1.0])
        assert jacobian_norm_bound_check(w, 0.25, 3) == pytest.approx(0.125, abs=1e-12)

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            jacobian_norm_bound_check(Matrix.identity(2), 1.0, 0)
