import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (
    random_circulant,
    random_hermitian,
    random_matrix,
    random_unitary,
    scaled_to_radius,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import specto.pseudospectrum as pseudospectrum
from specto import (
    ContourSet,
    GridSpec,
    Matrix,
    NumericalError,
    PseudospectrumField,
    auto_grid,
    check_levels,
    compute_field,
    compute_fields,
    eigenvalues,
    extract_contours,
    kreiss_lower_bound,
    kreiss_sandwich_check,
    mat_power_norms,
    pseudospectral_radius,
    sigma_min_at,
    two_norm,
)
from specto.cli import DEFAULT_EPS_LEVELS

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
        assert sigma_min_at(Matrix(np.eye(2)), 1 + 0.3j) == pytest.approx(0.3, abs=1e-12)

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

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(NumericalError, match="SVD did not converge"):
            sigma_min_at(JORDAN2, 0.5)

    def test_shifted_stack_matches_the_dense_shift_bitwise(self, rng):
        # the diagonal is shifted in place; the old form subtracted lam * eye
        signed = random_matrix(rng, 6, complex_entries=False).array.copy()
        signed[::2, 1::2] = -0.0
        for a in (
            random_matrix(rng, 7, complex_entries=False).array,
            random_matrix(rng, 7).array,
            signed,
            np.array([[-0.0, 0.0], [-0.0, -0.0]]),
            np.array([[complex(-0.0, 0.5), complex(0.3, -0.0)], [complex(-0.0, -0.0), 1.0]]),
        ):
            lams = GridSpec(-2.0, 2.0, -1.5, 1.5, 9, 7).nodes().ravel()  # nodes on both axes
            lams = np.r_[lams, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
            eye = np.eye(a.shape[0], dtype=np.complex128)
            want = np.linalg.svd(a[None, :, :] - lams[:, None, None] * eye[None, :, :], compute_uv=False)[:, -1]
            assert np.array_equal(pseudospectrum._sigma_min_stack(a, lams), want)

    def test_overflowing_shift_is_numerical_error(self):
        with pytest.raises(NumericalError, match="overflowed"):
            sigma_min_at(Matrix([[1.7e308]]), -1.7e308)


class TestComputeField:
    def test_identity_field_is_distance(self):
        g = GridSpec(0.0, 2.0, -1.0, 1.0, 41, 41)
        f = compute_field(Matrix(np.eye(2)), g, workers=1)
        expected = np.abs(g.nodes() - 1.0)
        np.testing.assert_allclose(f.values, expected, atol=1e-9)

    def test_node_at_eigenvalue(self):
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)  # node at 0.5 exists? nodes at -1,-.5,0,.5,1
        f = compute_field(Matrix(np.diag([0.5, -0.5])), g, workers=1)
        assert f.values[3, 2] <= 1e-8  # node 0.5 + 0j
        assert f.values[2, 2] == pytest.approx(0.5, abs=1e-12)  # origin node

    def test_jordan_node_value(self):
        g = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
        f = compute_field(JORDAN2, g, workers=1)
        assert f.values[3, 2] == pytest.approx(JORDAN_HALF_SIGMA, abs=1e-12)

    def test_matches_pointwise_kernel_exactly(self, rng):
        # neither a complex W nor a box that is not symmetric about the real axis is folded
        for complex_entries, im_max in ((True, 2.0), (False, 2.1)):
            w = random_matrix(rng, 5, complex_entries=complex_entries)
            g = GridSpec(-2.0, 2.0, -2.0, im_max, 13, 11)
            f = compute_field(w, g, workers=1)
            nodes = g.nodes()
            assert f.evaluated == f.exact.size
            for i, j in np.ndindex(*nodes.shape):
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
        f2 = compute_field(Matrix(u.array @ w.array @ u.array.conj().T), g, workers=1)
        np.testing.assert_allclose(f1.values, f2.values, atol=1e-9)

    def test_monotone_sublevel_sets(self, rng):
        w = random_matrix(rng, 5)
        f = compute_field(w, GridSpec(-2, 2, -2, 2, 25, 25), workers=1)
        small = f.values <= 0.1
        large = f.values <= 0.4
        assert not (small & ~large).any()


def _certified_case(seed):
    """A seeded random matrix, grid (auto or clipped) and 1-6 eps levels that cross it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    w = random_matrix(rng, n, complex_entries=bool(rng.integers(2)), scale=float(rng.uniform(0.2, 2.0)))
    nx, ny = (int(k) for k in rng.integers(2, 46, size=2))
    if rng.integers(2):
        grid = auto_grid(w, nx=nx, ny=ny)
    else:  # a box that clips the spectrum
        z = complex(eigenvalues(w)[rng.integers(n)])
        half = rng.uniform(0.05, 1.0, size=2)
        grid = GridSpec(z.real - half[0], z.real + half[0] * rng.uniform(0.2, 1.0), z.imag - half[1], z.imag + half[1], nx, ny)
    sigma = compute_field(w, grid, workers=1).values
    picks = np.unique(np.quantile(sigma, rng.uniform(0.0, 1.0, size=int(rng.integers(1, 7)))))
    return w, grid, tuple(float(v) for v in picks[picks > 0]) or (0.1,)


def _edge_nodes(inside):
    """Nodes at either end of a grid edge whose two nodes disagree."""
    across = inside[:-1, :] != inside[1:, :]
    up = inside[:, :-1] != inside[:, 1:]
    touched = np.zeros_like(inside)
    touched[:-1][across] = touched[1:][across] = True
    touched[:, :-1][up] = touched[:, 1:][up] = True
    return touched


def _band(values, levels):
    """Index of the gap between consecutive levels that holds each value, or -1 on a level."""
    band = np.searchsorted(levels, values)
    return np.where(np.isin(values, levels), -1, band)


def _assert_bands_hold(f, full, levels):
    """Every certified node's four neighbours are certified in its band or exact strictly inside it."""
    band, certified = _band(f.values, levels), ~f.exact
    assert np.array_equal(band, _band(full.values, levels)) and (band[certified] >= 0).all()
    across = band[:-1, :] != band[1:, :]
    up = band[:, :-1] != band[:, 1:]
    assert not (across & (certified[:-1, :] | certified[1:, :])).any()
    assert not (up & (certified[:, :-1] | certified[:, 1:])).any()


def _assert_lattices_evaluated(w, f, full, levels):
    """The first lattice of ``_LATTICE_STEPS`` is evaluated, and so is each node within a grid step
    of a level on the lattices between the first and the last."""
    grid = f.grid
    folded = w.is_real and grid.im_min == -grid.im_max

    def lattice(step):
        return np.ix_(pseudospectrum._lattice(grid.nx, step, False), pseudospectrum._lattice(grid.ny, step, folded))

    near = np.zeros(f.exact.shape, dtype=bool)
    for lev in levels:
        near |= np.abs(full.values - lev) <= max(grid.step)
    steps = pseudospectrum._LATTICE_STEPS
    assert f.exact[lattice(steps[0])].all()
    for step in steps[1:-1]:
        assert f.exact[lattice(step)][near[lattice(step)]].all()


def _assert_certified_like_full(w, grid, levels):
    full = compute_field(w, grid, workers=1)
    f = compute_field(w, grid, levels, workers=1)
    exact = f.exact
    assert f.levels == levels and not exact.flags.writeable
    _assert_bands_hold(f, full, levels)
    _assert_lattices_evaluated(w, f, full, levels)
    assert np.array_equal(f.values[exact], full.values[exact])
    assert (f.values[~exact] <= full.values[~exact]).all()
    for lev in levels:
        for side in (np.less, np.less_equal):
            assert np.array_equal(side(f.values, lev), side(full.values, lev))
            assert exact[_edge_nodes(side(full.values, lev))].all()
        assert pseudospectral_radius(f, lev) == pseudospectral_radius(full, lev)
        assert int((f.values <= lev).sum()) == int((full.values <= lev).sum())
    got, want = extract_contours(f, levels), extract_contours(full, levels)
    assert [len(g) for g in got.polylines] == [len(g) for g in want.polylines]
    for g, h in zip(got.polylines, want.polylines):
        assert all(np.array_equal(a, b) for a, b in zip(g, h))
    assert kreiss_lower_bound(f, levels) == kreiss_lower_bound(full, levels)
    return int((~exact).sum())


class TestCertifiedField:
    def test_random_cases_match_the_full_field(self):
        certified = [_assert_certified_like_full(*_certified_case(seed)) for seed in range(150)]
        assert sum(k > 0 for k in certified) >= 50  # the skipping is exercised

    @pytest.mark.parametrize("steps", [(8, 4, 2, 1), (16, 8, 4, 2, 1), (2, 1), (1,)])
    def test_one_stage_per_lattice_then_wave_2(self, monkeypatch, steps):
        monkeypatch.setattr(pseudospectrum, "_LATTICE_STEPS", steps)
        for seed in range(10):
            w, grid, levels = _certified_case(seed)
            _assert_certified_like_full(w, grid, levels)
            stage, sigma, stages, svds = pseudospectrum._field(w, grid, levels), None, 0, 0
            while True:
                try:
                    lams = stage.send(sigma)
                except StopIteration as done:
                    f = done.value
                    break
                stages, svds = stages + 1, svds + lams.size
                sigma = pseudospectrum._sigma_min_stack(w.array, lams)
            assert stages == len(steps) + 1
            assert f.evaluated == svds
            _assert_same_field(f, compute_field(w, grid, levels, workers=1))

    def test_jordan_block(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)
        assert _assert_certified_like_full(JORDAN2, grid, (1e-3, 1e-2, 0.1, 0.3)) > 0

    def test_node_on_an_eigenvalue(self):
        grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21)  # node (15, 10) is 0.5 + 0j, off every lattice
        w = Matrix(np.diag([0.5, -0.5]))
        assert compute_field(w, grid, workers=1).values[15, 10] == 0.0
        assert _assert_certified_like_full(w, grid, (1e-3, 0.05)) > 0

    def test_no_levels_means_every_node_exact(self, rng):
        f = compute_field(random_matrix(rng, 4), GridSpec(-2, 2, -2, 2, 23, 19), workers=1)
        assert f.levels is None and f.exact.all()

    def test_values_do_not_depend_on_worker_count(self, rng):
        w = random_matrix(rng, 32, scale=0.2)
        grid = auto_grid(w, nx=41, ny=37)
        base = compute_field(w, grid, (1e-2, 0.1), workers=1)
        assert not base.exact.all()
        for k in (2, 3):
            again = compute_field(w, grid, (1e-2, 0.1), workers=k)
            assert np.array_equal(again.values, base.values)
            assert np.array_equal(again.exact, base.exact)

    def test_level_outside_the_field_levels_rejected(self, rng):
        w = random_matrix(rng, 4)
        f = compute_field(w, auto_grid(w, nx=21, ny=21), (0.01, 0.1), workers=1)
        for call in (
            lambda: extract_contours(f, [0.01, 0.2]),
            lambda: pseudospectral_radius(f, 0.05),
            lambda: kreiss_lower_bound(f, [0.1, 1.0]),
        ):
            with pytest.raises(ValueError, match="not among the field's levels"):
                call()
        assert extract_contours(f, [0.1]).levels == (0.1,)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([[1, 1, 1], [1, -1e-300, 1]], "field values must be finite and nonnegative"),
            ([[1, 1, 1], [1, 1, np.nan]], "field values must be finite and nonnegative"),
            (np.ones((3, 2)), "values shape (3, 2) does not match grid (2, 3)"),
        ],
    )
    def test_field_values_validation(self, values, message):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 3)
        with pytest.raises(ValueError) as raised:
            PseudospectrumField(grid, np.array(values, dtype=float), np.zeros(1, complex))
        assert str(raised.value) == message

    def test_field_mask_validation(self):
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
        values, eigs = np.ones((2, 2)), np.zeros(1, complex)
        with pytest.raises(ValueError, match="exact mask shape"):
            PseudospectrumField(grid, values, eigs, (0.5,), np.ones((3, 2), bool))
        with pytest.raises(ValueError, match="without levels"):
            PseudospectrumField(grid, values, eigs, None, np.eye(2, dtype=bool))
        assert PseudospectrumField(grid, values, eigs, (0.5,), np.eye(2, dtype=bool)).evaluated == 2
        for evaluated in (-1, 3):
            with pytest.raises(ValueError, match="evaluated count"):
                PseudospectrumField(grid, values, eigs, (0.5,), np.eye(2, dtype=bool), evaluated)

    def test_svd_chunks_stay_within_the_memory_bound(self, monkeypatch, rng):
        stack, calls = pseudospectrum._sigma_min_stack, []

        def recording(a, lams, spare=None):
            calls.append(lams.size * a.size)
            return stack(a, lams, spare)

        monkeypatch.setattr(pseudospectrum, "_sigma_min_stack", recording)
        w = random_matrix(rng, 32, scale=0.2)
        f = compute_field(w, auto_grid(w, nx=45, ny=45), (1e-2, 0.1), workers=2)
        assert len(calls) > 2 and max(calls) <= 1 << 15
        assert sum(calls) == int(f.exact.sum()) * 32 * 32

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_fields_do_not_depend_on_the_chunk_budget(self, monkeypatch, rng, complex_entries):
        # the batched SVD factors each shifted matrix on its own, so the chunk size is invisible
        w = random_matrix(rng, 32, complex_entries=complex_entries, scale=0.2)
        grid = auto_grid(w, nx=45, ny=45)
        stack, fields, sizes = pseudospectrum._sigma_min_stack, [], {}

        def recording(a, lams, spare=None):
            sizes.setdefault(pseudospectrum._CHUNK_SCALARS, []).append(lams.size)
            return stack(a, lams, spare)

        monkeypatch.setattr(pseudospectrum, "_sigma_min_stack", recording)
        budgets = (1 << 17, 1 << 15, 1 << 11)
        for budget in budgets:
            monkeypatch.setattr(pseudospectrum, "_CHUNK_SCALARS", budget)
            fields.append(compute_field(w, grid, (1e-2, 0.1), workers=2))
        assert [max(sizes[b]) for b in budgets] == [128, 32, 2]
        for f in fields[1:]:
            assert np.array_equal(f.values, fields[0].values)
            assert np.array_equal(f.exact, fields[0].exact)
            assert f.evaluated == fields[0].evaluated

    def test_a_fifth_of_the_nodes_of_a_real_gate_are_evaluated(self, monkeypatch):
        for seed in range(5):
            w = random_matrix(np.random.default_rng(seed), 32, complex_entries=False, scale=0.18)
            grid = auto_grid(w)
            sizes = _svd_batch_sizes(monkeypatch)
            f = compute_field(w, grid, DEFAULT_EPS_LEVELS, workers=2)
            assert f.evaluated == sum(sizes) <= 0.2 * grid.nx * grid.ny


class _SkewedGrid(GridSpec):
    """A grid whose imaginary axis is shifted by SKEW / 2 off antisymmetry."""

    SKEW = 1e-3

    def im_axis(self):
        return super().im_axis() + self.SKEW / 2


def _svd_batch_sizes(monkeypatch):
    """Record the batch size of every sigma_min kernel call."""
    stack, sizes = pseudospectrum._sigma_min_stack, []

    def recording(a, lams, spare=None):
        sizes.append(lams.size)
        return stack(a, lams, spare)

    monkeypatch.setattr(pseudospectrum, "_sigma_min_stack", recording)
    return sizes


def _skew(grid):
    im = grid.im_axis()
    return float(np.abs(im + im[::-1]).max())


class TestConjugateFold:
    @pytest.mark.parametrize("ny", [2, 3, 4, 5, 200])
    def test_folded_values_are_sigma_min_near_their_node(self, rng, monkeypatch, ny):
        w = random_matrix(rng, 6, complex_entries=False)
        grid = GridSpec(-2.0, 2.0, -1.7, 1.7, 7, ny)
        sizes = _svd_batch_sizes(monkeypatch)
        f = compute_field(w, grid, workers=1)
        assert f.exact.all() and f.evaluated == sum(sizes) == 7 * ((ny + 1) // 2)
        nodes, im = grid.nodes(), grid.im_axis()
        tol = _skew(grid) + 1e-13 * (float(np.linalg.norm(w.array)) + float(np.abs(nodes).max()))
        for i, j in np.ndindex(*nodes.shape):
            want = sigma_min_at(w, nodes[i, j])
            if im[j] == -im[ny - 1 - j]:
                assert f.values[i, j] == want
            else:
                assert abs(f.values[i, j] - want) <= tol
        assert np.array_equal(f.values, f.values[:, ::-1])

    def test_certified_values_hold_with_a_skewed_axis(self):
        # the bracket margin must cover the distance between a node and its mirror's conjugate
        levels = (0.02, 0.1, 0.3)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            w = random_matrix(rng, 4, complex_entries=False, scale=0.6) if seed else Matrix(np.diag([0.3, -0.5]))
            grid = _SkewedGrid(-1.5, 1.5, -1.5, 1.5, 41, 41)
            assert _skew(grid) == pytest.approx(_SkewedGrid.SKEW, rel=1e-9)
            f = compute_field(w, grid, levels, workers=1)
            nodes = grid.nodes()
            tol = _SkewedGrid.SKEW + 1e-13 * (float(np.linalg.norm(w.array)) + float(np.abs(nodes).max()))
            assert not f.exact.all()
            for i, j in np.ndindex(*nodes.shape):
                want = sigma_min_at(w, nodes[i, j])
                if f.exact[i, j]:
                    assert abs(f.values[i, j] - want) <= tol
                else:
                    assert f.values[i, j] <= want
                    for lev in levels:
                        assert (f.values[i, j] < lev) == (want < lev)
                        assert (f.values[i, j] <= lev) == (want <= lev)
            _assert_certified_like_full(w, grid, levels)

    def test_values_do_not_depend_on_worker_count(self, rng):
        w = random_matrix(rng, 16, complex_entries=False, scale=0.25)
        grid = auto_grid(w, nx=37, ny=40)
        base = compute_field(w, grid, (1e-2, 0.1), workers=1)
        assert base.evaluated < base.exact.sum() < base.exact.size
        for k in (2, 3):
            again = compute_field(w, grid, (1e-2, 0.1), workers=k)
            assert np.array_equal(again.values, base.values)
            assert np.array_equal(again.exact, base.exact)
            assert again.evaluated == base.evaluated

    def test_halves_the_svds_of_a_real_gate(self, rng, monkeypatch):
        w = random_matrix(rng, 32, complex_entries=False, scale=0.18)
        grid = auto_grid(w)
        assert grid.im_min == -grid.im_max
        unfolded = GridSpec(grid.re_min, grid.re_max, grid.im_min, np.nextafter(grid.im_max, np.inf))
        counts = []
        for g in (grid, unfolded):
            sizes = _svd_batch_sizes(monkeypatch)
            f = compute_field(w, g, DEFAULT_EPS_LEVELS, workers=2)
            assert f.evaluated == sum(sizes)
            counts.append(sum(sizes))
        assert counts[0] <= 0.55 * counts[1]


def _mixed_jobs(rng):
    """Real and complex W of sizes 4 and 9, on folded auto grids and on an asymmetric box."""
    box = GridSpec(-1.3, 1.1, -0.7, 1.6, 29, 23)
    jobs = []
    for n in (4, 9):
        for complex_entries in (False, True):
            w = random_matrix(rng, n, complex_entries=complex_entries, scale=0.5)
            jobs += [(w, auto_grid(w, nx=31, ny=27)), (w, box)]
    return jobs


def _assert_same_field(got, want):
    assert got.grid == want.grid and got.levels == want.levels and got.evaluated == want.evaluated
    assert got.values.tobytes() == want.values.tobytes()
    assert np.array_equal(got.exact, want.exact)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()


class TestComputeFields:
    @pytest.mark.parametrize("levels", [None, (0.02, 0.1, 0.3)])
    def test_each_field_is_the_field_alone(self, rng, levels):
        jobs = _mixed_jobs(rng)
        alone = [compute_field(w, grid, levels, workers=1) for w, grid in jobs]
        assert levels is None or not all(f.exact.all() for f in alone)
        for workers in (1, 2, 3):
            fields = compute_fields(jobs, levels, workers=workers)
            assert len(fields) == len(jobs)
            for got, want in zip(fields, alone):
                _assert_same_field(got, want)

    def test_no_jobs(self):
        assert compute_fields([], (0.1,), workers=3) == []

    def test_eigenvalues_are_taken_on_the_calling_thread(self, rng, monkeypatch):
        jobs = _mixed_jobs(rng)
        spectrum, threads = pseudospectrum.eigenvalues, []

        def recording(w):
            threads.append(threading.current_thread())
            return spectrum(w)

        monkeypatch.setattr(pseudospectrum, "eigenvalues", recording)
        compute_fields(jobs, (0.02, 0.1), workers=3)
        assert threads == [threading.current_thread()] * len(jobs)

    def test_many_jobs_under_fast_thread_switching(self, rng):
        sizes = (32, 24, 5, 32, 9, 16)
        ws = [random_matrix(rng, n, complex_entries=k % 2 == 1, scale=0.3) for k, n in enumerate(sizes)]
        jobs = [(w, auto_grid(w, nx=40, ny=36)) for w in ws]
        levels = (0.01, 0.1)
        alone = [compute_field(w, grid, levels, workers=1) for w, grid in jobs]
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.append(compute_fields(jobs, levels, workers=4)), daemon=True
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "compute_fields did not finish within 120 s"
        for got, want in zip(result[0], alone):
            _assert_same_field(got, want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_failing_job_raises_and_stops_every_thread(self, rng, workers):
        ok = random_matrix(rng, 24, scale=0.3)
        jobs = [
            (ok, auto_grid(ok, nx=40, ny=40)),
            (Matrix([[1.7e308]]), GridSpec(-1.7e308, 0.0, -1.0, 1.0, 9, 9)),  # 1.7e308 + 1.7e308 overflows
            (ok, auto_grid(ok, nx=60, ny=60)),
            (ok, auto_grid(ok, nx=50, ny=50)),
        ]
        before = threading.active_count()
        with pytest.raises(NumericalError, match="overflowed"):
            compute_fields(jobs, (0.01, 0.1), workers=workers)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_numpy_error_state_is_restored(self, rng, workers):
        jobs = _mixed_jobs(rng)
        huge = (Matrix([[1.7e308]]), GridSpec(-1.7e308, 0.0, -1.0, 1.0, 9, 9))
        # np.errstate(over="ignore") blocks left open by suspended jobs would leak into the caller
        with np.errstate(all="warn"):
            before = np.geterr()
            compute_fields(jobs, (0.02, 0.1), workers=workers)
            assert np.geterr() == before
            with pytest.raises(NumericalError, match="overflowed"):
                compute_fields([jobs[0], huge, *jobs[1:]], (0.02, 0.1), workers=workers)
            assert np.geterr() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_brackets_on_the_caller_and_svds_on_the_pool(self, rng, monkeypatch, workers):
        jobs = _mixed_jobs(rng)
        threads = {"_brackets": [], "eigenvalues": [], "_sigma_min_stack": []}
        counts = []

        def recorder(name):
            inner = getattr(pseudospectrum, name)

            def recording(*args):
                threads[name].append(threading.current_thread())
                counts.append(threading.active_count())
                return inner(*args)

            monkeypatch.setattr(pseudospectrum, name, recording)

        for name in threads:
            recorder(name)
        before = threading.active_count()
        compute_fields(jobs, (0.02, 0.1), workers=workers)
        caller = threading.current_thread()
        assert set(threads["_brackets"]) == set(threads["eigenvalues"]) == {caller}
        assert len(threads["eigenvalues"]) == len(jobs)
        assert threads["_sigma_min_stack"] and caller not in threads["_sigma_min_stack"]
        assert len(set(threads["_sigma_min_stack"])) <= workers
        assert max(counts) <= before + workers

    @pytest.mark.parametrize("workers", [1, 3])
    def test_at_most_one_job_more_than_workers_at_once(self, rng, monkeypatch, workers):
        jobs = _mixed_jobs(rng)
        field, live, peak = pseudospectrum._field, [0], [0]

        def counting(*args):
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            result = yield from field(*args)
            live[0] -= 1
            return result

        monkeypatch.setattr(pseudospectrum, "_field", counting)
        alone = [compute_field(w, grid, (0.02, 0.1), workers=1) for w, grid in jobs]
        peak[0] = 0
        for got, want in zip(compute_fields(jobs, (0.02, 0.1), workers=workers), alone):
            _assert_same_field(got, want)
        assert len(jobs) > workers + 1 and peak[0] == workers + 1 and live[0] == 0

    def test_three_gate_fields_hold_few_grids_beyond_their_outputs(self):
        ws = [random_matrix(np.random.default_rng(seed), 32, complex_entries=False, scale=0.18) for seed in range(3)]
        jobs = [(w, auto_grid(w)) for w in ws]
        compute_field(ws[0], auto_grid(ws[0], nx=20, ny=20), DEFAULT_EPS_LEVELS, workers=2)  # first-call state
        tracemalloc.start()
        try:
            fields = compute_fields(jobs, DEFAULT_EPS_LEVELS, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grid_bytes = 200 * 200 * 8
        assert all(f.values.shape == (200, 200) for f in fields)
        outputs = sum(f.values.nbytes + f.exact.nbytes for f in fields)
        # three jobs in flight hold their values, exact mask and bracket ends, beside two chunk buffers
        assert peak - outputs <= 21 * grid_bytes, (peak - outputs) / grid_bytes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_svd_tasks_fill_one_caller_owned_buffer_per_worker(self, rng, monkeypatch, workers):
        stack, svd, caller = pseudospectrum._sigma_min_stack, np.linalg.svd, threading.current_thread()
        queues, filled = [], set()

        def recording(a, lams, spare=None):
            queues.append(spare)
            return stack(a, lams, spare)

        def reading(x, *args, **kwargs):
            assert threading.current_thread() is not caller
            filled.add(x.__array_interface__["data"][0])
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(pseudospectrum, "_sigma_min_stack", recording)
        monkeypatch.setattr(np.linalg, "svd", reading)
        ws = [random_matrix(rng, 32, complex_entries=complex_entries, scale=0.2) for complex_entries in (False, True)]
        compute_fields([(w, auto_grid(w, nx=45, ny=45)) for w in ws], (1e-2, 0.1), workers=workers)
        assert len(queues) > workers and all(q is queues[0] for q in queues)
        buffers = []
        while not queues[0].empty():
            buffers.append(queues[0].get())
        assert len({id(b) for b in buffers}) == len(buffers) == workers
        for b in buffers:
            assert b.flags.owndata and b.dtype == np.complex128 and b.size == pseudospectrum._CHUNK_SCALARS
        assert filled == {b.__array_interface__["data"][0] for b in buffers}

    def test_a_matrix_larger_than_the_chunk_budget_gets_a_buffer_it_fits(self, rng, monkeypatch):
        monkeypatch.setattr(pseudospectrum, "_CHUNK_SCALARS", 16)
        w = random_matrix(rng, 6)  # 36 scalars, one matrix per chunk
        grid = GridSpec(-1.5, 1.5, -1.2, 1.4, 9, 7)
        got = compute_field(w, grid, workers=2)
        want = np.array([[sigma_min_at(w, lam) for lam in row] for row in grid.nodes()])
        assert np.array_equal(got.values, want)


class TestAutoGrid:
    def test_unit_disk_dominates(self):
        g = auto_grid(Matrix(np.eye(2)), pad=0.5)
        assert (g.re_min, g.re_max, g.im_min, g.im_max) == (-1.5, 1.5, -1.5, 1.5)

    def test_eigenvalue_extends_box(self):
        g = auto_grid(Matrix(np.diag([3.0])), pad=0.5)
        assert (g.re_min, g.re_max, g.im_min, g.im_max) == (-1.5, 3.5, -1.5, 1.5)

    def test_zero_pad_contains_unit_square(self):
        g = auto_grid(Matrix(np.diag([1.0])), pad=0.0)
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

    def test_real_spectrum_gives_a_symmetric_box(self, rng):
        for _ in range(10):
            w = random_matrix(rng, 7, complex_entries=False, scale=1.5)
            assert np.abs(eigenvalues(w).imag).max() > 1.0
            g = auto_grid(w, pad=0.3)
            assert g.im_min == -g.im_max

    def test_complex_spectrum_box_unchanged(self, rng):
        for _ in range(10):
            w = random_matrix(rng, 6, scale=1.2)
            ev = eigenvalues(w)
            g = auto_grid(w, pad=0.3)
            assert g.im_min == min(float(ev.imag.min()), -1.0) - 0.3
            assert g.im_max == max(float(ev.imag.max()), 1.0) + 0.3
            assert g.re_min == min(float(ev.real.min()), -1.0) - 0.3
            assert g.re_max == max(float(ev.real.max()), 1.0) + 0.3

    def test_mixed_shared_grid_is_union_of_boxes(self, rng):
        for _ in range(10):
            a = random_matrix(rng, 5, complex_entries=False, scale=rng.uniform(0.5, 3.0))
            b = random_matrix(rng, 5, scale=rng.uniform(0.5, 3.0))
            both = auto_grid(a, b, pad=0.3)
            ga, gb = auto_grid(a, pad=0.3), auto_grid(b, pad=0.3)
            assert both.re_min == min(ga.re_min, gb.re_min)
            assert both.re_max == max(ga.re_max, gb.re_max)
            assert both.im_min == min(ga.im_min, gb.im_min)
            assert both.im_max == max(ga.im_max, gb.im_max)

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
            auto_grid(Matrix(np.eye(2)), pad=pad)


class TestContours:
    def test_identity_circle(self):
        g = GridSpec(-0.5, 2.5, -1.5, 1.5, 121, 121)
        f = compute_field(Matrix(np.eye(2)), g, workers=1)
        cs = extract_contours(f, [0.3])
        assert len(cs.polylines[0]) == 1
        poly = cs.polylines[0][0]
        assert poly[0] == poly[-1]  # closed
        radii = np.abs(poly - 1.0)
        cell = np.hypot(*g.step)
        assert np.abs(radii - 0.3).max() <= 2 * cell

    def test_level_below_minimum_is_empty(self):
        f = compute_field(Matrix(np.eye(2)), GridSpec(2.0, 3.0, 2.0, 3.0, 11, 11), workers=1)
        cs = extract_contours(f, [1e-6])
        assert cs.polylines[0] == ()

    def test_two_separated_disks(self):
        f = compute_field(Matrix(np.diag([1.0, -1.0])), GridSpec(-2, 2, -1.2, 1.2, 161, 97), workers=1)
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
        f = compute_field(Matrix(np.eye(2)), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError):
            extract_contours(f, [0.5, 0.1])
        with pytest.raises(ValueError):
            extract_contours(f, [-0.5, 0.1])
        with pytest.raises(ValueError):
            extract_contours(f, [])

    @pytest.mark.parametrize("groups", [0, 1, 3])
    def test_one_polyline_group_per_level(self, groups):
        with pytest.raises(ValueError, match="^one polyline group per level required$"):
            ContourSet(levels=(0.1, 0.2), polylines=((),) * groups)

    @pytest.mark.parametrize("levels", [[float("nan")], [0.1, float("nan")], [0.1, float("inf")], [float("inf")]])
    def test_non_finite_levels_rejected(self, levels):
        f = compute_field(Matrix(np.eye(2)), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError, match="finite"):
            check_levels(levels)
        with pytest.raises(ValueError, match="finite"):
            extract_contours(f, levels)
        with pytest.raises(ValueError, match="finite"):
            ContourSet(levels=tuple(levels), polylines=((),) * len(levels))
        with pytest.raises(ValueError, match="finite"):
            kreiss_lower_bound(f, levels)
        with pytest.raises(ValueError, match="finite"):
            pseudospectral_radius(f, levels[-1])

    # Corners of the unit cell: 0 = node (0,0), 1 = (1,0), 1j = (0,1), 1+1j = (1,1).
    # Each saddle segment cuts off one corner; the two cut-off corners are the
    # ones on the other side of the level from the cell centre, the mean 0.5.
    AROUND_0_AND_1P1J = {frozenset({0.25, 0.25j}), frozenset({1 + 0.75j, 0.75 + 1j})}
    AROUND_1_AND_1J = {frozenset({0.75, 1 + 0.25j}), frozenset({0.75j, 0.25 + 1j})}

    @pytest.mark.parametrize(
        "values, level, expected",
        [
            ([[0.0, 1.0], [1.0, 0.0]], 0.25, AROUND_0_AND_1P1J),  # 0, 1+1j inside; centre outside
            ([[0.0, 1.0], [1.0, 0.0]], 0.75, AROUND_1_AND_1J),  # 0, 1+1j inside; centre inside
            ([[1.0, 0.0], [0.0, 1.0]], 0.25, AROUND_1_AND_1J),  # 1, 1j inside; centre outside
            ([[1.0, 0.0], [0.0, 1.0]], 0.75, AROUND_0_AND_1P1J),  # 1, 1j inside; centre inside
            # a centre equal to the level is outside, like a node
            ([[0.0, 1.0], [1.0, 0.0]], 0.5, {frozenset({0.5, 0.5j}), frozenset({1 + 0.5j, 0.5 + 1j})}),
        ],
    )
    def test_saddle_midpoint_rule(self, values, level, expected):
        f = PseudospectrumField(GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2), np.array(values), np.zeros(1, complex))
        (group,) = extract_contours(f, [level]).polylines
        assert all(len(poly) == 2 for poly in group)
        assert {frozenset(poly.tolist()) for poly in group} == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_crossing_used_exactly_once(self, data):
        # node values are whole steps and levels half steps: equal values and
        # saddle centres equal to the level occur, while every crossing lies
        # strictly inside its edge, so distinct edges give distinct vertices
        nx, ny = data.draw(st.integers(2, 12)), data.draw(st.integers(2, 12))
        steps = st.lists(st.integers(0, 3), min_size=nx * ny, max_size=nx * ny)
        values = np.array(data.draw(steps), dtype=float).reshape(nx, ny)
        levels = data.draw(st.lists(st.sampled_from([0.5, 1.5, 2.5]), min_size=1, unique=True).map(sorted))
        grid = GridSpec(-1.0, 2.0, -0.5, 1.5, nx, ny)
        re_ax, im_ax = grid.re_axis(), grid.im_axis()
        cs = extract_contours(PseudospectrumField(grid, values, np.zeros(1, complex)), levels)
        for level, group in zip(levels, cs.polylines):
            expected = Counter()
            for i in range(nx):
                for j in range(ny):
                    va = values[i, j]
                    if i + 1 < nx and (va < level) != (values[i + 1, j] < level):
                        t = (level - va) / (values[i + 1, j] - va)
                        expected[complex(re_ax[i] + t * (re_ax[i + 1] - re_ax[i]), im_ax[j])] += 1
                    if j + 1 < ny and (va < level) != (values[i, j + 1] < level):
                        t = (level - va) / (values[i, j + 1] - va)
                        expected[complex(re_ax[i], im_ax[j] + t * (im_ax[j + 1] - im_ax[j]))] += 1
            got = Counter()
            for poly in group:
                closed = poly[0] == poly[-1]
                if not closed:
                    for z in (poly[0], poly[-1]):
                        assert z.real in (re_ax[0], re_ax[-1]) or z.imag in (im_ax[0], im_ax[-1])
                got.update(poly[:-1].tolist() if closed else poly.tolist())
            assert got == expected


class TestPseudospectralRadius:
    def test_identity(self):
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 161, 161)
        f = compute_field(Matrix(np.eye(2)), g, workers=1)
        step = max(g.step)
        assert pseudospectral_radius(f, 0.25) == pytest.approx(1.25, abs=2 * step)

    def test_contraction(self):
        g = GridSpec(-1.6, 1.6, -1.6, 1.6, 161, 161)
        f = compute_field(Matrix(np.diag([0.5])), g, workers=1)
        assert pseudospectral_radius(f, 0.1) == pytest.approx(0.6, abs=2 * max(g.step))

    def test_jordan_bulge_scales_like_sqrt_eps(self):
        g = GridSpec(-0.15, 0.15, -0.15, 0.15, 301, 301)
        f = compute_field(JORDAN2, g, workers=1)
        assert pseudospectral_radius(f, 0.01) >= 0.09

    def test_fallback_to_eigenvalues(self):
        # grid far away from the pseudospectrum: no qualifying node
        g = GridSpec(5.0, 6.0, 5.0, 6.0, 5, 5)
        f = compute_field(Matrix(np.diag([0.5, -0.25])), g, workers=1)
        assert pseudospectral_radius(f, 1e-6) == pytest.approx(0.5)

    def test_monotone_in_eps(self, rng):
        w = random_matrix(rng, 4)
        f = compute_field(w, auto_grid(w, nx=61, ny=61), workers=1)
        radii = [pseudospectral_radius(f, e) for e in (0.01, 0.1, 0.5, 1.0)]
        assert radii == sorted(radii)

    def test_rejects_nonpositive_eps(self):
        f = compute_field(Matrix(np.eye(2)), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError):
            pseudospectral_radius(f, 0.0)

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(-2.0, 2.0, -1.5, 1.5, 41, 31),  # folded box
            GridSpec(-1.3, 2.1, -0.4, 1.9, 37, 29),  # asymmetric box
            _SkewedGrid(-2.0, 2.0, -1.7, 1.7, 43, 33),
        ],
    )
    def test_radii_are_the_absolute_values_of_the_complex_nodes(self, rng, grid):
        radii = np.abs(grid.nodes())
        for _ in range(10):
            values = rng.uniform(0.05, 1.5, (grid.nx, grid.ny))
            eigs = rng.normal(0, 1.2, 3) + 1j * rng.normal(0, 1.2, 3)
            levels = [0.01, *np.sort(rng.uniform(0.05, 2.0, 5))]  # 0.01: no node, the eigenvalue fallback
            f = PseudospectrumField(grid, values, eigs)
            want = [float(radii[values <= e].max()) if (values <= e).any() else float(np.abs(eigs).max()) for e in levels]
            assert [pseudospectral_radius(f, e).hex() for e in levels] == [r.hex() for r in want]
            bound = max(max((r - 1.0) / e for r, e in zip(want, levels)), 0.0)
            assert kreiss_lower_bound(f, levels).hex() == bound.hex()


class TestKreiss:
    def test_identity_bound_near_one(self):
        g = GridSpec(-2.2, 2.2, -2.2, 2.2, 221, 221)
        f = compute_field(Matrix(np.eye(2)), g, workers=1)
        k = kreiss_lower_bound(f, [0.1, 0.5, 1.0])
        assert 0.9 <= k <= 1.0 + 1e-9

    def test_stable_normal_below_one(self):
        g = GridSpec(-2.2, 2.2, -2.2, 2.2, 221, 221)
        f = compute_field(Matrix(np.diag([0.5])), g, workers=1)
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

    def test_builds_grid_nodes_once(self, monkeypatch, rng):
        w = random_matrix(rng, 4)
        f = compute_field(w, auto_grid(w, nx=41, ny=41), workers=1)
        calls = {"nodes": [], "_node_radii": []}
        nodes, radii = GridSpec.nodes, pseudospectrum._node_radii

        def counted(name, inner):
            def counting(grid):
                calls[name].append(grid)
                return inner(grid)

            return counting

        monkeypatch.setattr(GridSpec, "nodes", counted("nodes", nodes))
        monkeypatch.setattr(pseudospectrum, "_node_radii", counted("_node_radii", radii))
        kreiss_lower_bound(f, [1e-3, 1e-2, 0.05, 0.1, 0.5, 1.0])
        assert calls == {"nodes": [], "_node_radii": [f.grid]}  # the radii once, and no complex node grid

    def test_equals_max_over_per_level_radii(self, rng):
        for _ in range(25):
            grid = GridSpec(-3.0, 3.0, -2.5, 2.5, 23, 19)
            values = rng.uniform(0.05, 1.5, (23, 19))
            eigs = rng.normal(0, 1.2, 3) + 1j * rng.normal(0, 1.2, 3)
            f = PseudospectrumField(grid, values, eigs)
            # 0.01 and 0.04 lie below every node: those levels fall back to the eigenvalues
            levels = [0.01, 0.04, *np.sort(rng.uniform(0.05, 2.0, 4))]
            expected = max((pseudospectral_radius(f, e) - 1.0) / e for e in levels)
            assert kreiss_lower_bound(f, levels) == max(expected, 0.0)

    def test_eps_list_validation(self):
        f = compute_field(Matrix(np.eye(2)), GridSpec(-2, 2, -2, 2, 5, 5), workers=1)
        with pytest.raises(ValueError):
            kreiss_lower_bound(f, [])
        with pytest.raises(ValueError):
            kreiss_lower_bound(f, [0.1, -0.5])


class TestKreissSandwich:
    def _field_for(self, w, nx=161):
        half = two_norm(w) + 1.2
        return compute_field(w, GridSpec(-half, half, -half, half, nx, nx), workers=1)

    def test_scaled_identity(self):
        w = Matrix(0.99 * np.eye(2))
        res = kreiss_sandwich_check(w, self._field_for(w), [0.1, 0.5, 1.0])
        assert res.holds
        assert res.mid == pytest.approx(1.0, abs=1e-12)
        assert res.lhs <= 1.0 + 1e-9

    def test_stable_diagonal(self):
        w = Matrix(np.diag([0.5, 0.2]))
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
        w = Matrix(np.diag([1.5, 0.2]))
        with pytest.raises(ValueError, match="spectral radius"):
            kreiss_sandwich_check(w, self._field_for(w), [0.5])

    def test_random_stable_samples(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            w = scaled_to_radius(rng, n, float(rng.uniform(0.5, 0.95)))
            res = kreiss_sandwich_check(w, self._field_for(w), np.logspace(-4, 0, 20))
            assert res.holds
