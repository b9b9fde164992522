import numpy as np
import pytest
from conftest import assert_multiset_close

from specto import (
    Matrix,
    StabilizerConfig,
    eigenvalues,
    henrici_number,
    spectral_radius,
    stabilize,
    two_norm,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizerConfig(m=0)
        with pytest.raises(ValueError):
            StabilizerConfig(injected_u0=np.zeros(3))

    def test_injected_dimension_checked(self):
        cfg = StabilizerConfig(injected_u0=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="dimension"):
            stabilize(Matrix(np.eye(2)), cfg)


class TestHandTraces:
    def test_diagonal_one_step(self):
        # u0=(1,0): v1=(1,0), u1=(1,0), gain = 2
        cfg = StabilizerConfig(m=1, injected_u0=np.array([1.0, 0.0]))
        res = stabilize(Matrix(np.diag([2.0, 0.5])), cfg)
        assert res.gain_estimate == pytest.approx(2.0, abs=1e-14)
        np.testing.assert_allclose(res.w_s.array.real, np.diag([1.0, 0.25]), atol=1e-14)
        np.testing.assert_allclose(res.u_final, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(res.v_final, [1.0, 0.0], atol=1e-14)

    def test_rank_one_converges_in_one_step(self):
        cfg = StabilizerConfig(m=1, injected_u0=np.array([0.7, -0.3]))
        res = stabilize(Matrix([[0.0, 2.0], [0.0, 0.0]]), cfg)
        assert res.gain_estimate == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(res.w_s.array.real, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_identity_fixed_point(self):
        for m in (1, 7, 50):
            res = stabilize(Matrix(np.eye(4)), StabilizerConfig(m=m, seed=3))
            assert res.gain_estimate == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(res.w_s.array.real, np.eye(4), atol=1e-12)

    def test_dead_end_start_vector_restarts(self):
        # W^T u0 = 0 for u0 = e2: a fresh random start must recover
        cfg = StabilizerConfig(m=1, seed=11, injected_u0=np.array([0.0, 1.0]))
        res = stabilize(Matrix([[0.0, 2.0], [0.0, 0.0]]), cfg)
        assert res.gain_estimate == pytest.approx(2.0, abs=1e-12)


class TestInputContracts:
    def test_zero_matrix(self):
        with pytest.raises(ValueError, match="zero"):
            stabilize(Matrix(np.zeros((3, 3))))

    def test_complex_rejected(self):
        with pytest.raises(ValueError, match="real"):
            stabilize(Matrix([[1j, 0], [0, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            stabilize(Matrix(np.zeros((2, 3))))


class TestResultInvariants:
    def test_rescale_is_elementwise(self, rng):
        w = Matrix(rng.standard_normal((6, 6)))
        res = stabilize(w, StabilizerConfig(m=5, seed=0))
        np.testing.assert_allclose(
            res.w_s.array, w.array / res.gain_estimate, atol=1e-12
        )
        assert np.linalg.norm(res.u_final) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(res.v_final) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_scale_only(self, rng):
        w = Matrix(rng.standard_normal((7, 7)))
        res = stabilize(w, StabilizerConfig(m=20, seed=1))
        assert_multiset_close(
            eigenvalues(res.w_s), eigenvalues(w) / res.gain_estimate, tol=1e-9
        )

    def test_converged_norm_and_radius(self, rng):
        for _ in range(5):
            w = Matrix(rng.standard_normal((8, 8)))
            res = stabilize(w, StabilizerConfig(m=200, seed=2))
            assert abs(two_norm(res.w_s) - 1.0) <= 1e-6
            assert spectral_radius(res.w_s) <= 1.0 + 1e-6

    def test_henrici_untouched(self, rng):
        w = Matrix(rng.standard_normal((6, 6)))
        res = stabilize(w, StabilizerConfig(m=200, seed=4))
        assert henrici_number(res.w_s) == pytest.approx(henrici_number(w), abs=1e-9)

    def test_deterministic_per_seed(self, rng):
        w = Matrix(rng.standard_normal((5, 5)))
        a = stabilize(w, StabilizerConfig(m=3, seed=77))
        b = stabilize(w, StabilizerConfig(m=3, seed=77))
        assert a.gain_estimate == b.gain_estimate
        assert np.array_equal(a.w_s.array, b.w_s.array)
        c = stabilize(w, StabilizerConfig(m=3, seed=78))
        assert c.gain_estimate != a.gain_estimate



class TestGainConvergence:
    """The gain estimate stabilize divides by, as the iteration count m grows."""

    def test_diagonal_converges_to_top_singular_value(self):
        res = stabilize(Matrix(np.diag([3.0, 1.0])), StabilizerConfig(m=50, seed=0))
        assert res.gain_estimate == pytest.approx(3.0, rel=1e-6)

    def test_orthogonal_all_ones(self):
        theta = 0.7
        rot = Matrix([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        gains = [stabilize(rot, StabilizerConfig(m=m, seed=5)).gain_estimate for m in range(1, 11)]
        np.testing.assert_allclose(gains, np.ones(10), atol=1e-12)

    def test_degenerate_top_pair_exact_immediately(self):
        w = Matrix(np.diag([2.0, 2.0]))
        gains = [stabilize(w, StabilizerConfig(m=m, seed=9)).gain_estimate for m in range(1, 6)]
        np.testing.assert_allclose(gains, np.full(5, 2.0), atol=1e-12)

    def test_final_matches_two_norm_generic(self, rng):
        w = Matrix(rng.standard_normal((10, 10)))
        res = stabilize(w, StabilizerConfig(m=200, seed=6))
        assert res.gain_estimate == pytest.approx(two_norm(w), rel=1e-6)
