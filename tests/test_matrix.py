import numpy as np
import pytest
from conftest import (
    assert_multiset_close,
    random_circulant,
    random_hermitian,
    random_matrix,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from specto import (
    Matrix,
    NumericalError,
    eigenvalues,
    mat_power_norms,
    schur,
    singular_values,
    spectral_radius,
    two_norm,
)

JORDAN2 = Matrix([[0.0, 1.0], [0.0, 0.0]])


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            Matrix([[np.inf]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Matrix(np.zeros((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Matrix([1.0, 2.0])

    def test_promotes_real_to_complex(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.array.dtype == np.complex128
        assert m.is_real

    def test_array_is_write_locked(self):
        m = Matrix(np.eye(3))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_source_mutation_does_not_leak(self):
        src = np.eye(2)
        m = Matrix(src)
        src[0, 0] = 7.0
        assert m.array[0, 0] == 1.0

    def test_does_no_arithmetic(self):
        m = Matrix(np.eye(2))
        for op in (lambda: m @ m, lambda: m + m, lambda: 2.0 * m, lambda: -m, lambda: m[0, 0]):
            with pytest.raises(TypeError):
                op()


class TestTwoNormAndSingularValues:
    def test_diagonal(self):
        assert two_norm(Matrix(np.diag([2.0, 0.5]))) == pytest.approx(2.0, abs=1e-12)

    def test_jordan_block_vs_2x2_oracle(self):
        # singular values are sqrt of eigenvalues of A^H A = [[0,0],[0,1]]
        assert two_norm(JORDAN2) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(singular_values(Matrix([[0, 2], [0, 0]])), [2.0, 0.0], atol=1e-12)

    def test_identity(self):
        assert two_norm(Matrix(np.eye(7))) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_singular_value_is_numerical_error(self):
        # sigma_max = 1.5e308 * sqrt(2): finite entries, a 2-norm past the float range
        with pytest.raises(NumericalError, match="overflow"):
            singular_values(Matrix([[1.5e308, 1.5e308], [0.0, 0.0]]))

    def test_diag_descending(self):
        np.testing.assert_allclose(singular_values(Matrix(np.diag([3.0, 1.0]))), [3.0, 1.0], atol=1e-12)

    def test_unitary_has_unit_singular_values(self, rng):
        q = random_unitary(rng, 6)
        np.testing.assert_allclose(singular_values(q), np.ones(6), atol=1e-10)

    def test_product_of_squares_is_gram_determinant(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = random_matrix(rng, n)
            s = singular_values(m)
            gram_det = np.linalg.det(m.array.conj().T @ m.array).real
            assert np.prod(s**2) == pytest.approx(gram_det, rel=1e-8)

    def test_norm_sandwich(self, rng):
        # two_norm <= frobenius <= sqrt(min dim) * two_norm, 100 matrices
        for _ in range(100):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            m = random_matrix(rng, r, c)
            lo, fro = two_norm(m), np.linalg.norm(m.array)
            assert lo <= fro * (1 + 1e-12)
            assert fro <= np.sqrt(min(r, c)) * lo * (1 + 1e-12)

    def test_submultiplicative(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            a = random_matrix(rng, n)
            b = random_matrix(rng, n)
            assert two_norm(Matrix(a.array @ b.array)) <= two_norm(a) * two_norm(b) * (1 + 1e-12)


class TestEigenvalues:
    def test_diagonal(self):
        assert_multiset_close(eigenvalues(Matrix(np.diag([2.0, 0.5]))), [2.0, 0.5])

    def test_rotation_is_pure_imaginary(self):
        assert_multiset_close(eigenvalues(Matrix([[0, 1], [-1, 0]])), [1j, -1j])

    def test_nilpotent(self):
        np.testing.assert_allclose(eigenvalues(JORDAN2), [0, 0], atol=1e-12)

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalues(Matrix(np.zeros((2, 3))))

    def test_sum_equals_trace(self, rng):
        for _ in range(30):
            m = random_matrix(rng, int(rng.integers(2, 9)))
            assert eigenvalues(m).sum() == pytest.approx(np.trace(m.array), rel=1e-8)

    def test_spectral_radius(self):
        assert spectral_radius(Matrix(np.diag([0.5, -2.0]))) == pytest.approx(2.0, abs=1e-12)


class TestSchur:
    def _check_invariants(self, m):
        f = schur(m)
        n = m.rows
        scale = max(1.0, np.linalg.norm(m.array))
        recon = f.q.array @ f.t.array @ f.q.array.conj().T
        assert np.linalg.norm(recon - m.array) <= 1e-10 * scale
        assert np.linalg.norm(f.q.array.conj().T @ f.q.array - np.eye(n)) <= 1e-10
        assert not np.tril(f.t.array, -1).any()
        assert not np.diag(f.n_strict.array).any()
        assert_multiset_close(f.eigenvalues, np.linalg.eigvals(m.array), tol=1e-8 * scale)
        return f

    def test_already_triangular(self):
        f = self._check_invariants(Matrix([[1.0, 3.0], [0.0, 2.0]]))
        assert np.linalg.norm(f.n_strict.array) == pytest.approx(3.0, abs=1e-10)

    def test_hermitian_gives_diagonal_t(self, rng):
        f = schur(random_hermitian(rng, 5))
        assert np.linalg.norm(f.n_strict.array) <= 1e-10

    def test_random_reconstruction(self, rng):
        for _ in range(20):
            self._check_invariants(random_matrix(rng, 5))

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            schur(Matrix(np.zeros((3, 2))))

    def test_overflowing_eigenvalue_is_numerical_error(self):
        # eigenvalues 0 and 2e308: finite entries, an eigenvalue past the float range
        with pytest.raises(NumericalError, match="overflow"):
            schur(Matrix([[1e308, 1e308], [1e308, 1e308]]))


class TestFactorizationCache:
    def test_factorized_once_per_instance(self, rng):
        m = random_matrix(rng, 4)
        assert schur(m) is schur(m)
        assert eigenvalues(m) is schur(m).eigenvalues
        assert singular_values(m) is singular_values(m)

    def test_cached_arrays_are_read_only(self, rng):
        m = random_matrix(rng, 4)
        for arr in (eigenvalues(m), singular_values(m), schur(m).t.array, schur(m).q.array):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestNormalMatrixNormEqualsRadius:
    def test_normal_two_norm_is_max_eigenvalue(self, rng):
        samples = [
            random_hermitian(rng, 6),
            random_unitary(rng, 5),
            random_circulant(rng, 7),
        ]
        for m in samples:
            assert two_norm(m) == pytest.approx(spectral_radius(m), rel=1e-8)


class TestMatPowerNorms:
    def test_identity(self):
        np.testing.assert_allclose(mat_power_norms(Matrix(np.eye(3)), 5), np.ones(6), atol=1e-12)

    def test_nilpotent(self):
        np.testing.assert_allclose(mat_power_norms(JORDAN2, 2), [1.0, 1.0, 0.0], atol=1e-12)

    def test_scalar_decay(self):
        np.testing.assert_allclose(
            mat_power_norms(Matrix(np.diag([0.5])), 3), [1.0, 0.5, 0.25, 0.125], atol=1e-12
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mat_power_norms(Matrix(np.eye(2)), -1)

    def test_overflow_reported(self):
        with pytest.raises(NumericalError, match="overflow"):
            mat_power_norms(Matrix(np.diag([1e300])), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=12345))
def test_power_norms_submultiplicative_in_l(n, seed):
    rng = np.random.default_rng(seed)
    m = Matrix(rng.standard_normal((n, n)))
    norms = mat_power_norms(m, 6)
    top = norms[1]
    for k in range(1, 7):
        assert norms[k] <= top**k * (1 + 1e-10) + 1e-300
