import warnings

import numpy as np
import pytest
from conftest import random_circulant, random_hermitian, random_matrix, random_unitary

from specto import (
    Matrix,
    eigenvalues,
    henrici_number,
    nonnormality_report,
    schur_departure,
)

JORDAN2 = Matrix([[0.0, 1.0], [0.0, 0.0]])
NORMAL_TOL = 1e-10  # a Henrici number at most this reads as normal


def commutator_norm(a):
    return np.linalg.norm(a @ a.conj().T - a.conj().T @ a)


class TestHenrici:
    def test_identity_is_normal(self):
        assert henrici_number(Matrix(np.eye(4))) == 0.0

    def test_jordan_block_closed_form(self):
        # commutator = diag(1, -1), ||.||_F = sqrt(2); ||W||_F^2 = 1
        assert henrici_number(JORDAN2) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_jordan_block_brute_force_oracle(self):
        a = JORDAN2.array
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.linalg.norm(comm) / np.linalg.norm(a) ** 2
        assert henrici_number(JORDAN2) == pytest.approx(expected, abs=1e-14)

    def test_zero_matrix_is_normal_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert henrici_number(Matrix(np.zeros((3, 3)))) == 0.0

    def test_scale_invariant(self, rng):
        m = random_matrix(rng, 6)
        base = henrici_number(m)
        for c in (0.01, 3.0, -17.5):
            assert henrici_number(Matrix(c * m.array)) == pytest.approx(base, abs=1e-10)

    def test_unitary_similarity_invariant(self, rng):
        for _ in range(10):
            m = random_matrix(rng, 6)
            u = random_unitary(rng, 6)
            rotated = Matrix(u.array @ m.array @ u.array.conj().T)
            assert henrici_number(rotated) == pytest.approx(henrici_number(m), abs=1e-9)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            henrici_number(Matrix(np.zeros((2, 3))))


class TestSchurDeparture:
    def test_already_triangular(self):
        dep = schur_departure(Matrix([[1.0, 3.0], [0.0, 2.0]]))
        assert dep == pytest.approx(3.0, abs=1e-10)

    def test_hermitian(self, rng):
        dep = schur_departure(random_hermitian(rng, 6))
        assert dep <= 1e-10

    def test_jordan_block(self):
        dep = schur_departure(JORDAN2)
        assert dep == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(eigenvalues(JORDAN2), [0, 0], atol=1e-12)

    def test_departure_identity(self, rng):
        # dep^2 + sum|lambda|^2 == ||W||_F^2, 100 random matrices n <= 16
        for _ in range(100):
            n = int(rng.integers(2, 17))
            m = random_matrix(rng, n)
            evs, dep = eigenvalues(m), schur_departure(m)
            lhs = dep**2 + np.sum(np.abs(evs) ** 2)
            assert lhs == pytest.approx(np.linalg.norm(m.array) ** 2, rel=1e-8)


class TestIsNormal:
    def test_unitary(self, rng):
        assert nonnormality_report(random_unitary(rng, 5)).henrici <= NORMAL_TOL

    def test_jordan_block(self):
        rep = nonnormality_report(JORDAN2)
        assert rep.henrici == pytest.approx(np.sqrt(2), abs=1e-12)  # ||W||_F = 1
        assert rep.schur_departure == pytest.approx(1.0, abs=1e-12)

    def test_circulant(self, rng):
        c = random_circulant(rng, 4)
        assert nonnormality_report(c).henrici <= NORMAL_TOL
        assert commutator_norm(c.array) <= 1e-10

    def test_departure_zero_iff_normal(self, rng):
        normal_samples = [random_hermitian(rng, 5), random_unitary(rng, 4), random_circulant(rng, 6)]
        for m in normal_samples:
            dep = schur_departure(m)
            assert dep <= 1e-8
            assert nonnormality_report(m).henrici <= NORMAL_TOL
        for _ in range(5):
            m = random_matrix(rng, 5)
            dep = schur_departure(m)
            assert dep > 1e-6
            assert nonnormality_report(m).henrici > NORMAL_TOL


class TestReport:
    def test_fields_consistent(self, rng):
        m = random_matrix(rng, 5)
        rep = nonnormality_report(m)
        assert rep.henrici == pytest.approx(commutator_norm(m.array) / np.linalg.norm(m.array) ** 2, rel=1e-12)
        assert rep.henrici == henrici_number(m)
        assert rep.schur_departure == schur_departure(m)

    def test_normal_report(self, rng):
        m = random_hermitian(rng, 4)
        rep = nonnormality_report(m)
        assert rep.henrici <= 1e-10
        assert rep.schur_departure <= 1e-10 * max(1.0, commutator_norm(m.array))


class TestOverflowSafety:
    BIG = Matrix([[1e200, 2e200], [0.0, 1e200]])

    def test_henrici_of_huge_entries(self):
        assert henrici_number(self.BIG) == pytest.approx(
            henrici_number(Matrix([[1.0, 2.0], [0.0, 1.0]])), abs=1e-12
        )

    def test_departure_of_huge_entries(self):
        dep = schur_departure(self.BIG)
        assert dep == pytest.approx(2e200, rel=1e-12)

    def test_report_finite_where_representable(self):
        rep = nonnormality_report(self.BIG)
        assert np.isfinite(rep.henrici) and np.isfinite(rep.schur_departure)
        assert rep.henrici == henrici_number(self.BIG)  # its commutator, ~5.7e400, is past the float range

    def test_power_of_two_scaling_is_exact(self, rng):
        m = random_matrix(rng, 6)
        a = m.array
        comm = commutator_norm(a)
        assert henrici_number(m) == comm / np.linalg.norm(a) ** 2
        assert nonnormality_report(m).henrici == comm / np.linalg.norm(a) ** 2

    def test_subnormal_entries(self):
        # the scale s is 2**-1064 here, so 1/s is past the float range
        tiny = Matrix([[5e-324, 1e-320], [0.0, 5e-324]])  # 2**-1074 * [[1, 2024], [0, 1]]
        rep = nonnormality_report(tiny)
        assert rep.henrici == pytest.approx(henrici_number(Matrix([[1.0, 2024.0], [0.0, 1.0]])), rel=1e-12)
        assert rep.schur_departure == pytest.approx(1e-320, rel=1e-12)
