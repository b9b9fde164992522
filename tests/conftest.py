import numpy as np
import pytest

from specto import Matrix, schur

BOM = b"\xef\xbb\xbf"
LATIN_1_CSV = b"1,2\n0,\xe90.5\n"
# CSVs that are not UTF-8, each with the file offset of its first byte that is not
NOT_UTF8_CSVS = [(LATIN_1_CSV, 6), ("1,2\n0,0.5\n".encode("utf-16"), 0), (BOM + LATIN_1_CSV, 9)]
NOT_UTF8_IDS = ["latin-1", "utf-16", "bom-latin-1"]


def random_matrix(rng, rows, cols=None, complex_entries=True, scale=1.0):
    cols = rows if cols is None else cols
    a = rng.standard_normal((rows, cols))
    if complex_entries:
        a = a + 1j * rng.standard_normal((rows, cols))
    return Matrix(a * scale)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Matrix((a + a.conj().T) / 2)


def random_unitary(rng, n):
    # Schur Q of a random matrix is unitary
    return schur(random_matrix(rng, n)).q


def random_circulant(rng, n):
    first = rng.standard_normal(n)
    return Matrix(np.stack([np.roll(first, k) for k in range(n)]))


def scaled_to_radius(rng, n, target_rho):
    """Random real matrix rescaled so its spectral radius equals target_rho."""
    while True:
        a = rng.standard_normal((n, n))
        rho = np.abs(np.linalg.eigvals(a)).max()
        if rho > 0:
            return Matrix(a * (target_rho / rho))


def assert_multiset_close(got, expected, tol=1e-8):
    """Greedy nearest matching of two complex multisets."""
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected)
    for g in got:
        dists = [abs(g - e) for e in expected]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, f"no match for {g} within {tol} (closest {dists[k]:.3e})"
        expected.pop(k)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
