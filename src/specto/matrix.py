"""Dense complex matrices and the factorizations the rest of the toolkit consumes.

Everything is double precision. Real input is promoted to complex128 so the
whole toolkit runs on a single scalar type; the heavy kernels delegate to
LAPACK: the SVD through numpy, the Schur form through LAPACKE's ``zgees`` in
numpy's own OpenBLAS (``_blas``). Each matrix is factorized at most
once: the complex Schur form (which also yields the eigenvalues) and the
singular values are cached on the immutable instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import complex_schur
from .errors import NumericalError

__all__ = [
    "Matrix",
    "SchurFactors",
    "two_norm",
    "singular_values",
    "eigenvalues",
    "spectral_radius",
    "schur",
    "mat_power_norms",
]


class Matrix:
    """Immutable dense n x n matrix of complex128 entries, n >= 1.

    Spectra, pseudospectra and non-normality are defined only for square
    operators, so the constructor is the one place that rejects any other
    shape. Entries must all be finite; the backing array is write-locked so
    instances are safe to share across threads. The Schur form and the
    singular values are computed on first use and cached (write-locked too).
    A Matrix does no arithmetic: compute on ``.array`` and wrap the result.
    """

    __slots__ = ("_a", "_schur", "_sv")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128, order="C")
        if a.ndim != 2:
            raise ValueError(f"matrix entries must be 2-D, got {a.ndim}-D")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a
        self._schur: SchurFactors | None = None
        self._sv: np.ndarray | None = None

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying (n, n) complex array."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def is_real(self) -> bool:
        return not self._a.imag.any()

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SchurFactors:
    """Complex Schur form W = Q T Q*, T upper triangular.

    ``eigenvalues`` is the diagonal of T. Q and T are unique only up to
    phases and eigenvalue ordering, so consumers should rely on the
    reconstruction invariants, not on element values.
    """

    q: Matrix
    t: Matrix
    eigenvalues: np.ndarray


def singular_values(m: Matrix) -> np.ndarray:
    """All n singular values, descending (read-only, cached)."""
    if m._sv is None:
        try:
            sv = np.linalg.svd(m.array, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc
        if not np.isfinite(sv).all():
            raise NumericalError("singular values overflowed: the 2-norm is past the float range")
        sv.setflags(write=False)
        m._sv = sv
    return m._sv


def two_norm(m: Matrix) -> float:
    """Spectral norm: the largest singular value."""
    return float(singular_values(m)[0])


def eigenvalues(m: Matrix) -> np.ndarray:
    """The n eigenvalues (with multiplicity), in Schur order: the diagonal of T."""
    return schur(m).eigenvalues


def spectral_radius(m: Matrix) -> float:
    """Largest eigenvalue modulus."""
    return float(np.abs(eigenvalues(m)).max())


def schur(m: Matrix) -> SchurFactors:
    """Complex Schur decomposition W = Q T Q*, T upper triangular (cached)."""
    if m._schur is None:
        try:
            t, q = complex_schur(m.array)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Schur decomposition failed: {exc}") from exc
        if not (np.isfinite(t).all() and np.isfinite(q).all()):
            raise NumericalError("Schur form overflowed: eigenvalues past the float range")
        t = np.triu(t)  # LAPACK already zeros the lower part; make it structural
        evs = np.diag(t).copy()
        evs.setflags(write=False)
        m._schur = SchurFactors(q=Matrix(q), t=Matrix(t), eigenvalues=evs)
    return m._schur


def mat_power_norms(m: Matrix, l_max: int) -> np.ndarray:
    """Spectral norms of W^0 .. W^l_max; entry 0 is exactly 1."""
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    norms = np.empty(l_max + 1)
    norms[0] = 1.0
    p = np.eye(m.rows, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, l_max + 1):
            p = p @ m.array
            if not np.isfinite(p).all():
                raise NumericalError(f"matrix power overflowed at exponent {k}")
            norms[k] = np.linalg.svd(p, compute_uv=False)[0]
    return norms


def normalized(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(a / s, s), s the power of two with s <= (largest |Re| or |Im| entry) < 2s.

    For real or complex arrays; the zero array gives s = 1. Dividing by a power
    of two is exact, so scale-invariant results on the quotient, and its norms
    scaled back by s, equal the unscaled ones bit for bit unless those overflow.
    """
    peak = float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    if peak == 0.0:
        return a, 1.0
    s = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    if not np.iscomplexobj(a):
        return a / s, s
    # parts divided apart: complex division by s would multiply by 1/s, which overflows for subnormal s
    v = np.empty_like(a)
    v.real, v.imag = a.real / s, a.imag / s
    return v, s
