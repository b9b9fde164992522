"""Dense complex matrices and the factorizations the rest of the toolkit consumes.

Everything is double precision. Real input is promoted to complex128 so the
whole toolkit runs on a single scalar type; the heavy kernels (SVD, Schur)
delegate to LAPACK through numpy/scipy. Each matrix is factorized at most
once: the complex Schur form (which also yields the eigenvalues) and the
singular values are cached on the immutable instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    """Immutable dense matrix of complex128 entries.

    Entries must all be finite; the backing array is write-locked so
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
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a
        self._schur: SchurFactors | None = None
        self._sv: np.ndarray | None = None

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying (rows, cols) complex array."""
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
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_real(self) -> bool:
        return not self._a.imag.any()

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SchurFactors:
    """Complex Schur form W = Q T Q* with T split into diagonal and strict part.

    ``eigenvalues`` is the diagonal of T; ``n_strict`` is the strictly upper
    triangular remainder. Q and T are unique only up to phases and eigenvalue
    ordering, so consumers should rely on the reconstruction invariants, not
    on element values.
    """

    q: Matrix
    t: Matrix
    eigenvalues: np.ndarray
    n_strict: Matrix


def _require_square(m: Matrix, op: str) -> None:
    if not m.is_square:
        raise ValueError(f"{op} requires a square matrix, got {m.shape}")


def singular_values(m: Matrix) -> np.ndarray:
    """All min(rows, cols) singular values, descending (read-only, cached)."""
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
    _require_square(m, "schur")
    if m._schur is None:
        try:
            t, q = scipy.linalg.schur(m.array, output="complex")
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Schur decomposition failed: {exc}") from exc
        if not (np.isfinite(t).all() and np.isfinite(q).all()):
            raise NumericalError("Schur form overflowed: eigenvalues past the float range")
        t = np.triu(t)  # LAPACK already zeros the lower part; make it structural
        evs = np.diag(t).copy()
        evs.setflags(write=False)
        m._schur = SchurFactors(
            q=Matrix(q),
            t=Matrix(t),
            eigenvalues=evs,
            n_strict=Matrix(np.triu(t, 1)),
        )
    return m._schur


def mat_power_norms(m: Matrix, l_max: int) -> np.ndarray:
    """Spectral norms of W^0 .. W^l_max; entry 0 is exactly 1."""
    _require_square(m, "mat_power_norms")
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
