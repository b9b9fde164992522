"""Measures of how far a square matrix is from normal.

A matrix is normal when it commutes with its adjoint; only then is it
unitarily diagonalizable and only then do eigenvalues tell the whole
stability story. Two indices are exposed: the Henrici number (commutator
norm over squared Frobenius norm, scale invariant, 0 iff normal) and the
Schur departure ||N||_F, the strictly upper triangular mass left over after
unitary triangularization. Both are evaluated on W divided by a power of two
near its largest entry, so entries near the overflow threshold still give
finite indices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, normalized, schur

__all__ = [
    "NonNormalityReport",
    "henrici_number",
    "schur_departure",
    "nonnormality_report",
]

@dataclass(frozen=True)
class NonNormalityReport:
    henrici: float
    schur_departure: float


def _commutator_parts(w: Matrix, op: str) -> tuple[float, float]:
    """||V V* - V* V||_F and ||V||_F for V = W / s (see matrix.normalized)."""
    if not w.is_square:
        raise ValueError(f"{op} requires a square matrix, got {w.shape}")
    v, _ = normalized(w.array)
    vh = v.conj().T
    return float(np.linalg.norm(v @ vh - vh @ v)), float(np.linalg.norm(v))


def henrici_number(w: Matrix) -> float:
    """Scale-invariant non-normality index ||W W* - W* W||_F / ||W||_F^2.

    Zero (within rounding) iff W is normal. The zero matrix is degenerate;
    it is reported as 0 with a warning.
    """
    comm, fro = _commutator_parts(w, "henrici_number")
    if fro == 0.0:
        warnings.warn(
            "henrici_number of the zero matrix is degenerate; returning 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return comm / fro**2


def schur_departure(w: Matrix) -> tuple[np.ndarray, float]:
    """Eigenvalues plus ||N||_F, the strict upper triangle of the Schur T.

    N itself is not unique but its Frobenius norm is, and it satisfies
    ||N||_F^2 = ||W||_F^2 - sum |lambda_i|^2.
    """
    factors = schur(w)
    n, s = normalized(np.triu(factors.t.array, 1))
    return factors.eigenvalues, float(np.linalg.norm(n)) * s


def nonnormality_report(w: Matrix) -> NonNormalityReport:
    """Both indices at once; the zero matrix reads 0 without henrici_number's warning."""
    _, departure = schur_departure(w)
    comm, fro = _commutator_parts(w, "nonnormality_report")
    return NonNormalityReport(henrici=0.0 if fro == 0.0 else comm / fro**2, schur_departure=departure)
