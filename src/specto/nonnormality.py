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


def henrici_number(w: Matrix) -> float:
    """Scale-invariant non-normality index ||W W* - W* W||_F / ||W||_F^2.

    Zero (within rounding) iff W is normal; the zero matrix, which is
    normal, reads 0.
    """
    v, _ = normalized(w.array)
    fro = float(np.linalg.norm(v))
    if fro == 0.0:
        return 0.0
    vh = v.conj().T
    return float(np.linalg.norm(v @ vh - vh @ v)) / fro**2


def schur_departure(w: Matrix) -> float:
    """||N||_F, the strict upper triangle of the Schur T.

    N itself is not unique but its Frobenius norm is, and it satisfies
    ||N||_F^2 = ||W||_F^2 - sum |lambda_i|^2.
    """
    n, s = normalized(np.triu(schur(w).t.array, 1))
    return float(np.linalg.norm(n)) * s


def nonnormality_report(w: Matrix) -> NonNormalityReport:
    """Both indices at once."""
    return NonNormalityReport(henrici=henrici_number(w), schur_departure=schur_departure(w))
