"""Measures of how far a square matrix is from normal.

A matrix is normal when it commutes with its adjoint; only then is it
unitarily diagonalizable and only then do eigenvalues tell the whole
stability story. Two indices are exposed: the Henrici number (commutator
norm over squared Frobenius norm, scale invariant, 0 iff normal) and the
Schur departure ||N||_F, the strictly upper triangular mass left over after
unitary triangularization. Both, and the commutator norm, are evaluated on
W divided by a power of two near its largest entry, so entries near the
overflow threshold still give finite indices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, schur

__all__ = [
    "NonNormalityReport",
    "henrici_number",
    "schur_departure",
    "nonnormality_report",
]

NORMALITY_TOL = 1e-10  # is_normal: ||[W, W*]||_F <= NORMALITY_TOL * max(1, ||W||_F^2)


@dataclass(frozen=True)
class NonNormalityReport:
    henrici: float
    schur_departure: float
    is_normal: bool
    commutator_norm: float


def _normalized(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(a / s, s), s the power of two with s <= (largest |Re| or |Im| entry) < 2s.

    Dividing by a power of two is exact, so norms of the quotient scaled back
    by s equal the unscaled ones bit for bit whenever those do not overflow.
    """
    peak = float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    if peak == 0.0:
        return a, 1.0
    s = math.ldexp(1.0, math.frexp(peak)[1] - 1)
    # parts divided apart: complex division by s would multiply by 1/s, which overflows for subnormal s
    v = np.empty_like(a)
    v.real, v.imag = a.real / s, a.imag / s
    return v, s


def _commutator_parts(w: Matrix, op: str) -> tuple[float, float, float]:
    """||V V* - V* V||_F, ||V||_F and s for V = W / s (see _normalized)."""
    if not w.is_square:
        raise ValueError(f"{op} requires a square matrix, got {w.shape}")
    v, s = _normalized(w.array)
    vh = v.conj().T
    return float(np.linalg.norm(v @ vh - vh @ v)), float(np.linalg.norm(v)), s


def henrici_number(w: Matrix) -> float:
    """Scale-invariant non-normality index ||W W* - W* W||_F / ||W||_F^2.

    Zero (within rounding) iff W is normal. The zero matrix is degenerate;
    it is reported as 0 with a warning.
    """
    comm, fro, _ = _commutator_parts(w, "henrici_number")
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
    n, s = _normalized(factors.n_strict.array)
    return factors.eigenvalues, float(np.linalg.norm(n)) * s


def nonnormality_report(w: Matrix) -> NonNormalityReport:
    """All indices at once; the commutator norm is inf past the float range, the verdict is not."""
    _, departure = schur_departure(w)
    comm, fro, s = _commutator_parts(w, "nonnormality_report")
    if fro * s >= 1.0:
        normal = comm <= NORMALITY_TOL * fro**2
    else:
        normal = comm * s * s <= NORMALITY_TOL
    return NonNormalityReport(
        henrici=0.0 if fro == 0.0 else comm / fro**2,
        schur_departure=departure,
        is_normal=normal,
        commutator_norm=comm * s * s,
    )
