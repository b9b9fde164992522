"""Spectrum stabilization by alternating power iteration.

Estimates the dominant gain of a real square weight matrix with m rounds of
the alternating iteration v = W^T u / ||.||, u = W v / ||.|| and divides the
matrix by the Rayleigh product u^T W v. As m grows the product converges to
the largest singular value, so the rescaled matrix has spectral norm (and
hence spectral radius) approaching 1. The rescale is a pure scalar division:
eigenvectors, eigenvalue directions and every scale-invariant non-normality
measure are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .matrix import Matrix

__all__ = ["StabilizerConfig", "StabilizationResult", "stabilize"]

MAX_RESTARTS = 5  # fresh start vectors tried after an exact dead end


@dataclass(frozen=True)
class StabilizerConfig:
    """Inputs of the stabilization iteration.

    m is the number of power iterations (default 1: cheap, start-vector
    dependent, reproducible through the seed). The start vector is drawn
    from N(0, 1) unless an explicit one is injected.
    """

    m: int = 1
    seed: int = 0
    injected_u0: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("iteration count m must be >= 1")
        if self.injected_u0 is not None:
            u0 = np.asarray(self.injected_u0, dtype=float)
            if u0.ndim != 1 or np.linalg.norm(u0) == 0.0:
                raise ValueError("injected_u0 must be a 1-D vector with nonzero norm")


@dataclass(frozen=True)
class StabilizationResult:
    w_s: Matrix
    gain_estimate: float


def _power_pair(a: np.ndarray, cfg: StabilizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) after cfg.m alternating power steps, restarting on an exact dead end."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.injected_u0 is None:
        u = rng.normal(0.0, 1.0, a.shape[0])
    else:
        u = np.asarray(cfg.injected_u0, dtype=float)
        if u.shape != (a.shape[0],):
            raise ValueError(f"injected_u0 has dimension {u.shape[0]}, matrix has {a.shape[0]} rows")
    restarts = 0
    steps = 0
    while steps < cfg.m:
        wu = a.T @ u
        nu = np.linalg.norm(wu)
        if nu != 0.0:
            v = wu / nu
            wv = a @ v
            nv = np.linalg.norm(wv)
            if nv != 0.0:
                u = wv / nv
                steps += 1
                continue
        restarts += 1
        if restarts > MAX_RESTARTS:
            vanished = "W^T u" if nu == 0.0 else "W v"
            raise NumericalError(f"power iteration stalled: {vanished} vanished repeatedly")
        u = rng.normal(0.0, 1.0, a.shape[0])
        steps = 0
    return u, v


def stabilize(w: Matrix, cfg: StabilizerConfig = StabilizerConfig()) -> StabilizationResult:
    """Rescale W by the power-iteration gain estimate.

    The divisor is |u_m^T W v_m|; the absolute value guards against a sign
    flip of the spectrum (the product is provably positive after a full
    iteration, so this only matters for pathological arithmetic).
    """
    if not w.is_square:
        raise ValueError(f"stabilize requires a square matrix, got {w.shape}")
    if not w.is_real:
        raise ValueError("stabilize requires a real-valued matrix")
    a = np.ascontiguousarray(w.array.real)
    if not a.any():
        raise ValueError("cannot stabilize the zero matrix")
    u, v = _power_pair(a, cfg)
    gain = float(abs(u @ (a @ v)))
    if gain == 0.0:
        raise NumericalError("gain estimate vanished")
    return StabilizationResult(w_s=Matrix(a / gain), gain_estimate=gain)
