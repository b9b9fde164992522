"""Spectrum stabilization by alternating power iteration.

Estimates the dominant gain of a real square weight matrix with m rounds of
the alternating iteration v = W^T u / ||.||, u = W v / ||.|| and divides the
matrix by the Rayleigh product u^T W v. As m grows the product converges to
the largest singular value, so the rescaled matrix has spectral norm (and
hence spectral radius) approaching 1. The rescale is a pure scalar division:
eigenvectors, eigenvalue directions and every scale-invariant non-normality
measure are untouched. The iteration, scale-invariant too, runs on W over a
power of two, which keeps entries near the float limits finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .matrix import Matrix, normalized

__all__ = ["StabilizerConfig", "StabilizationResult", "stabilize"]

MAX_RESTARTS = 5  # fresh start vectors tried after an exact dead end


@dataclass(frozen=True)
class StabilizerConfig:
    """Inputs of the stabilization iteration.

    m is the number of power iterations (default 1: cheap, start-vector
    dependent). The start vector, and any restart after an exact dead end,
    is drawn from N(0, 1) by ``numpy.random.default_rng(seed)``, so a seed
    reproduces the result bit for bit.
    """

    m: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("iteration count m must be >= 1")


@dataclass(frozen=True)
class StabilizationResult:
    w_s: Matrix
    gain_estimate: float


def _power_pair(a: np.ndarray, cfg: StabilizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) after cfg.m alternating power steps, restarting on an exact dead end."""
    rng = np.random.default_rng(cfg.seed)
    u = rng.normal(0.0, 1.0, a.shape[0])
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
    iteration, so this only matters for pathological arithmetic). It is
    computed as g·2^k from the iteration on B = W/2^k (``normalized``), and
    W_s = B/g, which is bitwise W/(g·2^k) whenever that is finite and
    normal. A gain past the float range raises NumericalError.
    """
    if not w.is_real:
        raise ValueError("stabilize requires a real-valued matrix")
    a = w.array.real
    if not a.any():
        raise ValueError("cannot stabilize the zero matrix")
    b, scale = normalized(a)
    u, v = _power_pair(b, cfg)
    g = float(abs(u @ (b @ v)))
    if g == 0.0:
        raise NumericalError("gain estimate vanished")
    gain = g * scale
    if not (math.isfinite(gain) and gain > 0.0):
        raise NumericalError(f"gain estimate {g!r} * 2^{math.frexp(scale)[1] - 1} is past the float range")
    return StabilizationResult(w_s=Matrix(b / g), gain_estimate=gain)
