"""Pseudospectra on complex-plane grids, contours, and Kreiss-type bounds.

A point lambda belongs to the eps-pseudospectrum of W exactly when
sigma_min(W - lambda*I) <= eps, the reciprocal form of the resolvent-norm
condition ||(W - lambda I)^-1|| >= 1/eps. The field of sigma_min values over
a rectangular grid is the raw material for contour portraits, pseudospectral
radii and the Kreiss-constant sandwich against transient power growth.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .matrix import Matrix, eigenvalues, mat_power_norms, spectral_radius, two_norm

__all__ = [
    "GridSpec",
    "PseudospectrumField",
    "ContourSet",
    "KreissSandwich",
    "sigma_min_at",
    "compute_field",
    "auto_grid",
    "extract_contours",
    "pseudospectral_radius",
    "kreiss_lower_bound",
    "kreiss_sandwich_check",
    "jacobian_norm_bound_check",
    "resolve_workers",
]

# Nodes per SVD batch are capped so a chunk of shifted matrices stays within
# a fixed memory budget; the chunking is independent of the worker count,
# which keeps results bitwise identical under any parallel schedule.
_CHUNK_SCALARS = 1 << 21

DEFAULT_GRID_NODES = 200
DEFAULT_GRID_PAD = 0.5


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else SPECTO_THREADS, else cpu count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SPECTO_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridSpec:
    """Rectangular complex-plane grid; node (i, j) = re_i + 1j * im_j."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int = DEFAULT_GRID_NODES
    ny: int = DEFAULT_GRID_NODES

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid bounds must satisfy re_min < re_max, im_min < im_max")
        # a finite width implies finite bounds, and keeps every linspace node finite
        if not (math.isfinite(self.re_max - self.re_min) and math.isfinite(self.im_max - self.im_min)):
            raise ValueError("grid bounds and axis widths must be finite")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")

    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def nodes(self) -> np.ndarray:
        """(nx, ny) array of complex grid nodes."""
        return self.re_axis()[:, None] + 1j * self.im_axis()[None, :]

    @property
    def step(self) -> tuple[float, float]:
        return (
            (self.re_max - self.re_min) / (self.nx - 1),
            (self.im_max - self.im_min) / (self.ny - 1),
        )


@dataclass(frozen=True)
class PseudospectrumField:
    """sigma_min(W - lambda*I) sampled at every node of ``grid``."""

    grid: GridSpec
    values: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("field values must be finite and nonnegative")


@dataclass(frozen=True)
class ContourSet:
    """Level sets of a field: one list of polylines per eps level.

    A polyline is a 1-D complex array of vertices; closed loops repeat the
    first vertex at the end.
    """

    levels: tuple[float, ...]
    polylines: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        if len(self.levels) != len(self.polylines):
            raise ValueError("one polyline group per level required")
        _check_levels(self.levels)


def _check_levels(levels) -> None:
    if len(levels) == 0:
        raise ValueError("need at least one level")
    prev = 0.0
    for lev in levels:
        if lev <= prev:
            raise ValueError("levels must be strictly increasing and positive")
        prev = lev


def _sigma_min_stack(a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Smallest singular value of (a - lam*I) for every lam in the batch."""
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = a[None, :, :] - lams[:, None, None] * eye[None, :, :]
        try:
            sigma = np.linalg.svd(shifted, compute_uv=False)[:, -1]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD did not converge: {exc}") from exc
    if not np.isfinite(sigma).all():
        raise NumericalError("sigma_min overflowed: W - lambda*I has entries past the float range")
    return sigma


def sigma_min_at(w: Matrix, lam: complex) -> float:
    """sigma_min(W - lambda*I); zero exactly when lambda is an eigenvalue."""
    if not w.is_square:
        raise ValueError(f"sigma_min_at requires a square matrix, got {w.shape}")
    return float(_sigma_min_stack(w.array, np.array([lam], dtype=np.complex128))[0])


def compute_field(w: Matrix, grid: GridSpec, *, workers: int | None = None) -> PseudospectrumField:
    """Evaluate sigma_min(W - lambda*I) at every grid node.

    Runs a full SVD per node, batched through LAPACK. Node evaluations are
    independent, so the work may fan out to threads; chunk boundaries are
    fixed, which makes the result bitwise identical for every worker count.
    """
    if not w.is_square:
        raise ValueError(f"compute_field requires a square matrix, got {w.shape}")
    a = w.array
    lams = np.ascontiguousarray(grid.nodes().reshape(-1))
    out = np.empty(lams.size)
    chunk = max(1, _CHUNK_SCALARS // (w.rows * w.rows))
    spans = [(s, min(s + chunk, lams.size)) for s in range(0, lams.size, chunk)]

    def run(span):
        lo, hi = span
        out[lo:hi] = _sigma_min_stack(a, lams[lo:hi])

    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(spans) == 1:
        for span in spans:
            run(span)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run, spans))

    values = out.reshape(grid.nx, grid.ny)
    values.setflags(write=False)
    return PseudospectrumField(grid=grid, values=values, eigenvalues=eigenvalues(w))


def auto_grid(
    *ws: Matrix,
    pad: float = DEFAULT_GRID_PAD,
    nx: int = DEFAULT_GRID_NODES,
    ny: int = DEFAULT_GRID_NODES,
) -> GridSpec:
    """Bounding box of the spectra of ``ws`` and the closed unit disk, padded.

    The unit disk is always included so portraits show the stability
    boundary of the discrete dynamics regardless of where the eigenvalues
    sit. With several matrices the box is their shared grid: it equals the
    union of the boxes of each matrix on its own.
    """
    if not ws:
        raise ValueError("auto_grid needs at least one matrix")
    if not (pad >= 0 and math.isfinite(pad)):
        raise ValueError("pad must be finite and nonnegative")
    evs = np.concatenate([eigenvalues(w) for w in ws])
    re_min = min(float(evs.real.min()), -1.0) - pad
    re_max = max(float(evs.real.max()), 1.0) + pad
    im_min = min(float(evs.imag.min()), -1.0) - pad
    im_max = max(float(evs.imag.max()), 1.0) + pad
    if not (math.isfinite(re_max - re_min) and math.isfinite(im_max - im_min)):
        raise NumericalError(
            f"spectrum spans [{re_min:.6g}, {re_max:.6g}] x [{im_min:.6g}, {im_max:.6g}], "
            "too wide for a finite grid"
        )
    return GridSpec(re_min, re_max, im_min, im_max, nx, ny)


# ---------------------------------------------------------------------------
# Marching squares
#
# Cell corners, with i indexing the real axis and j the imaginary axis:
#
#     c01 --- c11          edges: ("h", i, j)   node (i,j) -- (i+1,j)
#      |       |                  ("v", i, j)   node (i,j) -- (i,j+1)
#     c00 --- c10
#
# A corner is "inside" when its value < level. Intersection points are
# linearly interpolated along crossed edges and keyed by the edge they lie
# on, so segment endpoints from neighbouring cells match exactly and chain
# into polylines without any floating-point tolerance. The two ambiguous
# saddle cases are resolved by the midpoint rule (mean of the four corners).
# ---------------------------------------------------------------------------

_BOTTOM, _RIGHT, _TOP, _LEFT = 0, 1, 2, 3

_CASE_SEGMENTS = {
    0: (),
    1: ((_LEFT, _BOTTOM),),
    2: ((_BOTTOM, _RIGHT),),
    3: ((_LEFT, _RIGHT),),
    4: ((_RIGHT, _TOP),),
    6: ((_BOTTOM, _TOP),),
    7: ((_LEFT, _TOP),),
    8: ((_TOP, _LEFT),),
    9: ((_BOTTOM, _TOP),),
    11: ((_RIGHT, _TOP),),
    12: ((_LEFT, _RIGHT),),
    13: ((_BOTTOM, _RIGHT),),
    14: ((_LEFT, _BOTTOM),),
    15: (),
}


def _cell_edge_key(i: int, j: int, side: int) -> tuple[str, int, int]:
    if side == _BOTTOM:
        return ("h", i, j)
    if side == _TOP:
        return ("h", i, j + 1)
    if side == _LEFT:
        return ("v", i, j)
    return ("v", i + 1, j)


def _level_segments(values: np.ndarray, level: float):
    """(key_a, key_b) edge-key segments for one level.

    The case index of every cell is computed vectorially; only boundary
    cells (mixed corners) are visited in Python, so the cost scales with
    the contour length rather than the grid area.
    """
    inside = values < level
    cases = (
        inside[:-1, :-1].astype(np.int8)
        | inside[1:, :-1].astype(np.int8) << 1
        | inside[1:, 1:].astype(np.int8) << 2
        | inside[:-1, 1:].astype(np.int8) << 3
    )
    segments = []
    for i, j in np.argwhere((cases != 0) & (cases != 15)):
        case = int(cases[i, j])
        if case in (5, 10):
            center_inside = (
                values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1]
            ) < 4.0 * level
            if (case == 5) == center_inside:
                pairs = ((_LEFT, _TOP), (_BOTTOM, _RIGHT))
            else:
                pairs = ((_LEFT, _BOTTOM), (_RIGHT, _TOP))
        else:
            pairs = _CASE_SEGMENTS[case]
        for a, b in pairs:
            segments.append((_cell_edge_key(int(i), int(j), a), _cell_edge_key(int(i), int(j), b)))
    return segments


def _edge_point(key: tuple[str, int, int], values, re_ax, im_ax, level: float) -> complex:
    kind, i, j = key
    if kind == "h":
        va, vb = values[i, j], values[i + 1, j]
        t = (level - va) / (vb - va)
        return complex(re_ax[i] + t * (re_ax[i + 1] - re_ax[i]), im_ax[j])
    va, vb = values[i, j], values[i, j + 1]
    t = (level - va) / (vb - va)
    return complex(re_ax[i], im_ax[j] + t * (im_ax[j + 1] - im_ax[j]))


def _chain_segments(segments) -> list[list]:
    """Join edge-key segments into maximal open chains and closed loops."""
    adjacency: dict = {}
    for sid, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((sid, b))
        adjacency.setdefault(b, []).append((sid, a))
    used = [False] * len(segments)
    chains = []
    for sid, (a, b) in enumerate(segments):
        if used[sid]:
            continue
        used[sid] = True
        chain = [a, b]
        for grow_end in (True, False):
            while True:
                tip = chain[-1] if grow_end else chain[0]
                nxt = None
                for nsid, other in adjacency[tip]:
                    if not used[nsid]:
                        nxt = (nsid, other)
                        break
                if nxt is None:
                    break
                used[nxt[0]] = True
                if grow_end:
                    chain.append(nxt[1])
                else:
                    chain.insert(0, nxt[1])
            if grow_end and chain[0] == chain[-1]:
                break  # closed loop
        chains.append(chain)
    return chains


def extract_contours(field: PseudospectrumField, levels) -> ContourSet:
    """Marching-squares level sets of the field at each eps level.

    Levels below the field minimum simply produce an empty polyline list.
    """
    levels = tuple(float(lev) for lev in levels)
    _check_levels(levels)
    re_ax = field.grid.re_axis()
    im_ax = field.grid.im_axis()
    groups = []
    for level in levels:
        segments = _level_segments(field.values, level)
        polys = []
        for chain in _chain_segments(segments):
            pts = np.array(
                [_edge_point(k, field.values, re_ax, im_ax, level) for k in chain],
                dtype=np.complex128,
            )
            polys.append(pts)
        groups.append(tuple(polys))
    return ContourSet(levels=levels, polylines=tuple(groups))


# ---------------------------------------------------------------------------
# Pseudospectral radius and Kreiss bounds
# ---------------------------------------------------------------------------


def pseudospectral_radius(field: PseudospectrumField, eps: float) -> float:
    """Largest |lambda| over grid nodes inside the eps-pseudospectrum.

    A grid-based lower approximation. When no node qualifies the exact
    eigenvalues are used as a fallback (they always belong to sigma_eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    mask = field.values <= eps
    if mask.any():
        return float(np.abs(field.grid.nodes())[mask].max())
    return float(np.abs(field.eigenvalues).max())


def kreiss_lower_bound(field: PseudospectrumField, eps_list) -> float:
    """max over eps of (rho_eps - 1)/eps: a finite-sample Kreiss estimate.

    Underestimates the true Kreiss constant both through the eps sampling
    and through the grid-based rho_eps; clamped at zero.
    """
    eps_arr = [float(e) for e in eps_list]
    if not eps_arr or any(e <= 0 for e in eps_arr):
        raise ValueError("eps_list must be nonempty with positive entries")
    best = max((pseudospectral_radius(field, e) - 1.0) / e for e in eps_arr)
    if not np.isfinite(best):
        raise NumericalError("Kreiss lower bound overflowed: (rho_eps - 1)/eps is past the float range")
    return max(best, 0.0)


@dataclass(frozen=True)
class KreissSandwich:
    """Finite-sample check of K(W) <= sup_l ||W^l|| <= e*n*K(W)."""

    lhs: float
    mid: float
    rhs: float
    holds: bool
    l_peak: int


def kreiss_sandwich_check(
    w: Matrix,
    field: PseudospectrumField,
    eps_list,
    l_max: int = 64,
    slack: float = 0.05,
) -> KreissSandwich:
    """Check the two-sided Kreiss inequality with finite-sample estimates.

    Requires spectral radius < 1 so the power-norm supremum is attained at
    finite l; l_max doubles until the peak is interior. Both sides are
    sampled approximations of suprema, hence the multiplicative slack.
    """
    if spectral_radius(w) >= 1.0:
        raise ValueError("kreiss_sandwich_check requires spectral radius < 1")
    norms = mat_power_norms(w, l_max)
    while int(np.argmax(norms)) == len(norms) - 1:
        l_max *= 2
        if l_max > 10000:
            raise ValueError("power norms still growing at l=10000; check inputs")
        norms = mat_power_norms(w, l_max)
    lhs = kreiss_lower_bound(field, eps_list)
    mid = float(norms.max())
    rhs = math.e * w.rows * lhs
    holds = lhs <= mid * (1.0 + slack) and mid <= rhs * (1.0 + slack)
    return KreissSandwich(
        lhs=lhs, mid=mid, rhs=rhs, holds=holds, l_peak=int(np.argmax(norms))
    )


def jacobian_norm_bound_check(
    w: Matrix, activation_derivative_max: float, t_minus_k: int
) -> float:
    """(||W||_2 * max sigma')^(t-k): upper bound on the BPTT Jacobian product."""
    if t_minus_k < 1:
        raise ValueError("t_minus_k must be >= 1")
    return (two_norm(w) * activation_derivative_max) ** t_minus_k
