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
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._blas import one_thread
from .errors import NumericalError
from .matrix import Matrix, eigenvalues, mat_power_norms, spectral_radius

__all__ = [
    "GridSpec",
    "PseudospectrumField",
    "ContourSet",
    "KreissSandwich",
    "check_levels",
    "sigma_min_at",
    "compute_field",
    "compute_fields",
    "auto_grid",
    "extract_contours",
    "pseudospectral_radius",
    "kreiss_lower_bound",
    "kreiss_sandwich_check",
    "resolve_workers",
]

# Nodes per SVD batch are capped so a chunk of shifted matrices stays within
# a fixed memory budget (512 KiB of complex scalars, 32 shifted 32x32 gates).
# The chunks are built in buffers of this size that belong to the caller of
# compute_fields, one per worker, allocated once per call on its thread and
# handed to the pool tasks through a queue. The pool threads allocate only
# LAPACK's small per-call arrays, so no worker's malloc arena keeps a chunk
# resident on top of a training's peak (once training has freed its dataset,
# glibc's raised mmap threshold keeps such blocks on the heap). One SVD
# thread takes the same time per node at any chunk size, as the cost is
# LAPACK's per-matrix call. The chunking is independent of the worker count,
# which keeps results bitwise identical under any parallel schedule.
_CHUNK_SCALARS = 1 << 15

# Nodes per row block of the full-grid bracket arithmetic in compute_field,
# so its temporaries stay a small fraction of the grid (64 KiB of float64 a
# block). Each block costs the calling thread a fixed numpy overhead, on the
# critical path between SVD stages: 4096-node blocks took ~25% more caller
# CPU than whole-grid arithmetic on a 200x200 compare, 8192-node blocks no
# measurable extra, and neither held more memory at its peak.
_BLOCK_SCALARS = 1 << 13

# Rounding margin of the Lipschitz brackets, relative to ||W||_F + max|node|.
# A computed singular value of W - lambda*I is off by a small multiple of
# n * 1.1e-16 * ||W - lambda*I||_2, so 1e-12 covers a lattice value, the
# node's own value and the distances for n up to a few thousand.
_BRACKET_MARGIN = 1e-12

# Steps of the lattices on which compute_field refines the field, coarsest
# first. The last must be 1: that pass (wave 1) brackets every grid node.
_LATTICE_STEPS = (8, 4, 2, 1)

DEFAULT_GRID_NODES = 200
DEFAULT_GRID_PAD = 0.5


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: ``workers``, else the cpu count; ValueError unless an integer >= 1."""
    if workers is None:
        return os.cpu_count() or 1
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return workers


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
    """sigma_min(W - lambda*I) over the nodes of ``grid``, exact for ``levels``.

    ``exact`` marks the nodes that hold sigma_min itself; every other node
    holds a certified lower bound that lies on the same side of each of
    ``levels`` as sigma_min, for both ``<`` and ``<=``, and its four grid
    neighbours do too. ``levels=None`` means every node is exact. On a field
    folded across the real axis (see ``compute_field``) an exact node holds
    sigma_min at a point within a few ulps of the node. ``evaluated`` is the
    number of sigma_min evaluations the field took, ``exact.sum()`` by
    default; a folded field evaluates about half of its exact nodes.
    """

    grid: GridSpec
    values: np.ndarray
    eigenvalues: np.ndarray
    levels: tuple[float, ...] | None = None
    exact: np.ndarray | None = None
    evaluated: int | None = None

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        if self.values.shape != shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("field values must be finite and nonnegative")
        if self.levels is not None:
            object.__setattr__(self, "levels", check_levels(self.levels))
        exact = np.ones(shape, dtype=bool) if self.exact is None else np.array(self.exact, dtype=bool)
        if exact.shape != shape:
            raise ValueError(f"exact mask shape {exact.shape} does not match grid {shape}")
        if self.levels is None and not exact.all():
            raise ValueError("a field without levels must be exact at every node")
        exact.setflags(write=False)
        object.__setattr__(self, "exact", exact)
        evaluated = int(exact.sum()) if self.evaluated is None else int(self.evaluated)
        if not 0 <= evaluated <= exact.sum():
            raise ValueError(f"evaluated count {evaluated} is not within 0..{int(exact.sum())} exact nodes")
        object.__setattr__(self, "evaluated", evaluated)


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
        check_levels(self.levels)


def check_levels(levels) -> tuple[float, ...]:
    """``levels`` as floats; eps levels must be finite, positive and strictly increasing."""
    levels = tuple(float(lev) for lev in levels)
    increasing = all(a < b for a, b in zip(levels, levels[1:]))
    if not (levels and increasing and 0.0 < levels[0] and levels[-1] < math.inf):
        raise ValueError(f"eps levels must be finite, positive and strictly increasing, got {list(levels)}")
    return levels


def _require_levels(field: PseudospectrumField, levels) -> tuple[float, ...]:
    """``levels`` as checked eps levels, each one a level the field is exact for."""
    levels = check_levels(levels)
    if field.levels is not None:
        missing = [lev for lev in levels if lev not in field.levels]
        if missing:
            raise ValueError(f"eps levels {missing} are not among the field's levels {list(field.levels)}")
    return levels


def _sigma_min_stack(a: np.ndarray, lams: np.ndarray, spare: queue.SimpleQueue | None = None) -> np.ndarray:
    """Smallest singular value of (a - lam*I) for every lam in the batch.

    The shifted matrices are built in a flat complex128 buffer taken from
    ``spare`` and put back after, or in a fresh array when ``spare`` is None.
    """
    k, n = lams.size, a.shape[0]
    buffer = np.empty(k * n * n, dtype=np.complex128) if spare is None else spare.get()
    try:
        shifted = buffer[: k * n * n].reshape(k, n, n)
        shifted[...] = a
        with np.errstate(over="ignore", invalid="ignore"):
            shifted.reshape(k, n * n)[:, :: n + 1] -= lams[:, None]  # the diagonals
            try:
                sigma = np.linalg.svd(shifted, compute_uv=False)[:, -1]
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"SVD did not converge: {exc}") from exc
    finally:
        if spare is not None:
            spare.put(buffer)
    if not np.isfinite(sigma).all():
        raise NumericalError("sigma_min overflowed: W - lambda*I has entries past the float range")
    return sigma


def sigma_min_at(w: Matrix, lam: complex) -> float:
    """sigma_min(W - lambda*I); zero exactly when lambda is an eigenvalue."""
    return float(_sigma_min_stack(w.array, np.array([lam], dtype=np.complex128))[0])


def _node_radii(grid: GridSpec) -> np.ndarray:
    """|node| at every grid node, built from the axes in row blocks.

    They are ``np.abs(grid.nodes())`` to the bit, without the complex grid.
    numpy's complex absolute value can differ from ``np.hypot`` of the parts
    in the last bit, so the radii are not taken from ``np.hypot``.
    """
    re, im = grid.re_axis(), grid.im_axis()
    radii = np.empty((grid.nx, grid.ny))
    block = max(1, _BLOCK_SCALARS // grid.ny)
    for s in range(0, grid.nx, block):
        radii[s : s + block] = np.abs(re[s : s + block, None] + 1j * im)
    return radii


def _lattice(n: int, step: int, folded: bool) -> np.ndarray:
    """Every ``step``-th index of an axis of ``n`` nodes, and the end ones.

    On a folded axis the indices count outward from the middle, so they fold
    onto each other.
    """
    if not folded:
        return np.unique(np.r_[0:n:step, n - 1])
    upper = np.r_[n // 2 : n : step, n - 1]
    return np.union1d(upper, n - 1 - upper)


def _around(lattice: np.ndarray, at: np.ndarray):
    """Positions in ``lattice`` of the index at or below, and at or above, each index in ``at``."""
    return np.searchsorted(lattice, at, "right") - 1, np.searchsorted(lattice, at)


def _brackets(grid: GridSpec, rows, cols, lo: np.ndarray, hi: np.ndarray, at_rows, at_cols):
    """Bounds on sigma_min at the nodes at_rows x at_cols from bounds [lo, hi] at rows x cols.

    sigma_min(W - lambda*I) is 1-Lipschitz in lambda, so each of the four
    lattice nodes around a node bounds it within their distance.
    """
    re, im = grid.re_axis(), grid.im_axis()
    out_lo = np.full((at_rows.size, at_cols.size), -np.inf)
    out_hi = np.full((at_rows.size, at_cols.size), np.inf)
    for pr in _around(rows, at_rows):
        for pc in _around(cols, at_cols):
            dist = np.hypot((re[at_rows] - re[rows[pr]])[:, None], (im[at_cols] - im[cols[pc]])[None, :])
            np.maximum(out_lo, lo[np.ix_(pr, pc)] - dist, out=out_lo)
            np.minimum(out_hi, hi[np.ix_(pr, pc)] + dist, out=out_hi)
    return out_lo, out_hi


def _differs_from_a_neighbour(band: np.ndarray) -> np.ndarray:
    """Nodes with a grid neighbour (up, down, left or right) in another band."""
    across = band[:-1, :] != band[1:, :]
    up = band[:, :-1] != band[:, 1:]
    differs = np.zeros(band.shape, dtype=bool)
    differs[:-1] |= across
    differs[1:] |= across
    differs[:, :-1] |= up
    differs[:, 1:] |= up
    return differs


def compute_field(w: Matrix, grid: GridSpec, levels=None, *, workers: int | None = None) -> PseudospectrumField:
    """sigma_min(W - lambda*I) at the grid nodes, exact wherever a level can cross.

    sigma_min is 1-Lipschitz in lambda, so known values bracket it nearby.
    The field is refined in one loop over lattices of every step-th grid row
    and column, plus the last ones, for each step of ``_LATTICE_STEPS``
    (8, 4, 2, 1). Each pass gives every node of its lattice a bracket
    [lo, hi] from the four nodes of the previous lattice around it, from
    their values or from their own bracket ends, and evaluates the node when
    its bracket, widened by one grid step h (the larger axis step) on the
    coarse lattices and by 0 on the whole grid, holds a level. The first
    pass brackets its lattice from itself while every bracket is still
    [-inf, inf], so each of its nodes is evaluated; the last pass (wave 1)
    brackets the whole grid. An evaluated value v bounds sigma_min to
    [v - margin, v + margin]; the margin covers rounding, so a bracket also
    holds the value that evaluating its node would give.

    Every node then has a band: the gap between consecutive levels that holds
    its value or bracket, or -1 if one of ``levels`` lies in it. Wave 2
    evaluates every node with a grid neighbour in another band. Evaluating a
    node keeps its band, so after wave 2 each node that is not evaluated
    (certified) has four neighbours in its own band, none of them on a level:
    no crossed edge touches it, and contours, eps-radii and node counts at
    ``levels`` are those of the exact field. A certified node stores
    max(lo, 0). With ``levels=None`` every node is evaluated.

    A real W on a box with im_min == -im_max is folded across the real axis:
    sigma_min(W - conj(lambda)*I) = sigma_min(W - lambda*I), so sigma_min is
    evaluated only on the columns j >= ny-1-j (im >= 0), and column j reads
    column ny-1-j. The lattice columns are counted outward from the middle,
    so they fold onto each other, and a node is evaluated with its mirror.
    The linspace axis is antisymmetric only to a few ulps, so a folded value
    is sigma_min at a point within ``skew`` = max_j |im_j + im_(ny-1-j)| of
    its node, and the margin grows by 2 * skew, for a lattice value and the
    node's own. ``field.evaluated`` counts the sigma_min evaluations.

    Each node is a full SVD, batched through LAPACK in chunks of fixed size
    on a pool of threads, so the values are bitwise identical for every
    worker count. This is the one-job case of ``compute_fields``.
    """
    return compute_fields([(w, grid)], levels, workers=workers)[0]


def compute_fields(jobs, levels=None, *, workers: int | None = None) -> list[PseudospectrumField]:
    """``compute_field`` of every ``(W, grid)`` job, sharing one pool of SVD workers.

    The pool's ``resolve_workers(workers)`` threads are the only ones started
    (``workers=1``: one beside the caller). The caller queues the nodes each
    stage of a job (``_field``) yields in the chunks of a job run alone, so
    every field is bitwise the one ``compute_field`` returns, and resumes up
    to ``workers + 1`` jobs in FIFO turns: one job's brackets overlap the
    others' chunks. The chunks are built in buffers of ``_CHUNK_SCALARS``
    complex scalars (or one matrix, if larger) that the call allocates on
    the caller's thread, one per worker, and lends to the SVD tasks through
    a queue, so no worker's malloc arena keeps a chunk. On a failure the
    queued chunks are cancelled, the other jobs closed, and the first error
    met in turn order is raised. The SVDs run with OpenBLAS at one thread
    (``_blas``), so the fields do not depend on its thread count either.
    """
    jobs = list(jobs)
    if levels is not None:
        levels = check_levels(levels)
    nworkers = resolve_workers(workers)
    spare = queue.SimpleQueue()
    size = max([_CHUNK_SCALARS] + [w.array.size for w, _ in jobs])
    for _ in range(nworkers):
        spare.put(np.empty(size, dtype=np.complex128))
    fields = [None] * len(jobs)
    waiting = deque(enumerate(jobs))
    turns = deque()  # (job index, its stage generator, the futures of the chunks it waits for)
    with one_thread, ThreadPoolExecutor(nworkers) as pool:
        try:
            while turns or waiting:
                if waiting and len(turns) <= nworkers:  # start a job
                    k, (w, grid) = waiting.popleft()
                    stage, sigma = _field(w, grid, levels), None
                else:  # resume the oldest one with the sigma_min of its chunks
                    k, stage, futures = turns[0]
                    sigma = np.concatenate([np.empty(0)] + [f.result() for f in futures])
                    turns.popleft()
                try:
                    lams = stage.send(sigma)
                except StopIteration as done:
                    fields[k] = done.value
                    continue
                a = jobs[k][0].array
                chunk = max(1, _CHUNK_SCALARS // a.size)
                futures = [
                    pool.submit(_sigma_min_stack, a, lams[s : s + chunk], spare) for s in range(0, lams.size, chunk)
                ]
                turns.append((k, stage, futures))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            for _, stage, _ in turns:
                stage.close()
            raise
    return fields


def _field(w: Matrix, grid: GridSpec, levels):
    """``compute_field`` as a generator: each stage yields its nodes and is sent their sigma_min.

    No ``np.errstate`` spans a ``yield``, or its state would leak into the jobs run between turns.
    The full-grid arithmetic runs in row blocks of ``_BLOCK_SCALARS`` nodes, and a stage's nodes
    are built from the axes, so no complex node grid or full-grid temporary is held.
    """
    spectrum = eigenvalues(w)
    a = w.array
    shape = (grid.nx, grid.ny)
    re, im = grid.re_axis(), grid.im_axis()
    folded = w.is_real and grid.im_min == -grid.im_max
    mirror = np.arange(grid.ny)[:: -1 if folded else 1]  # column j reads its values from column mirror[j]
    skew = float(np.abs(im + im[::-1]).max()) if folded else 0.0
    own = np.arange(grid.ny) >= mirror  # the columns sigma_min is evaluated on
    values = np.zeros(shape)
    exact = np.zeros(shape, dtype=bool)
    block = max(1, _BLOCK_SCALARS // grid.ny)  # grid rows per block

    def evaluate(mask):
        mask = (mask | mask[:, mirror]) & ~exact
        i, j = np.nonzero(mask & own)
        values[i, j] = yield re[i] + 1j * im[j]
        i, j = np.nonzero(mask & ~own)
        values[i, j] = values[i, mirror[j]]
        exact[mask] = True

    if levels is None:
        yield from evaluate(np.ones(shape, dtype=bool))
    else:
        with np.errstate(over="ignore"):
            margin = _BRACKET_MARGIN * (float(np.linalg.norm(a)) + float(_node_radii(grid).max())) + 2.0 * skew
        h = max(grid.step)
        lo, hi = np.full(shape, -np.inf), np.full(shape, np.inf)

        def holds(lo, hi):  # some level lies in [lo, hi]
            return np.searchsorted(levels, hi, "right") > np.searchsorted(levels, lo)

        def crossable(rows, cols, at_rows, at_cols, widen):
            """Bracket the nodes at_rows x at_cols from rows x cols into lo, hi; mask those whose
            bracket, widened by ``widen``, holds a level."""
            ix = np.ix_(rows, cols)
            known = exact[ix]
            near = np.zeros(shape, dtype=bool)
            with np.errstate(over="ignore"):
                below = np.where(known, values[ix] - margin, lo[ix])
                above = np.where(known, values[ix] + margin, hi[ix])
                for s in range(0, at_rows.size, block):
                    part = at_rows[s : s + block]
                    out = np.ix_(part, at_cols)
                    part_lo, part_hi = _brackets(grid, rows, cols, below, above, part, at_cols)
                    lo[out], hi[out] = part_lo, part_hi
                    near[out] = holds(part_lo - widen, part_hi + widen)
            return near

        lattices = [(_lattice(grid.nx, step, False), _lattice(grid.ny, step, folded)) for step in _LATTICE_STEPS]
        for step, coarse, at in zip(_LATTICE_STEPS, lattices[:1] + lattices, lattices):
            yield from evaluate(crossable(*coarse, *at, h if step > 1 else 0.0))
        np.copyto(lo, values, where=exact)
        np.copyto(hi, values, where=exact)
        band = np.empty(shape, dtype=np.min_scalar_type(-1 - len(levels)))  # -1 .. len(levels)
        for s in range(0, grid.nx, block):
            part = slice(s, s + block)
            band[part] = np.where(holds(lo[part], hi[part]), -1, np.searchsorted(levels, lo[part]))
        yield from evaluate(_differs_from_a_neighbour(band))  # wave 2
        np.maximum(lo, 0.0, out=lo)
        np.copyto(values, lo, where=~exact)
    values.setflags(write=False)
    return PseudospectrumField(
        grid=grid, values=values, eigenvalues=spectrum, levels=levels, exact=exact, evaluated=int((exact & own).sum())
    )


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
    union of the boxes of each matrix on its own. A real matrix's
    eigenvalues count together with their conjugates, as the complex Schur
    form does not return exact conjugate pairs, so its box is symmetric
    about the real axis to the bit and ``compute_field`` can fold it.
    """
    if not ws:
        raise ValueError("auto_grid needs at least one matrix")
    if not (pad >= 0 and math.isfinite(pad)):
        raise ValueError("pad must be finite and nonnegative")
    spectra = [eigenvalues(w) for w in ws]
    evs = np.concatenate([np.r_[ev, ev.conj()] if w.is_real else ev for w, ev in zip(ws, spectra)])
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
# Contours from crossed cell sides
#
# A node is inside when its value < level, and the level crosses each grid
# edge whose two nodes disagree. Edges carry integer ids: (i,j)-(i+1,j) is
# i*ny + j and (i,j)-(i,j+1) is (nx-1)*ny + i*(ny-1) + j. A cell is crossed on
# zero, two or four sides. Two crossed sides hold one segment joining them; a
# saddle's four hold two segments that cut off the two corners on the other
# side from the cell centre (the mean of the four corners), the midpoint rule.
# So a crossed edge has one neighbour on the grid border and two inside it,
# and polylines are walks: from the border ends first, then around closed
# loops. A vertex is interpolated once per crossed edge, so the two cells
# that share an edge share its vertex exactly.
# ---------------------------------------------------------------------------


def _level_polylines(values: np.ndarray, re_ax, im_ax, level: float) -> list[np.ndarray]:
    nx, ny = values.shape
    inside = values < level
    across = inside[:-1, :] != inside[1:, :]  # crossed edges (i,j)-(i+1,j)
    up = inside[:, :-1] != inside[:, 1:]  # crossed edges (i,j)-(i,j+1)
    n_across = (nx - 1) * ny
    ids = np.concatenate([np.flatnonzero(across), n_across + np.flatnonzero(up)])
    i, j = np.nonzero(across)
    t = (level - values[i, j]) / (values[i + 1, j] - values[i, j])
    re, im = [re_ax[i] + t * (re_ax[i + 1] - re_ax[i])], [im_ax[j]]
    i, j = np.nonzero(up)
    t = (level - values[i, j]) / (values[i, j + 1] - values[i, j])
    re.append(re_ax[i])
    im.append(im_ax[j] + t * (im_ax[j + 1] - im_ax[j]))
    pts = np.empty(ids.size, dtype=np.complex128)
    pts.real, pts.imag = np.concatenate(re), np.concatenate(im)

    # each crossed cell's sides, as positions in ids: bottom, right, top, left
    hit = np.stack([across[:, :-1], up[1:, :], across[:, 1:], up[:-1, :]], axis=-1)
    i, j = np.nonzero(hit.any(axis=-1))
    hit, bottom, left = hit[i, j], i * ny + j, n_across + i * (ny - 1) + j
    sides = np.searchsorted(ids, np.stack([bottom, left + ny - 1, bottom + 1, left], axis=-1))
    pair = hit.sum(axis=-1) == 2
    i, j = i[~pair], j[~pair]
    bs, rs, ts, ls = sides[~pair].T
    centre = (values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1]) < 4.0 * level
    agree = inside[i, j] == centre
    segments = np.concatenate([
        sides[pair][hit[pair]].reshape(-1, 2),
        np.stack([bs, np.where(agree, rs, ls)], axis=-1),
        np.stack([ts, np.where(agree, ls, rs)], axis=-1),
    ])

    neighbours = [[] for _ in range(ids.size)]
    for a, b in segments.tolist():
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen = [False] * ids.size
    polylines = []
    for start in [e for e, nb in enumerate(neighbours) if len(nb) == 1] + list(range(ids.size)):
        if seen[start]:
            continue
        walk, prev = [start], None
        while True:
            seen[walk[-1]] = True
            step = [e for e in neighbours[walk[-1]] if e != prev]
            if not step:
                break
            prev = walk[-1]
            walk.append(step[0])
            if step[0] == start:
                break
        polylines.append(pts[walk])
    return polylines


def extract_contours(field: PseudospectrumField, levels) -> ContourSet:
    """Level sets sigma_min = eps of the field, one polyline group per level.

    Open polylines, which start and end on the grid border, come before
    closed loops, which repeat their first vertex. A level below the field
    minimum gives no polylines.
    """
    levels = _require_levels(field, levels)
    re_ax, im_ax = field.grid.re_axis(), field.grid.im_axis()
    groups = tuple(tuple(_level_polylines(field.values, re_ax, im_ax, lev)) for lev in levels)
    return ContourSet(levels=levels, polylines=groups)


# ---------------------------------------------------------------------------
# Pseudospectral radius and Kreiss bounds
# ---------------------------------------------------------------------------


def _radius_within(field: PseudospectrumField, radii: np.ndarray, eps: float) -> float:
    mask = field.values <= eps
    if mask.any():
        return float(radii[mask].max())
    return float(np.abs(field.eigenvalues).max())


def pseudospectral_radius(field: PseudospectrumField, eps: float) -> float:
    """Largest |lambda| over grid nodes inside the eps-pseudospectrum.

    A grid-based lower approximation. When no node qualifies the exact
    eigenvalues are used as a fallback (they always belong to sigma_eps).
    """
    (eps,) = _require_levels(field, [eps])
    return _radius_within(field, _node_radii(field.grid), eps)


def kreiss_lower_bound(field: PseudospectrumField, eps_list) -> float:
    """max over eps of (rho_eps - 1)/eps: a finite-sample Kreiss estimate.

    Underestimates the true Kreiss constant both through the eps sampling
    and through the grid-based rho_eps; clamped at zero.
    """
    radii = _node_radii(field.grid)
    best = max((_radius_within(field, radii, e) - 1.0) / e for e in _require_levels(field, eps_list))
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
