"""Output oracles for the benchmark workloads.

Every check returns a list of error strings; an empty list means the output
is correct. Matrices are read back with a parser of the documented ``.pspc``
layout and the spectral facts are recomputed with plain numpy, so the checks
do not trust the code under test for their reference values. The contour
check uses specto's ``sigma_min_at``, the full-SVD oracle the library keeps
for its tests.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sHHII")

REL_TOL = 1e-9  # spectral facts against independent numpy
CONTOUR_SLACK = 1e-6  # documented relative accuracy of the sigma_min field
GRAD_TOL = 1e-4  # acceptance criterion 5
GRAD_STEP = 1e-5


def write_pspc(path, a: np.ndarray, name: str) -> None:
    """Write a real matrix in the ``.pspc`` container layout."""
    encoded = name.encode("utf-8")
    data = _HEADER.pack(b"PSPC", 1, 0, a.shape[0], a.shape[1])
    data += np.ascontiguousarray(a, dtype="<f8").tobytes()
    Path(path).write_bytes(data + struct.pack("<I", len(encoded)) + encoded)


def read_pspc(path) -> np.ndarray:
    """Read the matrix payload of a ``.pspc`` container."""
    data = Path(path).read_bytes()
    magic, _, flags, rows, cols = _HEADER.unpack_from(data, 0)
    if magic != b"PSPC":
        raise ValueError(f"{path}: not a .pspc container")
    dtype = "<c16" if flags & 1 else "<f8"
    return np.frombuffer(data, dtype=dtype, count=rows * cols, offset=_HEADER.size).reshape(rows, cols)


def spectral_facts(a: np.ndarray) -> dict[str, float]:
    """Spectral radius, spectral norm and Henrici number by plain numpy."""
    fro = np.linalg.norm(a)
    comm = np.linalg.norm(a @ a.conj().T - a.conj().T @ a)
    return {
        "spectral_radius": float(np.abs(np.linalg.eigvals(a)).max()),
        "spectral_norm": float(np.linalg.svd(a, compute_uv=False)[0]),
        "henrici": float(comm / fro**2),
    }


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def check_facts(label: str, reported: dict, a: np.ndarray) -> list[str]:
    errors = []
    for key, want in spectral_facts(a).items():
        got = reported.get(key)
        if not isinstance(got, (int, float)) or not _close(float(got), want, REL_TOL):
            errors.append(f"{label}: {key} {got!r} differs from numpy {want!r}")
    return errors


def _axes(grid: dict):
    return (
        np.linspace(grid["re_min"], grid["re_max"], grid["nx"]),
        np.linspace(grid["im_min"], grid["im_max"], grid["ny"]),
    )


def _edges_of(z: complex, re_ax: np.ndarray, im_ax: np.ndarray):
    """Grid edges (node a, node b) that the vertex z lies on exactly."""
    edges = []
    i = int(np.searchsorted(re_ax, z.real))
    if i < re_ax.size and re_ax[i] == z.real:
        j = min(max(int(np.searchsorted(im_ax, z.imag, "right")) - 1, 0), im_ax.size - 2)
        if im_ax[j] <= z.imag <= im_ax[j + 1]:
            edges.append((complex(re_ax[i], im_ax[j]), complex(re_ax[i], im_ax[j + 1])))
    j = int(np.searchsorted(im_ax, z.imag))
    if j < im_ax.size and im_ax[j] == z.imag:
        i = min(max(int(np.searchsorted(re_ax, z.real, "right")) - 1, 0), re_ax.size - 2)
        if re_ax[i] <= z.real <= re_ax[i + 1]:
            edges.append((complex(re_ax[i], im_ax[j]), complex(re_ax[i + 1], im_ax[j])))
    return edges


def _vertex_ok(sigma_min, z: complex, eps: float, a: complex, b: complex) -> bool:
    """The edge's end values bracket eps and z sits where linear interpolation puts it."""
    sa, sb = sigma_min(a), sigma_min(b)
    lo, hi = min(sa, sb), max(sa, sb)
    if not (lo <= eps * (1 + CONTOUR_SLACK) and hi >= eps * (1 - CONTOUR_SLACK)):
        return False
    if sa == sb:
        return True
    t = (eps - sa) / (sb - sa)
    return abs(z - (a + t * (b - a))) <= CONTOUR_SLACK * abs(b - a)


def check_contours(label: str, csv_path, w, report: dict, rng, sample: int) -> list[str]:
    """Every vertex lies on a grid edge; a seeded sample is checked against the SVD oracle."""
    from specto import sigma_min_at

    grid, levels = report["grid"], report["eps_levels"]
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if rows.size == 0:
        return [f"{label}: no contour vertices"]
    errors = []
    if not set(rows[:, 0].tolist()) <= set(levels):
        errors.append(f"{label}: contour levels outside {levels}")
    counts = [len(set(rows[rows[:, 0] == lev, 1].tolist())) for lev in levels]
    if counts != report["contour_counts"]:
        errors.append(f"{label}: polylines per level {counts} != contour_counts {report['contour_counts']}")
    re_ax, im_ax = _axes(grid)
    on_grid = np.isin(rows[:, 2], re_ax) | np.isin(rows[:, 3], im_ax)
    if not on_grid.all():
        errors.append(f"{label}: {int((~on_grid).sum())} vertices lie on no grid line")
    picks = rng.choice(rows.shape[0], size=min(sample, rows.shape[0]), replace=False)
    for k in picks:
        eps, z = rows[k, 0], complex(rows[k, 2], rows[k, 3])
        edges = _edges_of(z, re_ax, im_ax)
        if not any(_vertex_ok(lambda lam: sigma_min_at(w, lam), z, eps, a, b) for a, b in edges):
            errors.append(f"{label}: vertex {z} (row {k + 2}) is not where eps={eps:g} crosses its grid edge")
    return errors


def check_analyze(out_dir, inputs: dict[str, np.ndarray], rng, sample: int) -> list[str]:
    """report.json facts against numpy and every contours-*.csv against the oracle."""
    from specto import Matrix

    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    by_name = {m["name"]: m for m in report["matrices"]}
    if sorted(by_name) != sorted(inputs):
        return [f"report.json names {sorted(by_name)} != inputs {sorted(inputs)}"]
    errors = []
    for name, a in inputs.items():
        rep = by_name[name]
        errors += check_facts(name, rep, a)
        errors += check_contours(name, out_dir / f"contours-{name}.csv", Matrix(a), rep, rng, sample)
        if not (out_dir / f"portrait-{name}.svg").is_file():
            errors.append(f"{name}: portrait SVG missing")
    return errors


def check_stabilize_compare(out_dir, w: np.ndarray, ws_path, printed: str) -> list[str]:
    """The rescale is W divided by the printed gain; compare.json facts and Henrici delta."""
    errors = []
    gain = float(printed.split()[0])
    ws = read_pspc(ws_path)
    sigma_max = float(np.linalg.svd(w, compute_uv=False)[0])
    if not (0.95 * sigma_max <= gain <= sigma_max * (1 + 1e-12)):
        errors.append(f"gain {gain!r} is not a power-iteration estimate of sigma_max {sigma_max!r}")
    if not np.allclose(ws * gain, w, rtol=1e-14, atol=0.0):
        errors.append("stabilized matrix is not W / gain")
    doc = json.loads((Path(out_dir) / "compare.json").read_text(encoding="utf-8"))
    errors += check_facts("before", doc["before"], w)
    errors += check_facts("after", doc["after"], ws)
    if not abs(doc["henrici_delta"]) <= REL_TOL * doc["before"]["henrici"]:
        errors.append(f"henrici_delta {doc['henrici_delta']!r} is not 0")
    nodes = doc["before"]["grid"]["nx"] * doc["before"]["grid"]["ny"]
    for key in ("node_counts_before", "node_counts_after"):
        c = doc[key]
        if any(x > y for x, y in zip(c, c[1:])) or not all(0 <= x <= nodes for x in c):
            errors.append(f"{key} {c} is not a nondecreasing count of grid nodes")
    if not (Path(out_dir) / "compare.svg").is_file():
        errors.append("compare.svg missing")
    return errors


def adding_batch(rng, batch: int, seq_len: int):
    """A seeded adding-task batch, generated independently of specto's datasets."""
    values = rng.uniform(0.0, 1.0, (batch, seq_len))
    markers = np.zeros((batch, seq_len))
    for r in range(batch):
        markers[r, rng.choice(seq_len, size=2, replace=False)] = 1.0
    targets = (values * markers).sum(axis=1)
    return np.stack([values, markers], axis=2), targets


def check_gradients(cell, rng, seq_len: int, entries: int = 12) -> list[str]:
    """Central differences of seeded entries through batch_loss_and_grads."""
    from specto.rnn import batch_loss_and_grads, param_items

    inputs, targets = adding_batch(rng, 4, seq_len)
    _, grads = batch_loss_and_grads(cell, inputs, targets, "adding")
    params = dict(param_items(cell))
    names = sorted(params)
    errors = []
    for _ in range(entries):
        name = names[int(rng.integers(len(names)))]
        flat = params[name].reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + GRAD_STEP
        up = batch_loss_and_grads(cell, inputs, targets, "adding")[0]
        flat[i] = orig - GRAD_STEP
        down = batch_loss_and_grads(cell, inputs, targets, "adding")[0]
        flat[i] = orig
        num = (up - down) / (2 * GRAD_STEP)
        got = float(grads[name].reshape(-1)[i])
        rel = abs(got - num) / max(abs(got), abs(num), 1e-6)
        if not rel <= GRAD_TOL:
            errors.append(f"gradient {name}[{i}]: exact {got:.6e} vs central difference {num:.6e} (rel {rel:.1e})")
    return errors


def check_train(out_dir, cell, gates, epochs: int, seq_len: int, rng) -> list[str]:
    """history.csv is finite, outputs match the trained cell, gradients pass the FD check."""
    out_dir = Path(out_dir)
    lines = (out_dir / "history.csv").read_text(encoding="utf-8").splitlines()
    header = ["epoch", "loss", "accuracy"] + [f"{g}_{col}" for g in gates for col in ("rho", "henrici")]
    if lines[0].split(",") != header:
        return [f"history.csv header {lines[0]!r}"]
    errors = []
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != epochs or not all(math.isfinite(x) for row in rows for x in row):
        errors.append(f"history.csv needs {epochs} finite rows, has {rows}")
    if cell is None:
        return errors + ["trained cell was not captured"]
    report = json.loads((out_dir / f"report-epoch{epochs:03d}.json").read_text(encoding="utf-8"))
    for gate, rep in zip(gates, report["matrices"]):
        final = read_pspc(out_dir / f"weights-final-{gate}.pspc")
        if not np.array_equal(final, cell.w_rec[gate]):
            errors.append(f"weights-final-{gate}.pspc differs from the trained cell")
        errors += check_facts(f"epoch {epochs} {gate}", rep, read_pspc(out_dir / f"weights-epoch{epochs:03d}-{gate}.pspc"))
        facts = spectral_facts(final)
        last = dict(zip(header, rows[-1])) if rows else {}
        for col, key in (("rho", "spectral_radius"), ("henrici", "henrici")):
            if not _close(last.get(f"{gate}_{col}", math.nan), facts[key], REL_TOL):
                errors.append(f"history.csv {gate}_{col} differs from numpy {facts[key]!r}")
    return errors + check_gradients(cell, rng, seq_len)
