"""Task data: the two-number adding benchmark and IDX-format image sequences.

A ``Dataset`` keeps each task's data as its source gives it, and builds the
float64 ``(rows, time, dim)`` arrays the cells take one batch at a time, so
no float64 copy of a whole split is ever held:

* adding -- the uniform[0,1] values as float64 ``(n, time, 1)`` and the two
  marked steps of each sequence as integers ``(n, 2)``. A batch has two
  channels per step: the value, and a marker that is 1 at exactly the two
  marked steps. The target is the sum of the two marked values.
* mnist -- the uint8 pixels of the IDX file ``(n, rows, cols)``, which a
  batch scales to [0,1]; every image row becomes one time step. Labels are
  the digit classes 0-9.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import FormatError

__all__ = [
    "TASKS",
    "Dataset",
    "generate_adding",
    "adding_splits",
    "load_mnist_idx",
    "mnist_splits",
    "write_idx_images",
    "write_idx_labels",
    "synthetic_digits",
]

TASKS = ("adding", "mnist")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Sequences with one target per sequence, for one of ``TASKS``.

    ``inputs`` is (n, time, dim) in its source precision: float64 values,
    or uint8 pixels. ``markers``, when given, is (n, 2) integer time steps
    per sequence. ``batch`` builds the float64 arrays the cells take.
    """

    inputs: np.ndarray
    targets: np.ndarray
    task: str
    markers: np.ndarray | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be (n, time, dim), got {self.inputs.shape}")
        n, steps = self.inputs.shape[:2]
        if self.targets.shape != (n,):
            raise ValueError("one target per sequence required")
        if self.markers is not None:
            if self.markers.shape != (n, 2) or self.markers.dtype.kind not in "iu":
                raise ValueError(
                    f"markers must be (n, 2) integer time steps, got {self.markers.shape} {self.markers.dtype}"
                )
            if n and not (self.markers.min() >= 0 and self.markers.max() < steps):
                raise ValueError(f"markers must lie within the {steps} time steps")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        """Channels per step of a ``batch``: the stored ones, plus the marker channel."""
        return self.inputs.shape[2] + (self.markers is not None)

    def batch(self, rows) -> np.ndarray:
        """Float64 (len(rows), time, input_dim) of the sequences ``rows`` (an index array or a slice).

        The stored channels come first, uint8 ones divided by 255; with
        ``markers`` a last channel is 1.0 at each sequence's two marked
        steps and 0 elsewhere. The array is fresh: it shares no memory with
        the dataset.
        """
        stored = self.inputs[rows]
        out = np.zeros(stored.shape[:2] + (self.input_dim,))
        values = out[..., : stored.shape[2]]
        values[...] = stored
        if stored.dtype == np.uint8:
            values /= 255.0
        if self.markers is not None:
            out[np.arange(out.shape[0])[:, None], self.markers[rows], -1] = 1.0
        return out

    def split(self, n: int) -> tuple["Dataset", "Dataset"]:
        """The first ``n`` sequences and the rest, as views of this dataset's storage."""
        return self._rows(slice(None, n)), self._rows(slice(n, None))

    def subset(self, n: int) -> "Dataset":
        return self._rows(slice(None, n))

    def _rows(self, rows: slice) -> "Dataset":
        markers = None if self.markers is None else self.markers[rows]
        return Dataset(self.inputs[rows], self.targets[rows], self.task, markers)


_CHUNK = 1 << 16  # random draws per chunk of rows: the temporaries stay small beside the dataset


def generate_adding(n: int, seq_len: int, seed: int = 0) -> Dataset:
    """n sequences of the adding task, deterministic per seed.

    One stream gives the n x seq_len values, then n x seq_len keys per row
    whose two smallest place the markers; each is drawn into the output in
    chunks of rows, so no full-size temporary is held beside it.
    """
    if seq_len < 2:
        raise ValueError("seq_len must be >= 2 to place two markers")
    rng = np.random.default_rng(seed)
    values = np.empty((n, seq_len))
    markers = np.empty((n, 2), dtype=np.intp)
    targets = np.empty(n)
    step = max(1, _CHUNK // seq_len)
    for s in range(0, n, step):
        chunk = values[s : s + step]
        chunk[...] = rng.uniform(0.0, 1.0, chunk.shape)
    for s in range(0, n, step):
        chunk = values[s : s + step]
        rows = np.arange(chunk.shape[0])
        # first two columns of a random permutation per row: distinct positions
        picked = markers[s : s + step]
        picked[...] = np.argsort(rng.random(chunk.shape), axis=1)[:, :2]
        targets[s : s + step] = chunk[rows, picked[:, 0]] + chunk[rows, picked[:, 1]]
    return Dataset(values[:, :, None], targets, "adding", markers)


def _check_sizes(n_train: int, n_test: int) -> None:
    if n_train < 1 or n_test < 1:
        raise ValueError(f"train and test sizes must be positive, got {n_train} and {n_test}")


def adding_splits(n_train: int, n_test: int, seq_len: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Train/test split drawn from one stream (paper-scale: 45000/5000)."""
    _check_sizes(n_train, n_test)
    return generate_adding(n_train + n_test, seq_len, seed).split(n_train)


def _read_idx(path, expected_magic: int, ndim: int) -> np.ndarray:
    data = Path(path).read_bytes()
    header = 4 + 4 * ndim
    if len(data) < header:
        raise FormatError(f"{path}: truncated IDX header ({len(data)} bytes, need {header})")
    fields = struct.unpack(f">{ndim + 1}I", data[:header])
    magic, dims = fields[0], fields[1:]
    if magic != expected_magic:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x} at offset 0 (expected 0x{expected_magic:08x})")
    count = math.prod(dims)  # exact: a numpy product wraps at 2**64
    if len(data) != header + count:
        raise FormatError(
            f"{path}: payload length mismatch at offset {header}: "
            f"have {len(data) - header} bytes, header promises {count}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """IDX image/label pair -> sequences of image rows, kept as the file's uint8 pixels.

    Images with no rows or no columns, and a label outside the ten digit classes
    (named by its byte offset), are FormatErrors.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    rows, cols = images.shape[1:]
    if rows == 0 or cols == 0:
        raise FormatError(f"{images_path}: images of {rows}x{cols} pixels: need at least one row and one column")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image/label count mismatch: {images.shape[0]} images in {images_path}, "
            f"{labels.shape[0]} labels in {labels_path}"
        )
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        k = int(bad[0])  # its byte follows the 8-byte header: magic and count
        raise FormatError(f"{labels_path}: label {labels[k]} at offset {8 + k} is not a digit class 0-9")
    return Dataset(images, labels.astype(np.int64), "mnist")


def mnist_splits(
    images, labels, n_train: int, n_test: int, test_images=None, test_labels=None
) -> tuple[Dataset, Dataset]:
    """Training and evaluation splits of IDX files, each a copy of just the images it uses.

    The evaluation split is the first ``n_test`` images of the test pair when
    ``test_images`` is given, else of the images after the first ``n_train``.
    The loaded files are dropped on return, so a run holds what it trains and
    evaluates on, not every image of the files. A missing ``images`` or
    ``labels``, half a test pair, or a split left empty, is a ValueError.
    """
    if images is None or labels is None:
        raise ValueError("images (--mnist-images) and labels (--mnist-labels) are both required")
    if (test_images is None) != (test_labels is None):
        raise ValueError(
            "test_images (--mnist-test-images) and test_labels (--mnist-test-labels) go together: "
            "give both or neither"
        )
    _check_sizes(n_train, n_test)
    train, held_out = load_mnist_idx(images, labels).split(n_train)
    if test_images is not None:
        held_out = load_mnist_idx(test_images, test_labels)
    evaluation = held_out.subset(n_test)
    if len(train) == 0 or len(evaluation) == 0:
        raise ValueError(
            f"training size {n_train} and test size {n_test} leave "
            f"{len(train)} training and {len(evaluation)} evaluation images"
        )
    return tuple(Dataset(ds.inputs.copy(), ds.targets.copy(), ds.task) for ds in (train, evaluation))


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be (n, rows, cols) uint8")
    with open(path, "wb") as f:
        f.write(struct.pack(">4I", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.ndim != 1:
        raise ValueError("labels must be (n,) uint8")
    with open(path, "wb") as f:
        f.write(struct.pack(">2I", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# Procedural digits: a seven-segment-style 10-class image set for running
# the sequential-image pipeline on machines without the real MNIST files.
# Same shapes, same IDX container, same loader.
# ---------------------------------------------------------------------------

_SEGMENT_ENDPOINTS = {
    "A": ((0.20, 0.15), (0.80, 0.15)),
    "B": ((0.80, 0.15), (0.80, 0.50)),
    "C": ((0.80, 0.50), (0.80, 0.85)),
    "D": ((0.20, 0.85), (0.80, 0.85)),
    "E": ((0.20, 0.50), (0.20, 0.85)),
    "F": ((0.20, 0.15), (0.20, 0.50)),
    "G": ((0.20, 0.50), (0.80, 0.50)),
}

_DIGIT_SEGMENTS = {
    0: "ABCDEF",
    1: "BC",
    2: "ABGED",
    3: "ABGCD",
    4: "FGBC",
    5: "AFGCD",
    6: "AFGECD",
    7: "ABC",
    8: "ABCDEFG",
    9: "ABCDFG",
}


def _glyph_blocks(digit: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the 2x2 blocks that draw ``digit`` unjittered, one per sample point."""
    t = np.linspace(0.0, 1.0, 3 * size)
    rows, cols = [], []
    for seg in _DIGIT_SEGMENTS[digit]:
        (x0, y0), (x1, y1) = _SEGMENT_ENDPOINTS[seg]
        cols.append(np.rint((x0 + t * (x1 - x0)) * (size - 1)))
        rows.append(np.rint((y0 + t * (y1 - y0)) * (size - 1)))
    return np.concatenate(rows).astype(np.intp), np.concatenate(cols).astype(np.intp)


def _raster_digit(blocks: tuple[np.ndarray, np.ndarray], rng: np.random.Generator, size: int) -> np.ndarray:
    img = np.zeros((size, size))
    dx, dy = rng.integers(-3, 4, 2)
    bright = rng.uniform(0.7, 1.0)
    rows, cols = blocks[0] + dy, blocks[1] + dx
    inside = (0 <= rows) & (rows < size - 1) & (0 <= cols) & (cols < size - 1)
    rows, cols = rows[inside], cols[inside]
    for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
        img[rows + r, cols + c] = bright
    noise = rng.uniform(0.0, 0.12, (size, size)) * (rng.random((size, size)) < 0.05)
    return np.clip((img + noise) * 255.0, 0, 255).astype(np.uint8)


def synthetic_digits(n: int, seed: int = 0, size: int = 28) -> tuple[np.ndarray, np.ndarray]:
    """(images uint8 (n, size, size), labels) with jittered glyphs per class."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    glyphs = [_glyph_blocks(digit, size) for digit in range(10)]
    images = np.empty((n, size, size), dtype=np.uint8)
    for k, lbl in enumerate(labels):
        images[k] = _raster_digit(glyphs[lbl], rng, size)
    return images, labels
