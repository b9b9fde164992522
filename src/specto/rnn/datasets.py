"""Task data: the two-number adding benchmark and IDX-format image sequences.

Adding sequences carry two channels per step: channel 0 holds uniform[0,1]
values, channel 1 is a marker that is 1 at exactly two distinct positions.
The target is the sum of the two marked values. Image classification data
is read from IDX files (big-endian magic/dim headers); every image row
becomes one time step.
"""

from __future__ import annotations

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
    "write_idx_images",
    "write_idx_labels",
    "synthetic_digits",
]

TASKS = ("adding", "mnist")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Sequences (n, time, dim) with one target per sequence, for one of ``TASKS``."""

    inputs: np.ndarray
    targets: np.ndarray
    task: str

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be (n, time, dim), got {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("one target per sequence required")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.inputs[:n], self.targets[:n], self.task)


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
    inputs = np.zeros((n, seq_len, 2))
    targets = np.empty(n)
    step = max(1, _CHUNK // seq_len)
    for s in range(0, n, step):
        values = inputs[s : s + step, :, 0]
        values[...] = rng.uniform(0.0, 1.0, values.shape)
    for s in range(0, n, step):
        chunk = inputs[s : s + step]
        rows = np.arange(chunk.shape[0])
        # first two columns of a random permutation per row: distinct positions
        first, second = np.argsort(rng.random(chunk.shape[:2]), axis=1)[:, :2].T
        chunk[rows, first, 1] = 1.0
        chunk[rows, second, 1] = 1.0
        targets[s : s + step] = chunk[rows, first, 0] + chunk[rows, second, 0]
    return Dataset(inputs, targets, "adding")


def adding_splits(n_train: int, n_test: int, seq_len: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Train/test split drawn from one stream (paper-scale: 45000/5000)."""
    if n_train < 1 or n_test < 1:
        raise ValueError(f"train and test sizes must be positive, got {n_train} and {n_test}")
    full = generate_adding(n_train + n_test, seq_len, seed)
    return (
        Dataset(full.inputs[:n_train], full.targets[:n_train], "adding"),
        Dataset(full.inputs[n_train:], full.targets[n_train:], "adding"),
    )


def _read_idx(path, expected_magic: int, ndim: int) -> np.ndarray:
    data = Path(path).read_bytes()
    header = 4 + 4 * ndim
    if len(data) < header:
        raise FormatError(f"{path}: truncated IDX header ({len(data)} bytes, need {header})")
    fields = struct.unpack(f">{ndim + 1}I", data[:header])
    magic, dims = fields[0], fields[1:]
    if magic != expected_magic:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x} at offset 0 (expected 0x{expected_magic:08x})")
    count = int(np.prod(dims))
    if len(data) != header + count:
        raise FormatError(
            f"{path}: payload length mismatch at offset {header}: "
            f"have {len(data) - header} bytes, header promises {count}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """IDX image/label pair -> sequences of image rows, pixels scaled to [0,1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(
            f"image/label count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels"
        )
    inputs = images.astype(np.float64)
    inputs /= 255.0
    return Dataset(inputs, labels.astype(np.int64), "mnist")


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be (n, rows, cols) uint8")
    with open(path, "wb") as f:
        f.write(struct.pack(">4I", IDX_IMAGES_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
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
    images = np.stack([_raster_digit(glyphs[lbl], rng, size) for lbl in labels])
    return images, labels
