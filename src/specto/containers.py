"""On-disk matrix container (.pspc) and numeric CSV parsing.

Container layout, all little-endian:

    bytes 0..3   magic "PSPC"
    bytes 4..5   format version u16 (= 1)
    bytes 6..7   flags u16 (bit 0: complex payload)
    bytes 8..11  rows u32
    bytes 12..15 cols u32
    payload      rows*cols f64 row-major (real) or interleaved re,im pairs
    footer       optional: u32 name length + UTF-8 name

Readers verify the length arithmetic exactly and reject trailing bytes, so
write(read(data)) == data for every accepted file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .matrix import Matrix

__all__ = [
    "MatrixContainer",
    "container_from_bytes",
    "container_to_bytes",
    "write_matrix_file",
    "parse_matrix_csv",
    "load_matrix_any",
]

MAGIC = b"PSPC"
FORMAT_VERSION = 1
FLAG_COMPLEX = 0x0001
_HEADER = struct.Struct("<4sHHII")


@dataclass(frozen=True)
class MatrixContainer:
    matrix: Matrix
    name: str | None = None
    complex_storage: bool = False

    @classmethod
    def wrap(cls, matrix: Matrix, name: str | None = None) -> "MatrixContainer":
        return cls(matrix=matrix, name=name, complex_storage=not matrix.is_real)


def container_to_bytes(c: MatrixContainer) -> bytes:
    flags = FLAG_COMPLEX if c.complex_storage else 0
    if not c.complex_storage and not c.matrix.is_real:
        raise ValueError("matrix has nonzero imaginary parts; complex_storage required")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, c.matrix.rows, c.matrix.cols)
    if c.complex_storage:
        payload = np.ascontiguousarray(c.matrix.array, dtype="<c16").tobytes()
    else:
        payload = np.ascontiguousarray(c.matrix.array.real, dtype="<f8").tobytes()
    footer = b""
    if c.name is not None:
        encoded = c.name.encode("utf-8")
        footer = struct.pack("<I", len(encoded)) + encoded
    return header + payload + footer


def container_from_bytes(data: bytes, source: str = "<bytes>") -> MatrixContainer:
    if len(data) < _HEADER.size:
        raise FormatError(f"{source}: file too short for header ({len(data)} bytes at offset 0)")
    magic, version, flags, rows, cols = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r} at offset 0")
    if version != FORMAT_VERSION:
        raise FormatError(f"{source}: unsupported format version {version} at offset 4")
    if flags & ~FLAG_COMPLEX:
        raise FormatError(f"{source}: unknown flag bits 0x{flags:04x} at offset 6")
    if rows < 1 or cols < 1:
        raise FormatError(f"{source}: non-positive dimensions {rows}x{cols} at offset 8")
    is_complex = bool(flags & FLAG_COMPLEX)
    count = rows * cols * (2 if is_complex else 1)
    payload_end = _HEADER.size + 8 * count
    if len(data) < payload_end:
        raise FormatError(
            f"{source}: truncated payload at offset {len(data)} (need {payload_end} bytes)"
        )
    raw = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise FormatError(f"{source}: non-finite value at offset {_HEADER.size + 8 * int(bad[0])}")
    name = None
    rest = data[payload_end:]
    if rest:
        if len(rest) < 4:
            raise FormatError(f"{source}: dangling {len(rest)} bytes at offset {payload_end}")
        (name_len,) = struct.unpack_from("<I", rest, 0)
        if len(rest) != 4 + name_len:
            raise FormatError(
                f"{source}: name footer length mismatch at offset {payload_end + 4}: "
                f"declared {name_len}, have {len(rest) - 4}"
            )
        try:
            name = rest[4:].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{source}: name footer is not UTF-8 at offset {payload_end + 4}") from exc
    matrix = Matrix((raw.view("<c16") if is_complex else raw).reshape(rows, cols))
    return MatrixContainer(matrix=matrix, name=name, complex_storage=is_complex)


def write_matrix_file(path, matrix: Matrix | MatrixContainer, name: str | None = None) -> None:
    if isinstance(matrix, MatrixContainer):
        container = matrix
    else:
        container = MatrixContainer.wrap(matrix, name)
    Path(path).write_bytes(container_to_bytes(container))


def parse_matrix_csv(path) -> Matrix:
    """Comma-separated decimal floats, one matrix row per line."""
    text = Path(path).read_text(encoding="utf-8")
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        values = []
        for token in tokens:
            try:
                values.append(float(token))
            except ValueError:
                raise FormatError(f"{path}: non-numeric token {token.strip()!r} at line {lineno}") from None
            if not math.isfinite(values[-1]):
                raise FormatError(f"{path}: non-finite value {token.strip()!r} at line {lineno}")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(
                f"{path}: ragged row at line {lineno}: {len(values)} columns, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no numeric rows")
    return Matrix(rows)


def load_matrix_any(path) -> tuple[Matrix, str]:
    """Container or CSV, sniffed by magic bytes; name falls back to the stem."""
    p = Path(path)
    data = p.read_bytes()
    if data[:4] == MAGIC:
        c = container_from_bytes(data, source=str(path))
        return c.matrix, (c.name or p.stem)
    return parse_matrix_csv(path), p.stem
