"""One OpenBLAS thread inside a block, so results do not depend on the thread count.

numpy and scipy each load their own OpenBLAS, and a threaded OpenBLAS splits
an SVD or a Schur reduction by its thread count, which moves the last bits
of the result: at n = 128 the same matrix has a different 2-norm and Henrici
number under OPENBLAS_NUM_THREADS=1 and 2. Inside ``with one_thread:`` every
library found runs on one thread, whatever the environment set. The numpy
and scipy wheels keep their OpenBLAS in ``<package>.libs/``, and each exports
a getter and a setter of its thread count; where none is found the block
changes nothing. Entries nest and may come from several threads: the first
one sets the count, and the last exit restores the counts the first found.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path

import numpy
import scipy

# (package, getter, setter); numpy's OpenBLAS has 64-bit integers and suffixed symbols
_SYMBOLS = (
    (numpy, "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def libraries() -> tuple:
    """(package name, getter, setter) of every bundled OpenBLAS found."""
    found = []
    for package, get, set_ in _SYMBOLS:
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path))  # the loaded library itself: dlopen matches the file
                getter, setter = getattr(lib, get), getattr(lib, set_)
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append((package.__name__, getter, setter))
    return tuple(found)


class _OneThread:
    """The pin; one per process, as the thread counts it sets are process-wide."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = []  # (package name, setter, count found) of each pinned library

    @property
    def pinned(self) -> tuple[str, ...]:
        """Names of the packages whose OpenBLAS the current block holds at one thread."""
        return tuple(name for name, _, _ in self._restore)

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._restore = [(name, set_, get()) for name, get, set_ in libraries()]
                for _, set_, _ in self._restore:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for _, set_, count in self._restore:
                    set_(count)
                self._restore = []


one_thread = _OneThread()
