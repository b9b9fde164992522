"""numpy's OpenBLAS, called directly: one thread inside a block, and the complex Schur form.

A threaded OpenBLAS splits an SVD or a Schur reduction by its thread count,
which moves the last bits of the result: at n = 128 the same matrix has a
different 2-norm and Henrici number under OPENBLAS_NUM_THREADS=1 and 2.
Inside ``with one_thread:`` every library found runs on one thread, whatever
count it started with. The numpy wheel keeps its OpenBLAS in ``numpy.libs/``;
that library exports a getter and a setter of its thread count and LAPACKE's
``zgees``, which ``complex_schur`` calls, so no command imports scipy. Where
numpy's library has no ``zgees`` (an Accelerate or MKL build of numpy, say),
``complex_schur`` calls ``scipy.linalg.schur``, imported on first use, and
the block pins the OpenBLAS of the scipy wheel (``scipy.libs/``) too. The
choice is made once, on first use; where no setter is found the block
changes nothing. Entries nest and may come from several threads: the first
one sets the count, and the last exit restores the counts the first found.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path

import numpy

# numpy's OpenBLAS has 64-bit integers and suffixed symbols; scipy's has neither
_NUMPY_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")
_SCIPY_THREADS = ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads")
_ZGEES = "scipy_LAPACKE_zgees64_"
_COL_MAJOR = 102  # LAPACK_COL_MAJOR


def _bundled(package) -> list[ctypes.CDLL]:
    """The OpenBLAS libraries in a wheel's ``<package>.libs/``."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    found = []
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            found.append(ctypes.CDLL(str(path)))  # the loaded library itself: dlopen matches the file
        except OSError:
            continue
    return found


def _thread_counts(package, libs, get: str, set_: str) -> list:
    """(package name, getter, setter) of each of ``libs`` that exports both."""
    found = []
    for lib in libs:
        if hasattr(lib, get) and hasattr(lib, set_):
            getter, setter = getattr(lib, get), getattr(lib, set_)
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            found.append((package.__name__, getter, setter))
    return found


@functools.cache
def _discover() -> tuple:
    """(numpy's LAPACKE zgees or None, the thread counts ``one_thread`` pins)."""
    libs = _bundled(numpy)
    pinned = _thread_counts(numpy, libs, *_NUMPY_THREADS)
    zgees = next((getattr(lib, _ZGEES) for lib in libs if hasattr(lib, _ZGEES)), None)
    if zgees is None:
        import scipy

        pinned += _thread_counts(scipy, _bundled(scipy), *_SCIPY_THREADS)
    else:
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        zgees.restype = i64
        zgees.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ptr, i64, ptr, i64, ptr, ptr, ptr, i64]
    return zgees, tuple(pinned)


def libraries() -> tuple:
    """(package name, getter, setter) of every OpenBLAS whose thread count ``one_thread`` pins."""
    return _discover()[1]


def complex_schur(a: numpy.ndarray) -> tuple[numpy.ndarray, numpy.ndarray]:
    """(T, Q) of the complex Schur form a = Q T Q*, eigenvalues unsorted.

    Raises ``numpy.linalg.LinAlgError`` when LAPACK's QR algorithm fails.
    """
    zgees = _discover()[0]
    if zgees is None:
        import scipy.linalg

        return scipy.linalg.schur(a, output="complex")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"the Schur form needs a square matrix, got shape {a.shape}")
    t = numpy.array(a, dtype=numpy.complex128, order="F")  # a copy: zgees overwrites it with T
    q = numpy.empty((n, n), dtype=numpy.complex128, order="F")
    w = numpy.empty(n, dtype=numpy.complex128)
    sdim = ctypes.c_int64()  # the count of sorted eigenvalues: 0, as sort = 'N'
    info = zgees(
        _COL_MAJOR, b"V", b"N", None, n, t.ctypes.data, n, ctypes.byref(sdim), w.ctypes.data, q.ctypes.data, n
    )
    if info != 0:
        raise numpy.linalg.LinAlgError(f"LAPACK zgees returned info = {info}")
    return t, q


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
