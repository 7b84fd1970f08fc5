"""Run small solves on one thread of the OpenBLAS builds bundled with numpy and scipy.

Both wheels ship their own OpenBLAS: numpy's matrix products call the 64-bit
integer build in numpy.libs, scipy.linalg's eigh the build in scipy.libs. Each
exports a thread-count getter and setter, reached here through ctypes. Any
other BLAS (MKL, a system OpenBLAS) is left alone.
"""

import ctypes
import logging
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy
import scipy

logger = logging.getLogger(__name__)

# Pooled orders below this run on one BLAS thread. Measured on a 2-vCPU Xeon,
# default grid, median seconds with 1 vs 2 threads. Linear d=800 (full rank
# to n=800): n=240 0.15 vs 0.50, n=400 0.44 vs 0.99, n=800 2.05 vs 2.91, and
# one thread still wins at n=1200. Linear d=20 (rank 20, one n x n eigh of K
# per run): n=800 0.13 vs 0.19, n=904 0.21 vs 0.23, but n=952 0.26 vs 0.21
# and n=1200 0.37 vs 0.31. RBF d=20 fit: n=1200 0.31 vs 0.30, n=1600 0.62
# vs 0.52. The cap sits below the earliest crossover, the rank-20 grid's.
SINGLE_THREAD_BELOW = 900


def _find_builds() -> list[tuple]:
    """(file name, getter, setter) of each bundled OpenBLAS build that can be found."""
    builds = []
    for package, pattern, suffix in (
        (numpy, "libscipy_openblas64_*.so", "64_"),
        (scipy, "libscipy_openblas-*.so", ""),
    ):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            try:
                library = ctypes.CDLL(str(path))
                getter = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
                setter = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            builds.append((path.name, getter, setter))
    return builds


_BUILDS = _find_builds()
logger.debug("bundled OpenBLAS builds: %s", ", ".join(name for name, _, _ in _BUILDS) or "none")

# blocks open now, and the counts the first of them read
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []


@contextmanager
def single_thread_below_cap(order: int):
    """Set every bundled OpenBLAS build to 1 thread while order < SINGLE_THREAD_BELOW.

    The thread count is process-global, so wrap a whole grid search or fit,
    never a worker. The first block to enter reads the counts and the last to
    leave restores them, so blocks may nest or overlap across threads.
    """
    global _depth, _saved
    if order >= SINGLE_THREAD_BELOW or not _BUILDS:
        yield
        return
    with _lock:
        if not _depth:
            _saved = [getter() for _, getter, _ in _BUILDS]
            for _, _, setter in _BUILDS:
                setter(1)
            logger.debug("order %d: OpenBLAS threads %s -> 1", order, _saved)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                for (_, _, setter), count in zip(_BUILDS, _saved):
                    setter(count)
                logger.debug("order %d: OpenBLAS threads restored to %s", order, _saved)
