"""Hold the OpenBLAS builds bundled with numpy and scipy at one thread, build by build.

Both wheels ship their own OpenBLAS: numpy's matrix products call the 64-bit
integer build in numpy.libs, scipy's eigh and ARPACK the build in
scipy.libs. Each exports a thread-count getter and setter, reached here
through ctypes and named by the package that bundles it. The thread counts
are process-global, so the policy is set per build and per call site:

- single_thread_below_cap holds every build at 1 thread for a whole grid
  search or fit of order below SINGLE_THREAD_BELOW, where a second thread
  costs more than it gains;
- tlr.lanczos_basis holds scipy's build at 1 thread while ARPACK runs, at
  any order: ARPACK's own BLAS calls are tiny, and a second scipy thread
  only spins against numpy's threads, which keep their count for the
  products with K.

Any other BLAS (MKL, a system OpenBLAS) is left alone.
"""

import ctypes
import logging
import threading
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy
import scipy

logger = logging.getLogger(__name__)

# Pooled orders below this run on one BLAS thread. Measured on a 2-vCPU Xeon,
# default grid, median seconds with 1 vs 2 threads. Linear d=800 (full rank
# to n=800): n=240 0.15 vs 0.50, n=400 0.44 vs 0.99, n=800 2.05 vs 2.91, and
# one thread still wins at n=1200. RBF d=20 fit: n=1200 0.31 vs 0.30, n=1600
# 0.62 vs 0.52. The cap rests on these rows; its value came from a crossover near
# n=950 on a linear d=20 grid that formed K, and was not re-measured against them.
SINGLE_THREAD_BELOW = 900


def _find_builds() -> dict[str, tuple]:
    """Package name -> (getter, setter) of each bundled OpenBLAS build that can be found."""
    builds = {}
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
            builds[package.__name__] = (getter, setter)
            break
    return builds


_BUILDS = _find_builds()
logger.debug("bundled OpenBLAS builds: %s", ", ".join(_BUILDS) or "none")

# per build: blocks holding it now, and the count the first of them read
_lock = threading.Lock()
_depth: Counter[str] = Counter()
_saved: dict[str, int] = {}


@contextmanager
def single_thread(packages, label: str):
    """Hold the bundled OpenBLAS builds of the named packages at 1 thread.

    Builds that were not found are skipped. Per build, the first block to
    enter reads its count and the last to leave restores it, so blocks may
    nest or overlap across threads, and a block holding scipy's build nests
    inside one holding every build. label names the block in the DEBUG log.
    """
    held = [package for package in packages if package in _BUILDS]
    with _lock:
        entered = {}
        for package in held:
            if not _depth[package]:
                getter, setter = _BUILDS[package]
                entered[package] = _saved[package] = getter()
                setter(1)
            _depth[package] += 1
        if entered:
            logger.debug("%s: OpenBLAS threads %s -> 1", label, entered)
    try:
        yield
    finally:
        with _lock:
            restored = {}
            for package in held:
                _depth[package] -= 1
                if not _depth[package]:
                    restored[package] = _saved.pop(package)
                    _BUILDS[package][1](restored[package])
            if restored:
                logger.debug("%s: OpenBLAS threads restored to %s", label, restored)


def single_thread_below_cap(order: int):
    """Hold every bundled OpenBLAS build at 1 thread while order < SINGLE_THREAD_BELOW.

    The thread count is process-global, so wrap a whole grid search or fit,
    never a worker.
    """
    if order >= SINGLE_THREAD_BELOW:
        return nullcontext()
    return single_thread(_BUILDS, f"order {order}")
