"""Hold scipy's bundled OpenBLAS at one thread where its eigensolves lose by a second.

scipy's wheel ships its own OpenBLAS, the build that eigh and ARPACK call;
its thread-count getter and setter are reached here through ctypes. numpy's
matrix products run on the separate build in numpy.libs, which is never
touched. Only this module imports scipy's eigensolvers (eigh and ARPACK's
eigsh) and sets scipy's process-global thread count, by the rule each
function below states. Any other BLAS (MKL, a system OpenBLAS) is left alone.
"""

import ctypes
import logging
import threading
from contextlib import contextmanager
from pathlib import Path

import scipy
from scipy import linalg

logger = logging.getLogger(__name__)

# eigh below this order runs on one scipy thread. Measured on a 2-vCPU KVM Xeon
# with numpy's products on 2 threads: medians with scipy's eigh held at 1 thread
# vs left at 2, alternating in one process, RBF kernel over d=20 features. Dense
# fit at k = n/12: n=1000 189 vs 204 ms (held faster in 6 of 8 pairs), n=1200 261
# vs 277 ms (5 of 8), n=1296 376 vs 381 ms (4 of 8), n=1400 384 vs 369 ms (2 of
# 8), n=1600 760 vs 599 ms (0 of 6). Default grid: n=1200 4.15 vs 4.17 s (2 of
# 4), n=1296 5.21 vs 5.14 s (2 of 4), n=1400 5.98 vs 5.29 s (0 of 4).
SINGLE_THREAD_BELOW = 1300


def _find_build() -> tuple | None:
    """(getter, setter) of scipy's bundled OpenBLAS thread count, or None when not found."""
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        try:
            library = ctypes.CDLL(str(path))
            getter = library.scipy_openblas_get_num_threads
            setter = library.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


_BUILD = _find_build()
logger.debug("scipy's bundled OpenBLAS: %s", "found" if _BUILD else "not found")

# blocks holding the build now, and the count the first of them read
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextmanager
def single_thread(label: str):
    """Hold scipy's bundled OpenBLAS at 1 thread; a no-op when it was not found.

    The first block to enter reads the count and the last to leave restores
    it, so blocks may nest or overlap across threads. label names the block
    in the DEBUG log.
    """
    global _depth, _saved
    if _BUILD is None:
        yield
        return
    getter, setter = _BUILD
    with _lock:
        if not _depth:
            _saved = getter()
            setter(1)
            logger.debug("%s: OpenBLAS threads %d -> 1", label, _saved)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                setter(_saved)
                logger.debug("%s: OpenBLAS threads restored to %d", label, _saved)


def eigh(a, *args, **kwargs):
    """scipy.linalg.eigh, on one scipy thread while a's order is below SINGLE_THREAD_BELOW."""
    order = a.shape[0]
    if order >= SINGLE_THREAD_BELOW:
        return linalg.eigh(a, *args, **kwargs)
    with single_thread(f"eigh at order {order}"):
        return linalg.eigh(a, *args, **kwargs)


def eigsh(product, order: int, **kwargs):
    """ARPACK's eigsh of the symmetric x -> product(x) on order x j blocks, or None.

    None when ARPACK fails: no convergence, or any other ARPACK error, such
    as a zero start vector on a zero operator; its message goes to DEBUG.
    It runs on one scipy thread at any order: ARPACK's BLAS calls are tiny.
    """
    from scipy.sparse import linalg as sparse_linalg  # on first call: it adds about 1.3 MiB of RSS
    operator = sparse_linalg.LinearOperator(
        (order, order), matvec=lambda x: product(x.reshape(order, 1)), matmat=product, dtype=float
    )
    with single_thread(f"Lanczos at order {order}"):
        try:
            return sparse_linalg.eigsh(operator, **kwargs)
        except sparse_linalg.ArpackError as error:
            logger.debug("Lanczos at order %d: %s", order, error)
            return None
