"""Kernel evaluation and the joint source/target Gram matrix."""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist

KERNEL_KINDS = ("linear", "rbf")

# Floor under the median heuristic so degenerate samples keep a usable width.
BANDWIDTH_FLOOR = 1e-8

# Cap on the pooled sample used for the median heuristic.
_MEDIAN_SUBSAMPLE = 1000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    bandwidth=None on an rbf spec means "resolve with the median heuristic
    once data is available"; it is ignored for the linear kernel.
    """

    kind: str = "linear"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        # a square of 0 gives 0/0 on the rbf diagonal; b * b gives inf where b**2 raises
        if self.bandwidth is not None and not (
            self.bandwidth > 0 and 0 < self.bandwidth * self.bandwidth < math.inf
        ):
            raise ValueError(
                f"bandwidth must be a positive real with a finite nonzero square, got {self.bandwidth}"
            )

    def resolved(self, source: np.ndarray, target: np.ndarray) -> "KernelSpec":
        """Fill in a concrete bandwidth for an rbf spec that lacks one."""
        if self.kind == "rbf" and self.bandwidth is None:
            return replace(self, bandwidth=median_bandwidth(source, target))
        return self


def gram(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix between the rows of x and the rows of y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("kernel inputs must be 2-D sample matrices")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"feature widths differ: {x.shape[1]} vs {y.shape[1]}")
    if spec.kind == "linear":
        return x @ y.T
    if spec.bandwidth is None:
        raise ValueError("rbf bandwidth unresolved; call spec.resolved(source, target) first")
    return np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * spec.bandwidth**2))


def require_finite_gram(matrix: np.ndarray) -> None:
    """Raise ValueError unless every entry of the Gram matrix is finite.

    Features at an extreme scale overflow K = X X.T, and X.T X with it.
    """
    if not np.isfinite(matrix).all():
        raise ValueError(
            "kernel matrix has non-finite entries; check the feature scale and bandwidth"
        )


def median_bandwidth(source: np.ndarray, target: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled sample.

    Pools both domains, subsamples deterministically to at most 1000 points,
    and floors the result at BANDWIDTH_FLOOR so identical samples still give
    a positive width. Raises ValueError when the median distance overflows.
    """
    pooled = np.vstack([np.asarray(source, dtype=float), np.asarray(target, dtype=float)])
    if pooled.shape[0] < 2:
        raise ValueError("median heuristic needs at least two pooled samples")
    if pooled.shape[0] > _MEDIAN_SUBSAMPLE:
        stride = math.ceil(pooled.shape[0] / _MEDIAN_SUBSAMPLE)
        pooled = pooled[::stride]
    median = float(np.median(pdist(pooled)))
    if not math.isfinite(median):
        raise ValueError("median pairwise distance overflows; standardize the features")
    return max(median, BANDWIDTH_FLOOR)


@dataclass(frozen=True, eq=False)
class JointKernel:
    """Symmetric Gram matrix over the stacked source and target samples.

    Rows double as the empirical kernel embedding: row i is the feature
    vector of sample i against the whole pool, so the top n1 rows embed the
    source and the bottom n2 rows embed the target. Takes ownership of K: a
    float64 array is stored as is and marked read-only, other input is
    converted to a new float64 array.
    """

    K: np.ndarray
    n1: int
    n2: int
    spec: KernelSpec

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both blocks need at least one sample")
        n = self.n1 + self.n2
        if K.shape != (n, n):
            raise ValueError(f"kernel must be {n}x{n}, got {K.shape}")
        require_finite_gram(K)
        scale = max(1.0, float(np.max(np.abs(K)))) if K.size else 1.0
        if float(np.max(np.abs(K - K.T))) > 1e-10 * scale:
            raise ValueError("kernel matrix is not symmetric")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @property
    def h_source(self) -> np.ndarray:
        """Source block of the empirical embedding (view, not a copy)."""
        return self.K[: self.n1]

    @property
    def h_target(self) -> np.ndarray:
        """Target block of the empirical embedding (view, not a copy)."""
        return self.K[self.n1 :]


def build_joint_kernel(
    source: np.ndarray, target: np.ndarray, spec: KernelSpec | None = None
) -> JointKernel:
    """Stack both domains and evaluate the kernel over the pool.

    Resolves an unresolved rbf bandwidth with the median heuristic. gram is
    bitwise symmetric for both kernels: the linear kernel through BLAS syrk,
    the rbf kernel because cdist's squared distances are symmetric.
    """
    spec = (spec or KernelSpec()).resolved(source, target)
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    pooled = np.vstack([source, target])
    K = gram(pooled, pooled, spec)
    return JointKernel(K=K, n1=source.shape[0], n2=target.shape[0], spec=spec)
