"""Mean-discrepancy coefficient, held as its rank-one factor, and discrepancy evaluation."""

from dataclasses import dataclass, field

import numpy as np

from .kernels import JointKernel


@dataclass(frozen=True, eq=False)
class MmdMatrix:
    """Coefficient matrix L = e e.T whose kernel-weighted trace is the squared mean gap.

    Held only as its factor e = mmd_vector(n1, n2), set read-only at
    construction. Entry (i, j) of L is 1/n1^2 when both samples are source,
    1/n2^2 when both are target, and -1/(n1*n2) across domains.
    """

    n1: int
    n2: int
    e: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        e = mmd_vector(self.n1, self.n2)
        e.setflags(write=False)
        object.__setattr__(self, "e", e)

    @property
    def L(self) -> np.ndarray:
        """The dense n x n matrix e e.T, formed on each call and read-only."""
        L = np.outer(self.e, self.e)
        L.setflags(write=False)
        return L


def mmd_matrix(n1: int, n2: int) -> MmdMatrix:
    """The coefficient L = e e.T for domain sizes n1 and n2, held as its factor e."""
    return MmdMatrix(n1, n2)


def mmd_vector(n1: int, n2: int) -> np.ndarray:
    """The factor e of the coefficient matrix L = e e.T.

    Entries are 1/n1 on the n1 source samples and -1/n2 on the n2 target
    samples, so K e is the difference of the domains' kernel mean embeddings.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"domain sizes must be >= 1, got n1={n1}, n2={n2}")
    return np.concatenate([np.full(n1, 1.0 / n1), np.full(n2, -1.0 / n2)])


def mmd_trace(kernel: JointKernel, coeff: MmdMatrix) -> float:
    """Trace of K @ L, computed as e.T K e: the squared kernel-space gap between domain means.

    Tiny negative values from rounding are clamped to zero; a negative value
    beyond rounding scale raises, because it means the kernel matrix upstream
    is not positive semidefinite.
    """
    if (kernel.n1, kernel.n2) != (coeff.n1, coeff.n2):
        raise ValueError(
            f"block sizes differ: kernel ({kernel.n1}, {kernel.n2}) "
            f"vs coefficients ({coeff.n1}, {coeff.n2})"
        )
    value = float(coeff.e @ kernel.K @ coeff.e)
    tolerance = 1e-10 * max(1.0, float(np.linalg.norm(kernel.K)))
    if value < -tolerance:
        raise ValueError(
            f"discrepancy trace {value} is negative beyond rounding; "
            "kernel matrix is not positive semidefinite"
        )
    return max(value, 0.0)


def mmd_latent(p_source: np.ndarray, p_target: np.ndarray) -> float:
    """Squared Euclidean distance between the latent column means."""
    p_source = np.asarray(p_source, dtype=float)
    p_target = np.asarray(p_target, dtype=float)
    if p_source.ndim != 2 or p_target.ndim != 2:
        raise ValueError("latent blocks must be 2-D")
    if p_source.shape[1] != p_target.shape[1]:
        raise ValueError(
            f"latent widths differ: {p_source.shape[1]} vs {p_target.shape[1]}"
        )
    gap = p_source.mean(axis=0) - p_target.mean(axis=0)
    return float(gap @ gap)
