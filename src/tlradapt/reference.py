"""Dense reference chain for the TLR eigenproblem: the oracle the tests compare against.

build_AB forms A = K M K and B = K L K = u u.T as n x n matrices, and eigen_basis
and solve_W solve the pencil (A, I + B) by one generalized symmetric eigensolve.
No live path calls this module: fit, TlrModel.embed and the grid solve through
tlr's whitened factor and take only _orientation, the sign rule, from here.
tlr re-exports every other name.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from ._blas import eigh
from .kernels import JointKernel, require_symmetric
from .mmd import MmdMatrix


@dataclass(frozen=True, eq=False)
class SolverMatrices:
    """The two solver quadratics: A = K M K (reconstruction), B = K L K (discrepancy).

    Takes ownership of A and B: a float64 array is stored as is and marked
    read-only, other input is converted to a new float64 array. Raises
    ValueError naming A or B when it has a non-finite entry or is not
    symmetric (kernels.require_symmetric).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape != (n, n):
            raise ValueError("A and B must be square matrices of one common size")
        for name, mat in (("A", A), ("B", B)):
            require_symmetric(mat, name)
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


def build_AB(kernel: JointKernel, coeff: MmdMatrix, M: np.ndarray) -> SolverMatrices:
    """Form the solver quadratics A = K diag(M) K, symmetrized, and B = u u.T with u = K e.

    M is the weight vector build_M returns. B equals K L K, and u u.T is exactly symmetric.
    """
    K = kernel.K
    if M.shape != K.shape[:1]:
        raise ValueError(f"M must match the kernel shape {K.shape}, got {M.shape}")
    if coeff.e.shape != K.shape[:1]:
        raise ValueError(f"coefficients must match the kernel shape {K.shape}, got {coeff.e.shape}")
    A = (K * M) @ K
    A = 0.5 * (A + A.T)
    u = K @ coeff.e
    return SolverMatrices(A=A, B=np.outer(u, u))


def eigen_basis(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of (I + B)^-1 A, eigenvalues descending.

    One generalized symmetric eigensolve of the definite pencil (A, I + B).
    Column j of the returned basis satisfies A w = value * (I + B) w, the
    columns are orthonormal in the (I + B) inner product, and each is
    oriented so its largest-magnitude entry is positive. Raises ValueError
    when I + B is not positive definite, which signals a discrepancy
    quadratic that is not positive semidefinite.
    """
    try:
        values, vectors = eigh(A, np.eye(A.shape[0]) + B)
    except LinAlgError as exc:
        raise ValueError(
            "I + B is not positive definite; the discrepancy quadratic is not positive semidefinite"
        ) from exc
    vectors = vectors[:, ::-1]
    return values[::-1].copy(), vectors * _orientation(vectors)


def _orientation(basis: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1.0 or -1.0) that makes its largest-magnitude entry positive."""
    heads = np.argmax(np.abs(basis), axis=0)
    return np.where(basis[heads, np.arange(basis.shape[1])] < 0, -1.0, 1.0)


def solve_W(mats: SolverMatrices, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvectors of (I + B)^-1 A with their eigenvalues.

    Columns come back orthonormal in the (I + B) inner product, which keeps
    the solve well posed even when A is rank deficient.
    """
    n = mats.A.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
    values, basis = eigen_basis(mats.A, mats.B)
    return basis[:, :k].copy(), values[:k].copy()


def objective_raw(
    W: np.ndarray, kernel: JointKernel, coeff: MmdMatrix, hyper
) -> float:
    """Latent mean gap, as the squared norm of e.T K W, plus the weighted reconstruction errors.

    hyper is a tlr.TlrHyperparams; only its alpha and beta are read.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != kernel.K.shape[0]:
        raise ValueError(f"W must have {kernel.K.shape[0]} rows, got shape {W.shape}")
    gap = coeff.e @ kernel.K @ W
    discrepancy = float(gap @ gap)
    residual_s = (kernel.h_source @ W) @ W.T - kernel.h_source
    residual_t = (kernel.h_target @ W) @ W.T - kernel.h_target
    return (
        discrepancy
        + hyper.alpha * float(np.sum(residual_s * residual_s))
        + hyper.beta * float(np.sum(residual_t * residual_t))
    )


def objective_expanded(W: np.ndarray, mats: SolverMatrices) -> float:
    """Trace form of the objective, written against the solver quadratics."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != mats.A.shape[0]:
        raise ValueError(f"W must have {mats.A.shape[0]} rows, got shape {W.shape}")
    G = W @ W.T
    quad = float(np.sum((G @ mats.A) * G))  # tr(G A G), G symmetric
    spread = float(np.sum(W * (mats.B @ W)))  # tr(W.T B W)
    align = float(np.sum(W * (mats.A @ W)))  # tr(W.T A W)
    return quad + spread - 2.0 * align + float(np.trace(mats.A))


def stationarity_residual(model, mats: SolverMatrices) -> float:
    """Relative residual of the eigen equations at a fitted tlr.TlrModel's projection.

    For true eigenpairs (I + B) W diag(values) equals A W, so the returned
    Frobenius ratio is at rounding scale for a solved model and order one for
    an arbitrary W.
    """
    W = model.W
    lhs = (W + mats.B @ W) * model.eigenvalues
    rhs = mats.A @ W
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


