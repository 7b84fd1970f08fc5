"""Closed-form solver for the transfer latent representation.

The projection minimizes the kernel-space mean discrepancy between domains
while a pair of weighted linear reconstruction terms keeps the latent space
faithful to each domain's empirical embedding. Stationarity reduces the whole
problem to the leading eigenvectors of (I + B)^-1 A, where A = K M K collects
the weighted reconstruction quadratic and B = K L K the discrepancy quadratic.

L = e e.T has rank one and is only ever held as its factor e (see
mmd_vector), so B = u u.T with u = K e, and I + u u.T is whitened in closed
form; leading_basis solves the pencil that way, without forming B or
factoring I + B. build_AB, eigen_basis and solve_W form A and B = u u.T
densely and hand the pencil (A, I + B) to one generalized symmetric
eigensolve: the reference the tests compare against.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh

from ._blas import single_thread_below_cap
from .dataset import DomainPair
from .kernels import JointKernel, KernelSpec, build_joint_kernel, gram
from .mmd import MmdMatrix, mmd_matrix, mmd_vector  # noqa: F401  traced by perfbench/spans.py

MODEL_FORMAT_TAG = "tlr-model-v1"

# leading_basis asks LAPACK for the top k eigenpairs only while k is below
# this share of the matrix order; above it a full eigh is faster. Measured on
# a 2-vCPU Xeon, median of 5 on a d=800 Gram matrix. With 1 OpenBLAS thread,
# as below the cap in _blas: top 48 of 240 in 7.6 ms vs 8.6 ms for all, top
# 112 of 560 in 46 ms vs 47 ms, top 160 of 800 in 110 ms vs 117 ms, break-even
# near k = n/5. With 2 threads, above the cap: top 180 of 1200 in 209 ms vs
# 220 ms, top 240 of 1600 in 399 ms vs 370 ms, break-even near k = n/7.
_PARTIAL_EIGH_SHARE = 0.2


@dataclass(frozen=True)
class TlrHyperparams:
    """Reconstruction weights for each domain and the latent width."""

    alpha: float
    beta: float
    k: int

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be a positive finite real, got {self.beta}")
        object.__setattr__(self, "k", latent_width(self.k))


def latent_width(k) -> int:
    """k as an int; raises ValueError unless it is a finite integral number >= 1."""
    if not (k >= 1 and k != math.inf and k == int(k)):
        raise ValueError(f"k must be an integer >= 1, got {k}")
    return int(k)


@dataclass(frozen=True, eq=False)
class SolverMatrices:
    """The two solver quadratics: A = K M K (reconstruction), B = K L K (discrepancy)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape != (n, n):
            raise ValueError("A and B must be square matrices of one common size")
        for name, mat in (("A", A), ("B", B)):
            scale = max(1.0, float(np.max(np.abs(mat))))
            if float(np.max(np.abs(mat - mat.T))) > 1e-10 * scale:
                raise ValueError(f"{name} is not symmetric")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


@dataclass(frozen=True, eq=False)
class TlrModel:
    """Learned projection with the context needed to embed new samples."""

    W: np.ndarray
    eigenvalues: np.ndarray
    hyper: TlrHyperparams
    kernel: KernelSpec
    train_features: np.ndarray
    n_source: int

    def __post_init__(self):
        W = np.array(self.W, dtype=float)
        eigenvalues = np.array(self.eigenvalues, dtype=float)
        train = np.array(self.train_features, dtype=float)
        if W.ndim != 2 or W.shape[1] != self.hyper.k:
            raise ValueError(f"W must have k={self.hyper.k} columns, got shape {W.shape}")
        if eigenvalues.shape != (self.hyper.k,):
            raise ValueError("one eigenvalue per latent column is required")
        if train.ndim != 2 or train.shape[0] != W.shape[0]:
            raise ValueError("training features must have one row per projection row")
        if not 1 <= self.n_source < W.shape[0]:
            raise ValueError(f"n_source must split the training rows, got {self.n_source}")
        for name, arr in (("W", W), ("eigenvalues", eigenvalues), ("train_features", train)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Project new samples through the kernel against the training pool."""
        return gram(np.asarray(features, dtype=float), self.train_features, self.kernel) @ self.W


def build_M(n1: int, n2: int, alpha: float, beta: float) -> np.ndarray:
    """The diagonal of M as a vector: alpha on the n1 source rows, beta on the n2 target rows."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"domain sizes must be >= 1, got n1={n1}, n2={n2}")
    if not (np.isfinite(alpha) and alpha > 0 and np.isfinite(beta) and beta > 0):
        raise ValueError(f"weights must be positive finite reals, got alpha={alpha}, beta={beta}")
    return np.concatenate([np.full(n1, float(alpha)), np.full(n2, float(beta))])


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
    return values[::-1].copy(), _oriented(vectors[:, ::-1])


def _oriented(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    heads = np.argmax(np.abs(basis), axis=0)
    return basis * np.where(basis[heads, np.arange(basis.shape[1])] < 0, -1.0, 1.0)


def leading_basis(C: np.ndarray, u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of C y = value * (I + u u.T) y, eigenvalues descending.

    I + u u.T is whitened in closed form: S = I - c u u.T with
    c = 1 / (sqrt(1 + s) (1 + sqrt(1 + s))) and s = u.T u satisfies
    S^2 = (I + u u.T)^-1, so the pencil becomes the symmetric eigenproblem of
    S C S and each eigenvector y maps back to the basis column S y. Columns
    are orthonormal in the (I + u u.T) inner product and oriented so their
    largest-magnitude entry is positive, as in eigen_basis. C must be
    symmetric; the top k are computed alone when k is small against n, and
    all n when a tie at the k-th eigenvalue leaves that partial solve short.
    Raises ValueError when S C S overflows, as it does for finite C and u
    from features at an extreme scale (around 1e40 for linear kernels).
    """
    n = C.shape[0]
    if C.shape != (n, n) or u.shape != (n,):
        raise ValueError(f"C must be square and u match its order, got {C.shape} and {u.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    root = np.sqrt(1.0 + float(u @ u))
    c = 1.0 / (root * (1.0 + root))
    Cu = C @ u
    # S C S = C - u a.T - a u.T with a = c C u - (c^2 u.T C u / 2) u
    a = c * Cu - (0.5 * c * c * float(u @ Cu)) * u
    whitened = C - np.outer(u, a)
    whitened -= np.outer(a, u)
    if not np.isfinite(whitened).all():
        raise ValueError("overflow: the whitened matrix is non-finite; standardize the features")
    values = ()
    if k < _PARTIAL_EIGH_SHARE * n:
        values, vectors = eigh(
            whitened, subset_by_index=(n - k, n - 1), driver="evr", check_finite=False
        )
    if len(values) < k:
        values, vectors = eigh(whitened, overwrite_a=True, check_finite=False)
    values = values[::-1][:k].copy()
    vectors = vectors[:, ::-1][:, :k]
    return values, _oriented(vectors - np.outer(c * u, u @ vectors))


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
    W: np.ndarray, kernel: JointKernel, coeff: MmdMatrix, hyper: TlrHyperparams
) -> float:
    """Latent mean gap, as the squared norm of e.T K W, plus the weighted reconstruction errors."""
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


def stationarity_residual(model: TlrModel, mats: SolverMatrices) -> float:
    """Relative residual of the eigen equations at the fitted projection.

    For true eigenpairs (I + B) W diag(values) equals A W, so the returned
    Frobenius ratio is at rounding scale for a solved model and order one for
    an arbitrary W.
    """
    W = model.W
    lhs = (W + mats.B @ W) * model.eigenvalues
    rhs = mats.A @ W
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


def fit(
    pair: DomainPair, hyper: TlrHyperparams, spec: KernelSpec | None = None
) -> tuple[TlrModel, np.ndarray, np.ndarray]:
    """Learn the shared projection and return it with both latent blocks.

    Builds the joint kernel over the stacked domains and solves for the
    top-k basis of K M K w = value * (I + u u.T) w with u = K e through
    leading_basis, then projects each domain's embedding rows. Widths above
    the rank of K get columns in its null space, with eigenvalue 0 up to
    rounding. Returns (model, latent_source, latent_target).
    """
    n1, n2 = pair.source.n, pair.target.n
    if hyper.k >= n1 + n2:
        raise ValueError(f"k must be < n1 + n2 = {n1 + n2}, got {hyper.k}")
    with single_thread_below_cap(n1 + n2):
        kernel = build_joint_kernel(pair.source.features, pair.target.features, spec)
        K = kernel.K
        weights = build_M(n1, n2, hyper.alpha, hyper.beta)
        eigenvalues, W = leading_basis((K * weights) @ K, K @ mmd_vector(n1, n2), hyper.k)
    model = TlrModel(
        W=W,
        eigenvalues=eigenvalues,
        hyper=hyper,
        kernel=kernel.spec,
        train_features=np.vstack([pair.source.features, pair.target.features]),
        n_source=n1,
    )
    return model, kernel.h_source @ W, kernel.h_target @ W


def save_model(model: TlrModel, path) -> None:
    """Serialize a model to one binary file that reloads bit-exactly."""
    payload = {
        "format_tag": np.array(MODEL_FORMAT_TAG),
        "W": model.W,
        "eigenvalues": model.eigenvalues,
        "alpha": np.float64(model.hyper.alpha),
        "beta": np.float64(model.hyper.beta),
        "k": np.int64(model.hyper.k),
        "kernel_kind": np.array(model.kernel.kind),
        "kernel_bandwidth": np.float64(
            np.nan if model.kernel.bandwidth is None else model.kernel.bandwidth
        ),
        "train_features": model.train_features,
        "n_source": np.int64(model.n_source),
    }
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


def load_model(path) -> TlrModel:
    """Reload a model written by save_model."""
    with np.load(path, allow_pickle=False) as data:
        tag = str(data["format_tag"])
        if tag != MODEL_FORMAT_TAG:
            raise ValueError(f"unsupported model format {tag!r}")
        bandwidth = float(data["kernel_bandwidth"])
        return TlrModel(
            W=data["W"],
            eigenvalues=data["eigenvalues"],
            hyper=TlrHyperparams(
                alpha=float(data["alpha"]), beta=float(data["beta"]), k=int(data["k"])
            ),
            kernel=KernelSpec(
                kind=str(data["kernel_kind"]),
                bandwidth=None if np.isnan(bandwidth) else bandwidth,
            ),
            train_features=data["train_features"],
            n_source=int(data["n_source"]),
        )
