"""Closed-form solver for the transfer latent representation.

The projection minimizes the kernel-space mean discrepancy between domains
while a pair of weighted linear reconstruction terms keeps the latent space
faithful to each domain's empirical embedding. Stationarity reduces the whole
problem to the leading eigenvectors of (I + B)^-1 A, where A = K M K collects
the weighted reconstruction quadratic and B = K L K the discrepancy quadratic.

L = e e.T has rank one and is only ever held as its factor e (see
mmd_vector), so B = u u.T with u = K e, and I + u u.T is whitened in closed
form by S = (I + u u.T)^-1/2 = H D H, H the Householder reflection taking u
onto the first axis and D diagonal (_householder). For a factor F with
A = F.T diag(M) F and u = F.T e, D H A H D = G.T diag(M) G over the whitened
factor G = F H D, so pencil_blocks whitens F once and every pair of weights
is then a plain symmetric eigenproblem (leading_basis).
fit has two factors, two solvers and one dense solve. The factor is F = K, or
range_factor's F = K U, from X.T X alone, for a linear kernel over d <= n/2
features. lanczos_basis solves on K while k is below _LANCZOS_SHARE of the
order; every other solve is leading_basis on the blocks of pencil_blocks(F).
build_AB, eigen_basis and solve_W form A and B = u u.T densely and hand the
pencil (A, I + B) to one generalized symmetric eigensolve: the reference the
tests compare against.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from ._blas import eigh, eigsh
from .dataset import DomainPair
from .kernels import JointKernel, KernelSpec, build_joint_kernel, gram, require_symmetric
from .mmd import MmdMatrix, mmd_matrix, mmd_vector  # noqa: F401  traced by perfbench/spans.py

logger = logging.getLogger(__name__)

MODEL_FORMAT_TAG = "tlr-model-v1"

# leading_basis asks LAPACK for the top k eigenpairs only while k is below
# this share of the matrix order; above it the full divide-and-conquer eigh
# it falls back to is faster. Measured on a 2-vCPU Xeon, median of 5 on
# whitened d=800 Gram pencils, top k by evr vs all n by evd. With 1 OpenBLAS
# thread, as below the cap in _blas: top 30 of 240 in 4.5 ms vs 4.5 ms for
# all, top 50 of 400 in 12.5 vs 13.2 ms, top 100 of 800 in 78 vs 107 ms, top
# 125 of 1000 in 134 vs 147 ms, top 150 of 1200 in 246-261 vs 231-251 ms;
# n/6 lost at every order but 800. With 2 threads, top 200 of 1600 in 341 vs
# 329 ms (331 vs 352 ms on an RBF d=20 pencil). Break-even stays near n/8.
_PARTIAL_EIGH_SHARE = 1 / 8

# fit solves a formed K by Lanczos while k is below this share of its order n, and
# densely above it. Measured on a 2-vCPU KVM Xeon under _blas's rule, ms for
# lanczos_basis vs pencil_blocks plus leading_basis on fit's pencil (alpha 1e-5, beta
# 1e-4), medians of 3 to 7, numpy's products on 2 threads. RBF kernel, d=20: top 25 of
# 400 32 vs 42, top 100 of 800 99 vs 129, top 150 of 1200 293 vs 344, top 200 437 vs
# 339; top 50 of 1600 219 vs 393, top 133 455 vs 449. A flat spectrum needs more
# products: full-rank linear kernel of d=800 features, top 30 of 760 41 vs 56, top 37 of
# 1200 104 vs 196, top 100 233 vs 231. With numpy's products on 1 thread too
# (OPENBLAS_NUM_THREADS=1, medians of 5): linear, top 47 of 760 79 vs 51, top 75 of 1200
# 279 vs 190, top 100 328 vs 204; RBF, top 75 of 1200 154 vs 189, top 100 209 vs 187. So
# break-even is near n/12 on the flat spectrum at 2 threads but below n/16 at 1, and
# between n/8 and n/6 on RBF at 2 but near n/12 at 1: no share of n serves both (ROADMAP
# item 4). Linear fits reach it only with d > n/2.
_LANCZOS_SHARE = 1 / 16

# Relative to the top eigenvalue: the largest residual |S C S y - value y| a
# Lanczos pair may have, and the largest gap at the k-th eigenvalue still
# taken for a tie. Converged pairs measured 3e-16 to 2.3e-15 on RBF and linear
# kernels at orders 200 to 1600; the margin covers the products' rounding at
# larger orders.
_LANCZOS_ROUNDING = 1e-10


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
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def embed(self, features: np.ndarray) -> np.ndarray:
        """Project new samples through the kernel against the training pool."""
        features = np.asarray(features, dtype=float)
        if not np.isfinite(features).all():
            raise ValueError("features have non-finite entries")
        return gram(features, self.train_features, self.kernel) @ self.W


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
    vectors = vectors[:, ::-1]
    return values[::-1].copy(), vectors * _orientation(vectors)


def _orientation(basis: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1.0 or -1.0) that makes its largest-magnitude entry positive."""
    heads = np.argmax(np.abs(basis), axis=0)
    return np.where(basis[heads, np.arange(basis.shape[1])] < 0, -1.0, 1.0)


def pencil_blocks(
    factor: np.ndarray, n1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, float, float]]:
    """The whitened source block, target block and factor of the TLR pencil, and its reflector.

    Whitens factor F once, row by row, into G = F H D, where H D H =
    (I + u u.T)^-1/2 by _householder's (w, h, d) for u = F.T e, e from
    mmd_vector; duplicate rows of F stay duplicate rows of G. Returns
    G_s.T G_s and G_t.T G_t over G's first n1 and remaining rows, G and
    (w, h, d). Each block is one X.T X product, which numpy hands to BLAS
    syrk, so both come back bitwise symmetric.

    alpha G_s.T G_s + beta G_t.T G_t = D H C H D for C = alpha F_s.T F_s +
    beta F_t.T F_t, so its eigenvectors y solve C b = value (I + u u.T) b
    as b = H D y (_map_back), with latents F b = G y. F = K gives C = A and
    u = K e. On a range factor F = K U, U the eigenvectors of K above its
    rank floor, the solve restricts to w = U z: K w = 0 has a zero latent.
    """
    w, h, d = _householder(factor.T @ mmd_vector(n1, factor.shape[0] - n1))
    whitened = np.outer(factor @ w, w / -h)
    whitened += factor
    whitened[:, 0] *= d
    target_part = whitened[n1:].T @ whitened[n1:]
    source_part = whitened[:n1].T @ whitened[:n1]
    return source_part, target_part, whitened, (w, h, d)


def numerical_rank(spectrum: np.ndarray, n: int) -> int:
    """Rank of a Gram matrix over n rows: its eigenvalues above n * eps * the largest, >= 1."""
    return max(int(np.count_nonzero(spectrum > n * np.finfo(float).eps * spectrum[-1])), 1)


def range_factor(
    source: np.ndarray, target: np.ndarray, spec: KernelSpec | None = None
) -> tuple[np.ndarray, np.ndarray] | None:
    """X V and s for the linear kernel K = X X.T over n pooled rows of d < n features.

    X.T X = V s^2 V.T, cut to its numerical_rank, has K's nonzero spectrum,
    and X V = U s for the matching eigenvectors U of K: the range factor
    F = (X V) s = K U and U = (X V) / s need no K. Returns None for an rbf
    kernel, d >= n or X = 0. Raises ValueError when X.T X is non-finite.
    """
    n = source.shape[0] + target.shape[0]
    if (spec or KernelSpec()).kind != "linear" or source.shape[1] >= n:
        return None
    pooled = np.vstack([source, target])
    gram_matrix = pooled.T @ pooled
    require_symmetric(gram_matrix, "kernel matrix")  # finiteness; syrk's X.T X is symmetric
    spectrum, vectors = eigh(gram_matrix)
    if not spectrum[-1] > 0:
        return None
    rank = numerical_rank(spectrum, n)
    return pooled @ vectors[:, -rank:], np.sqrt(spectrum[-rank:])


def _householder(u: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The w, h and d for which (I + u u.T)^-1/2 = H D H.

    H = I - w w.T / h is the Householder reflection taking u onto the first
    axis, H u = -sign(u_0) |u| e_0, and D = diag(d, 1, ..., 1) with
    d = 1 / sqrt(1 + u.T u). For u = 0, w = 0 and h = 1, so H = I. Raises
    ValueError when u.T u is non-finite, as it is for u from features at an
    extreme scale.
    """
    s = float(u @ u)
    if not math.isfinite(s):
        raise ValueError("overflow: the gap vector u = K e is non-finite; standardize the features")
    norm = math.sqrt(s)
    w = u.copy()
    w[0] += math.copysign(norm, u[0])
    h = norm * (norm + abs(float(u[0]))) or 1.0
    return w, h, 1.0 / math.sqrt(1.0 + s)


def _reflect(w: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """H x = x - w (w.T x) / h for an n x j block x."""
    return x - np.outer(w, (w @ x) / h)


def _map_back(w: np.ndarray, h: float, d: float, vectors: np.ndarray) -> np.ndarray:
    """The basis H D y of whitened eigenvectors y (scaled in place), oriented as in eigen_basis."""
    vectors[0] *= d
    basis = _reflect(w, h, vectors)
    return basis * _orientation(basis)


def leading_basis(C: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of the symmetric matrix C, eigenvalues descending, unoriented.

    C is pencil_blocks' whitened pencil, and may be overwritten. The top k
    are computed alone when k is small against n, and all n by divide and
    conquer otherwise or when a tie at the k-th eigenvalue leaves that
    partial solve short. Raises ValueError when C is non-finite, as it is
    for features at an extreme scale.
    """
    n = C.shape[0]
    if C.shape != (n, n):
        raise ValueError(f"C must be square, got {C.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    if not np.isfinite(C).all():
        raise ValueError("overflow: the whitened matrix is non-finite; standardize the features")
    values = ()
    if k < _PARTIAL_EIGH_SHARE * n:
        values, vectors = eigh(C, subset_by_index=(n - k, n - 1), driver="evr", check_finite=False)
    if len(values) < k:
        values, vectors = eigh(C, overwrite_a=True, driver="evd", check_finite=False)
    return values[::-1][:k].copy(), vectors[:, ::-1][:, :k].copy()


def lanczos_basis(
    K: np.ndarray, m: np.ndarray, u: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-k eigenpairs of C y = value * (I + u u.T) y with C = K diag(m) K, or None.

    The pencil, whitening and basis of pencil_blocks and _map_back, solved
    without forming an n x n matrix: ARPACK's implicitly restarted Lanczos
    (scipy's eigsh) needs only products x -> D H K (m * (K (H D x))), and
    each eigenvector y maps back to H D y. ARPACK runs through _blas.eigsh,
    on one scipy thread, while the products keep numpy's thread count. The
    start vector, the restart vectors and tol=0 are fixed, so a
    call is deterministic. It asks for k + 1 pairs and returns None, logging
    why at DEBUG, when it cannot vouch for the answer: ARPACK fails, a pair
    whose residual |D H C H D y - value y| exceeds _LANCZOS_ROUNDING times the
    top eigenvalue, or a tie at the k-th eigenvalue within that rounding. The
    caller then solves densely, which on a tie only makes fit equal its own
    dense path: LAPACK's basis of a tied space is just as arbitrary (ROADMAP
    item 5's eigengap flag would mark it). Needs k + 1 < n. Raises ValueError
    when u or a product overflows.
    """
    n = K.shape[0]
    if K.shape != (n, n) or m.shape != (n,) or u.shape != (n,):
        raise ValueError(
            f"K must be square and m, u match its order, got {K.shape}, {m.shape}, {u.shape}"
        )
    if not 1 <= k < n - 1:
        raise ValueError(f"k must lie in [1, {n - 2}], got {k}")
    w, h, d = _householder(u)
    weights = m[:, None]
    products = 0

    def whitened(x: np.ndarray) -> np.ndarray:
        """D H C H D x for an n x j block x."""
        nonlocal products
        products += x.shape[1]
        y = x.copy()
        y[0] *= d
        y = _reflect(w, h, K @ (weights * (K @ _reflect(w, h, y))))
        y[0] *= d
        if not np.isfinite(y).all():
            raise ValueError(
                "overflow: a whitened operator product is non-finite; standardize the features"
            )
        return y

    rng = np.random.default_rng(0)
    solved = eigsh(whitened, n, k=k + 1, which="LA", v0=rng.uniform(-1.0, 1.0, n), tol=0, rng=rng)
    if solved is None:
        logger.debug(
            "Lanczos at order %d, k %d: ARPACK declined after %d operator products",
            n, k, products,
        )
        return None
    values = solved[0][::-1]
    top = solved[1][:, ::-1][:, :k]
    scale = max(float(np.max(np.abs(values))), np.finfo(float).tiny)
    residual = float(np.max(np.linalg.norm(whitened(top) - top * values[:k], axis=0))) / scale
    reason = None
    if not residual <= _LANCZOS_ROUNDING:
        reason = f"a residual above {_LANCZOS_ROUNDING:.0e}"
    elif values[k - 1] - values[k] <= _LANCZOS_ROUNDING * scale:
        reason = f"a tie at eigenvalue {k}"
    fallback = f"; falling back to the dense solve on {reason}" if reason else ""
    logger.debug(
        "Lanczos at order %d, k %d: %d operator products, largest relative residual %.1e%s",
        n, k, products, residual, fallback,
    )
    if reason:
        return None
    return values[:k].copy(), _map_back(w, h, d, top)


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

    Solves for the top-k basis of A w = value * (I + u u.T) w, A = K diag(M) K
    and u = K e, on a factor F with W = U z: range_factor's F = K U for a linear
    kernel over d <= n/2 features, else F = K and U = I. On K, lanczos_basis
    solves while k < _LANCZOS_SHARE * n; every other solve is leading_basis on
    pencil_blocks(F). Latents are F z by domain; widths above the rank of K get
    null-space columns, eigenvalue 0 and latents 0. Returns (model, latent_s, latent_t).
    """
    n1, n2 = pair.source.n, pair.target.n
    if hyper.k >= n1 + n2:
        raise ValueError(f"k must be < n1 + n2 = {n1 + n2}, got {hyper.k}")
    # two eighs of order d against K's one of order n (2-vCPU Xeon, _blas's rule):
    # n=1200, k=37: d=600 116 vs 143 ms by Lanczos, d=800 244 vs 173 ms; k=100, d=600
    # 160 vs 306 ms dense; n=600, k=10, d=300 31 vs 35 ms. So d <= n/2 only.
    narrow = 2 * pair.source.d <= n1 + n2
    factored = narrow and range_factor(pair.source.features, pair.target.features, spec)
    solved = None
    if factored:
        projected, scale = factored
        factor, spec = projected * scale, spec or KernelSpec()
    else:
        kernel = build_joint_kernel(pair.source.features, pair.target.features, spec)
        factor, spec = kernel.K, kernel.spec
        if hyper.k < _LANCZOS_SHARE * (n1 + n2):
            M = build_M(n1, n2, hyper.alpha, hyper.beta)
            solved = lanczos_basis(factor, M, factor @ mmd_vector(n1, n2), hyper.k)
    width = min(hyper.k, factor.shape[1])
    if solved is None:
        logger.debug("dense solve at order %d, k %d", factor.shape[1], hyper.k)
        C, target_part, whitened, reflector = pencil_blocks(factor, n1)
        del whitened  # the latents come from F z; C sums in the source block
        target_part *= hyper.beta
        C *= hyper.alpha
        C += target_part
        del target_part
        values, vectors = leading_basis(C, width)
        solved = values, _map_back(*reflector, vectors)
    eigenvalues, z = solved
    W = (projected / scale) @ z if factored else z
    if hyper.k > width:
        # columns r to k - 1 of the complete Q of X V = Q R, an orthonormal basis of
        # null(X.T) = null(K), with eigenvalue 0 and latents 0: LAPACK's reflectors
        # applied to those unit columns, with no n x n Q formed
        geqrf, ormqr = get_lapack_funcs(("geqrf", "ormqr"), (projected,))
        reflectors, tau, _, _ = geqrf(projected)
        units = np.eye(projected.shape[0], hyper.k - width, -width)
        # any workspace of k - r or more works; a larger one lets LAPACK block
        fill, _, _ = ormqr("L", "N", reflectors, tau, units, lwork=units.size)
        W = np.hstack([W, fill])
    # W is oriented in n-space, z with it; on K, _map_back has oriented W = z already
    signs, pad = _orientation(W), (0, hyper.k - width)
    W, z = W * signs, z * signs[:width]
    model = TlrModel(
        W=W,
        eigenvalues=np.pad(eigenvalues, pad),
        hyper=hyper,
        kernel=spec,
        train_features=np.vstack([pair.source.features, pair.target.features]),
        n_source=n1,
    )
    return model, np.pad(factor[:n1] @ z, ((0, 0), pad)), np.pad(factor[n1:] @ z, ((0, 0), pad))


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
    """Reload a model written by save_model.

    Raises ValueError naming the path for any other file, a foreign format
    tag, a missing field (naming the field) or a stored value TlrModel,
    TlrHyperparams or KernelSpec rejects.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        # numpy blames pickled data for any file that is neither .npy nor .npz
        raise ValueError(f"{path} is not a model file written by save_model") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a model file written by save_model")

    def field(name):
        try:
            return archive[name]
        except KeyError:
            raise ValueError(f"{path} is not a model file: it has no {name!r} field") from None

    with archive:
        tag = str(field("format_tag"))
        if tag != MODEL_FORMAT_TAG:
            raise ValueError(f"{path}: unsupported model format {tag!r}")
        W, eigenvalues, train = field("W"), field("eigenvalues"), field("train_features")
        alpha, beta, k, n_source = field("alpha"), field("beta"), field("k"), field("n_source")
        kind, bandwidth = str(field("kernel_kind")), float(field("kernel_bandwidth"))
    try:
        hyper = TlrHyperparams(alpha=float(alpha), beta=float(beta), k=int(k))
        spec = KernelSpec(kind=kind, bandwidth=None if np.isnan(bandwidth) else bandwidth)
        return TlrModel(W, eigenvalues, hyper, spec, train, int(n_source))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
