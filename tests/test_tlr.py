import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, solve_triangular
from scipy.sparse.linalg import ArpackNoConvergence

from tlradapt import tlr
from tlradapt.bench import GridSpec, grid_search
from tlradapt.classify import accuracy, knn1_predict
from tlradapt.dataset import DomainPair, LabeledMatrix, standardize_pair, synth_shift_pair
from tlradapt.kernels import JointKernel, KernelSpec, build_joint_kernel
from tlradapt.mmd import mmd_latent, mmd_matrix, mmd_vector
from tlradapt.tlr import (
    MODEL_FORMAT_TAG,
    SolverMatrices,
    TlrHyperparams,
    TlrModel,
    build_AB,
    build_M,
    eigen_basis,
    fit,
    lanczos_basis,
    leading_basis,
    load_model,
    objective_expanded,
    objective_raw,
    pencil_blocks,
    save_model,
    solve_W,
    stationarity_residual,
)


def random_problem(rng, n1, n2, alpha=1.0, beta=1.0, spec=None):
    """Random features -> joint kernel -> solver quadratics."""
    source = rng.standard_normal((n1, 4))
    target = rng.standard_normal((n2, 4)) + 0.5
    kernel = build_joint_kernel(source, target, spec)
    coeff = mmd_matrix(n1, n2)
    mats = build_AB(kernel, coeff, build_M(n1, n2, alpha, beta))
    return kernel, coeff, mats


def dense_pencil_eigenvalues(mats):
    """Reference eigenvalues straight from the dense resolvent."""
    n = mats.A.shape[0]
    raw = np.linalg.eigvals(np.linalg.inv(np.eye(n) + mats.B) @ mats.A)
    return np.sort(raw.real)[::-1]


def whitened_basis(factor, n1, alpha, beta, k):
    """fit's dense solve on a factor: pencil_blocks, leading_basis, then _map_back."""
    source_part, target_part, _, reflector = pencil_blocks(factor, n1)
    values, vectors = leading_basis(alpha * source_part + beta * target_part, k)
    return values, tlr._map_back(*reflector, vectors)


def random_b_orthonormal(rng, mats, k):
    """A frame F with F.T (I + B) F = I, drawn at random."""
    n = mats.B.shape[0]
    upper = cholesky(np.eye(n) + mats.B)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return solve_triangular(upper, q, lower=False)


class TestHyperparams:
    def test_valid(self):
        hyper = TlrHyperparams(alpha=0.1, beta=2.0, k=5)
        assert (hyper.alpha, hyper.beta, hyper.k) == (0.1, 2.0, 5)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            TlrHyperparams(alpha=alpha, beta=1.0, k=1)

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            TlrHyperparams(alpha=1.0, beta=0.0, k=1)

    @pytest.mark.parametrize("k", [0, -3, 2.5, np.inf, np.nan, True, np.True_, "3", None])
    def test_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            TlrHyperparams(alpha=1.0, beta=1.0, k=k)


class TestBuildM:
    def test_block_diagonal_values(self):
        M = build_M(2, 1, 0.5, 2.0)
        assert np.array_equal(M, [0.5, 0.5, 2.0])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            build_M(0, 1, 1.0, 1.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="positive finite"):
            build_M(1, 1, -1.0, 1.0)


class TestBuildAB:
    def test_identity_kernel_hand_oracle(self):
        # with K = I the quadratics collapse to M and L themselves
        joint = JointKernel(K=np.eye(3), n1=2, n2=1, spec=KernelSpec())
        coeff = mmd_matrix(2, 1)
        M = build_M(2, 1, 0.7, 1.3)
        mats = build_AB(joint, coeff, M)
        assert np.allclose(mats.A, np.diag(M), atol=1e-15)
        assert np.allclose(mats.B, coeff.L, atol=1e-15)

    def test_matches_dense_products(self):
        rng = np.random.default_rng(10)
        for n1, n2 in [(5, 7), (1, 6), (6, 1), (1, 1)]:
            kernel, coeff, mats = random_problem(rng, n1, n2, alpha=0.3, beta=1.1)
            K = kernel.K
            assert np.allclose(mats.A, K @ np.diag(build_M(n1, n2, 0.3, 1.1)) @ K, atol=1e-10)
            assert np.allclose(mats.B, K @ coeff.L @ K, atol=1e-10)

    def test_outputs_symmetric(self):
        rng = np.random.default_rng(11)
        _, _, mats = random_problem(rng, 6, 4)
        assert np.array_equal(mats.A, mats.A.T)
        assert np.array_equal(mats.B, mats.B.T)

    def test_shape_mismatch_rejected(self):
        joint = JointKernel(K=np.eye(3), n1=2, n2=1, spec=KernelSpec())
        with pytest.raises(ValueError, match="match the kernel shape"):
            build_AB(joint, mmd_matrix(2, 1), np.ones(4))


class TestPencilBlocks:
    @pytest.mark.parametrize("spec", [None, KernelSpec("rbf")])
    def test_matches_dense_reference(self, spec):
        # the blocks are those of the whitened factor G = K H D, and H D H
        # whitens I + u u.T for u = K e
        rng = np.random.default_rng(12)
        for n1, n2 in [(5, 7), (1, 6), (6, 1), (1, 1)]:
            kernel, coeff, mats = random_problem(rng, n1, n2, alpha=0.3, beta=1.1, spec=spec)
            source_part, target_part, whitened, (w, h, d) = pencil_blocks(kernel.K, n1)
            assert np.array_equal(source_part, source_part.T)
            assert np.array_equal(target_part, target_part.T)
            assert np.array_equal(source_part, whitened[:n1].T @ whitened[:n1])
            assert np.array_equal(target_part, whitened[n1:].T @ whitened[n1:])
            n = n1 + n2
            reflection = np.eye(n) - np.outer(w, w) / h
            scaling = np.diag(np.concatenate([[d], np.ones(n - 1)]))
            S = reflection @ scaling @ reflection
            u = kernel.K @ coeff.e
            assert np.allclose(S @ (np.eye(n) + np.outer(u, u)) @ S, np.eye(n), atol=1e-12)
            scale = np.max(np.abs(kernel.K))
            assert np.max(np.abs(whitened - kernel.K @ reflection @ scaling)) <= 1e-13 * scale
            expected = scaling @ reflection @ mats.A @ reflection @ scaling
            C = 0.3 * source_part + 1.1 * target_part
            assert np.max(np.abs(C - expected)) <= 1e-12 * np.max(np.abs(mats.A))

    def test_duplicate_rows_stay_duplicate(self):
        rng = np.random.default_rng(13)
        factor = rng.standard_normal((9, 4)) * 1e3
        factor[5] = factor[1]
        _, _, whitened, _ = pencil_blocks(factor, 4)
        assert np.array_equal(whitened[5], whitened[1])


class TestSolverMatrices:
    def test_rejects_asymmetric_quadratic(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="A is not symmetric"):
            SolverMatrices(A=bad, B=np.eye(2))

    @pytest.mark.parametrize("name", ["A", "B"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_quadratic(self, name, value):
        bad = np.eye(3)
        bad[1, 2] = bad[2, 1] = value
        matrices = {"A": np.eye(3), "B": np.eye(3), name: bad}
        expected = f"^{name} has non-finite entries; check the feature scale and bandwidth$"
        with pytest.raises(ValueError, match=expected):
            SolverMatrices(**matrices)

    def test_read_only(self):
        mats = SolverMatrices(A=np.eye(2), B=np.eye(2))
        with pytest.raises(ValueError):
            mats.A[0, 0] = 5.0

    def test_takes_ownership_of_float_arrays(self):
        A, B = np.eye(3), np.ones((3, 3))
        mats = SolverMatrices(A=A, B=B)
        assert np.shares_memory(mats.A, A) and np.shares_memory(mats.B, B)
        assert not A.flags.writeable and not B.flags.writeable

    def test_converts_other_input(self):
        B = np.zeros((2, 2), dtype=int)
        mats = SolverMatrices(A=[[1.0, 0.0], [0.0, 1.0]], B=B)
        assert mats.A.dtype == float and mats.B.dtype == float
        assert not np.shares_memory(mats.B, B) and B.flags.writeable
        assert not mats.A.flags.writeable and not mats.B.flags.writeable


def _traced_peak(build) -> int:
    """Peak bytes traced while build() runs, its result included."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """The kernel and the quadratics are checked without n x n temporaries."""

    N = 400
    SQUARE = N * N * 8  # bytes of one n x n float64 array

    def test_build_joint_kernel_holds_little_beyond_K(self):
        x = np.random.default_rng(5).standard_normal((self.N, 20))
        peak = _traced_peak(lambda: build_joint_kernel(x[:150], x[150:], KernelSpec("rbf")))
        assert peak < 1.25 * self.SQUARE

    def test_joint_kernel_check_allocates_no_square(self):
        x = np.random.default_rng(5).standard_normal((self.N, 20))
        K = build_joint_kernel(x[:150], x[150:], KernelSpec("rbf")).K
        peak = _traced_peak(lambda: JointKernel(K=K, n1=150, n2=250, spec=KernelSpec("rbf", 1.0)))
        assert peak < self.SQUARE / 4

    def test_solver_matrices_check_allocates_no_square(self):
        _, _, mats = random_problem(np.random.default_rng(5), 150, 250)
        A, B = np.array(mats.A), np.array(mats.B)
        assert _traced_peak(lambda: SolverMatrices(A=A, B=B)) < self.SQUARE / 4


class TestEigenBasis:
    def test_diagonal_hand_oracle(self):
        # B = 0: plain eigenproblem of a diagonal matrix, order descending
        values, basis = eigen_basis(np.diag([3.0, 1.0, 2.0]), np.zeros((3, 3)))
        assert np.allclose(values, [3.0, 2.0, 1.0], atol=1e-12)
        expected = np.eye(3)[:, [0, 2, 1]]
        assert np.allclose(np.abs(basis), expected, atol=1e-12)

    def test_matches_dense_resolvent(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            _, _, mats = random_problem(rng, 4 + trial % 3, 5, alpha=0.2, beta=2.0)
            values, _ = eigen_basis(mats.A, mats.B)
            expected = dense_pencil_eigenvalues(mats)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(values - expected)) <= 1e-8 * scale

    def test_basis_orthonormal_in_shifted_metric(self):
        rng = np.random.default_rng(13)
        _, _, mats = random_problem(rng, 6, 5)
        _, basis = eigen_basis(mats.A, mats.B)
        shifted = np.eye(basis.shape[0]) + mats.B
        assert np.allclose(basis.T @ shifted @ basis, np.eye(basis.shape[1]), atol=1e-8)

    def test_solves_pencil_columnwise(self):
        rng = np.random.default_rng(14)
        _, _, mats = random_problem(rng, 5, 6)
        values, basis = eigen_basis(mats.A, mats.B)
        lhs = mats.A @ basis
        rhs = (basis + mats.B @ basis) * values
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(lhs)))

    def test_sign_convention(self):
        rng = np.random.default_rng(15)
        _, _, mats = random_problem(rng, 5, 4)
        _, basis = eigen_basis(mats.A, mats.B)
        heads = np.argmax(np.abs(basis), axis=0)
        assert np.all(basis[heads, np.arange(basis.shape[1])] > 0)

    def test_indefinite_shift_rejected(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            eigen_basis(np.eye(2), -2.0 * np.eye(2))


class TestLeadingBasis:
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("n1", [1, 2, 7])
    def test_matches_eigen_basis(self, kind, n1):
        # same spectrum and same top-k subspace as the dense Cholesky oracle,
        # on both the partial (k < n/8) and the full eigensolve
        rng = np.random.default_rng(40 + n1)
        for _ in range(4):
            n2 = int(rng.integers(2, 40))
            alpha, beta = (float(v) for v in np.exp(rng.uniform(-4, 1, size=2)))
            kernel, _, mats = random_problem(rng, n1, n2, alpha, beta, KernelSpec(kind))
            n = n1 + n2
            expected_values, expected_basis = eigen_basis(mats.A, mats.B)
            scale = float(expected_values[0])
            for k in sorted({1, 2, n // 8 - 1, n // 5 - 1, n - 1, n} - {-1, 0}):
                values, basis = whitened_basis(kernel.K, n1, alpha, beta, k)
                assert values.shape == (k,) and basis.shape == (n, k)
                assert np.max(np.abs(values - expected_values[:k])) <= 1e-10 * scale
                gap = expected_values[k - 1] - (expected_values[k] if k < n else 0.0)
                if expected_values[k - 1] > 1e-8 * scale and gap > 1e-3 * scale:
                    ours, _ = np.linalg.qr(basis)
                    theirs, _ = np.linalg.qr(expected_basis[:, :k])
                    assert np.linalg.norm(ours @ ours.T - theirs @ theirs.T, 2) <= 1e-6

    def test_solves_pencil_orthonormal_and_oriented(self):
        rng = np.random.default_rng(46)
        kernel, _, mats = random_problem(rng, 9, 21, 0.01, 1.0, KernelSpec("rbf"))
        u = kernel.K @ mmd_vector(9, 21)
        shifted = np.eye(30) + np.outer(u, u)
        for k in (3, 30):
            values, basis = whitened_basis(kernel.K, 9, 0.01, 1.0, k)
            lhs = mats.A @ basis
            assert np.max(np.abs(lhs - (shifted @ basis) * values)) <= 1e-10 * np.max(np.abs(lhs))
            assert np.allclose(basis.T @ shifted @ basis, np.eye(k), atol=1e-10)
            assert np.all(np.diff(values) <= 0)
            heads = np.argmax(np.abs(basis), axis=0)
            assert np.all(basis[heads, np.arange(k)] > 0)

    def test_zero_vector_is_plain_eigh(self):
        # one diagonal factor for both domains gives u = F.T e = 0 exactly, so
        # nothing is whitened and C = diag(9, 1, 4)
        factor = np.vstack([np.diag([3.0, 1.0, 2.0])] * 2)
        source_part, _, whitened, (w, h, d) = pencil_blocks(factor, 3)
        assert not w.any() and h == 1.0 and d == 1.0
        assert np.array_equal(whitened, factor)
        values, vectors = leading_basis(source_part, 2)
        assert np.allclose(values, [9.0, 4.0], atol=1e-15)
        assert np.allclose(np.abs(vectors), np.eye(3)[:, [0, 2]], atol=1e-15)
        values, basis = whitened_basis(factor, 3, 0.5, 0.5, 2)
        assert np.allclose(values, [9.0, 4.0], atol=1e-15)
        assert np.allclose(basis, np.eye(3)[:, [0, 2]], atol=1e-15)

    def test_rank_one_pencil_with_large_gap_vector(self):
        # u.T u = 1e20 lies beyond 1/eps, where a whitening I - c u u.T would
        # round to 0 along u; the one eigenpair is C / (1 + u.T u) with basis
        # 1 / sqrt(1 + u.T u), for C = 3e20 from either domain's row
        for rows, alpha, beta in [((1e10, 0.0), 3.0, 1.0), ((0.0, 1e10), 1.0, 3.0)]:
            values, basis = whitened_basis(np.array(rows)[:, None], 1, alpha, beta, 1)
            assert values[0] == pytest.approx(3e20 / (1 + 1e20), rel=1e-14)
            assert basis[0, 0] == pytest.approx(1 / np.sqrt(1 + 1e20), rel=1e-14)

    def test_tied_spectrum_returns_k_pairs(self):
        # C = I ties every eigenvalue but the one along u; the partial solve
        # may stop short of k pairs there
        for n1, n2 in [(8, 8), (10, 10), (12, 15)]:
            u = mmd_vector(n1, n2)
            values, basis = whitened_basis(np.eye(n1 + n2), n1, 1.0, 1.0, 1)
            assert values.shape == (1,) and basis.shape == (n1 + n2, 1)
            shifted = np.eye(n1 + n2) + np.outer(u, u)
            assert np.allclose(basis - (shifted @ basis) * values, 0.0, atol=1e-12)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 3\]"):
            leading_basis(np.eye(3), 4)
        with pytest.raises(ValueError, match="square"):
            leading_basis(np.ones((3, 2)), 1)
        with pytest.raises(ValueError, match="overflow: the whitened matrix is non-finite"):
            leading_basis(np.array([[1.0, np.inf], [np.inf, 1.0]]), 1)


class TestSolveW:
    def test_slices_leading_columns(self):
        rng = np.random.default_rng(16)
        _, _, mats = random_problem(rng, 6, 6)
        values, basis = eigen_basis(mats.A, mats.B)
        W, eigenvalues = solve_W(mats, 3)
        assert np.array_equal(W, basis[:, :3])
        assert np.array_equal(eigenvalues, values[:3])

    def test_k_bounds(self):
        rng = np.random.default_rng(17)
        _, _, mats = random_problem(rng, 3, 3)
        with pytest.raises(ValueError, match=r"k must lie in \[1, 5\]"):
            solve_W(mats, 6)
        with pytest.raises(ValueError, match="k must lie in"):
            solve_W(mats, 0)

    def test_variational_optimality(self):
        # no frame orthonormal in the shifted metric beats the eigenbasis
        rng = np.random.default_rng(20)
        _, _, mats = random_problem(rng, 7, 6)
        k = 3
        W, _ = solve_W(mats, k)
        best = float(np.sum(W * (mats.A @ W)))
        for _ in range(50):
            F = random_b_orthonormal(rng, mats, k)
            competitor = float(np.sum(F * (mats.A @ F)))
            assert competitor <= best + 1e-9 * max(1.0, abs(best))


class TestObjectives:
    def test_raw_equals_expanded(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n1, n2 = (int(v) for v in rng.integers(3, 9, size=2))
            alpha, beta = np.exp(rng.uniform(-2, 2, size=2))
            kernel, coeff, mats = random_problem(rng, n1, n2, alpha, beta)
            hyper = TlrHyperparams(alpha=float(alpha), beta=float(beta), k=2)
            W = rng.standard_normal((n1 + n2, 2))
            raw = objective_raw(W, kernel, coeff, hyper)
            expanded = objective_expanded(W, mats)
            assert abs(raw - expanded) <= 1e-8 * max(1.0, abs(raw))

    def test_raw_gap_is_latent_mean_gap(self):
        # with the reconstruction terms taken out, what is left is the latent mean gap
        rng = np.random.default_rng(24)
        for n1, n2 in [(1, 1), (1, 5), (4, 1), (6, 9)]:
            kernel, coeff, _ = random_problem(rng, n1, n2)
            hyper = TlrHyperparams(alpha=0.4, beta=1.7, k=2)
            W = rng.standard_normal((n1 + n2, 2))
            recon = sum(
                weight * float(np.sum((h @ W @ W.T - h) ** 2))
                for weight, h in ((0.4, kernel.h_source), (1.7, kernel.h_target))
            )
            gap = mmd_latent(kernel.h_source @ W, kernel.h_target @ W)
            got = objective_raw(W, kernel, coeff, hyper) - recon
            assert abs(got - gap) <= 1e-9 * max(1.0, recon)

    def test_row_count_checked(self):
        rng = np.random.default_rng(22)
        kernel, coeff, mats = random_problem(rng, 3, 3)
        hyper = TlrHyperparams(alpha=1.0, beta=1.0, k=2)
        with pytest.raises(ValueError, match="rows"):
            objective_raw(np.zeros((4, 2)), kernel, coeff, hyper)
        with pytest.raises(ValueError, match="rows"):
            objective_expanded(np.zeros((4, 2)), mats)


class TestStationarity:
    def test_small_at_solution_large_elsewhere(self):
        rng = np.random.default_rng(23)
        pair = synth_shift_pair(12, 4, classes=3, translation=1.0, seed=3)
        hyper = TlrHyperparams(alpha=0.5, beta=0.5, k=4)
        model, _, _ = fit(pair, hyper)
        kernel = build_joint_kernel(pair.source.features, pair.target.features)
        coeff = mmd_matrix(pair.source.n, pair.target.n)
        mats = build_AB(kernel, coeff, build_M(pair.source.n, pair.target.n, 0.5, 0.5))
        assert stationarity_residual(model, mats) <= 1e-8
        shuffled = TlrModel(
            W=rng.standard_normal(model.W.shape),
            eigenvalues=model.eigenvalues,
            hyper=hyper,
            kernel=model.kernel,
            train_features=model.train_features,
            n_source=model.n_source,
        )
        assert stationarity_residual(shuffled, mats) >= 1e-3


class TestFit:
    # n = 40 rows of d = 5: a linear fit takes the range route, of rank 5, so k = 6
    # fills a null-space column; an RBF fit at k = 2 < n/16 takes Lanczos, and
    # with _LANCZOS_SHARE = 0 the dense solve on K
    @pytest.mark.parametrize(
        "spec, k, share, dense_order",
        [(None, 6, None, 5), (KernelSpec("rbf"), 2, None, None), (KernelSpec("rbf"), 2, 0.0, 40)],
        ids=["range", "lanczos", "dense"],
    )
    def test_shapes_and_latents(self, monkeypatch, caplog, spec, k, share, dense_order):
        if share is not None:
            monkeypatch.setattr(tlr, "_LANCZOS_SHARE", share)
        pair = synth_shift_pair(10, 5, classes=2, translation=2.0, seed=4)
        with caplog.at_level(logging.DEBUG, logger="tlradapt.tlr"):
            model, latent_s, latent_t = fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=k), spec)
        expected = [] if dense_order is None else [f"dense solve at order {dense_order}, k {k}"]
        assert [m for m in caplog.messages if m.startswith("dense solve")] == expected
        n1, n2 = pair.source.n, pair.target.n
        assert model.W.shape == (n1 + n2, k)
        assert latent_s.shape == (n1, k)
        assert latent_t.shape == (n2, k)
        K = build_joint_kernel(pair.source.features, pair.target.features, model.kernel).K
        assert np.max(np.abs(latent_s - K[:n1] @ model.W)) <= 1e-12
        assert np.max(np.abs(latent_t - K[n1:] @ model.W)) <= 1e-12
        heads = np.argmax(np.abs(model.W), axis=0)
        assert np.all(model.W[heads, np.arange(k)] > 0)

    def test_embed_reproduces_training_latents(self):
        pair = synth_shift_pair(8, 3, classes=2, translation=1.0, seed=5)
        for spec in (None, KernelSpec(kind="rbf", bandwidth=2.0)):
            model, latent_s, latent_t = fit(
                pair, TlrHyperparams(alpha=1.0, beta=2.0, k=4), spec
            )
            assert np.allclose(model.embed(pair.source.features), latent_s, atol=1e-10)
            assert np.allclose(model.embed(pair.target.features), latent_t, atol=1e-10)

    def test_k_capacity_checked(self):
        pair = synth_shift_pair(3, 2, classes=2, seed=6)
        with pytest.raises(ValueError, match="k must be <"):
            fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=12))

    def test_solver_matrix_bitwise_symmetric(self, monkeypatch):
        # C exists only on the dense and range paths, so pin fit to them
        seen = []

        def recording(C, k):
            seen.append(C.copy())
            return leading_basis(C, k)

        monkeypatch.setattr("tlradapt.tlr._LANCZOS_SHARE", 0.0)
        monkeypatch.setattr("tlradapt.tlr.leading_basis", recording)
        pair = synth_shift_pair(9, 4, classes=3, rotation_deg=25.0, seed=7)
        for spec in (None, KernelSpec("rbf")):
            fit(pair, TlrHyperparams(alpha=0.3, beta=1.7, k=4), spec)
        assert len(seen) == 2
        for C in seen:
            assert np.array_equal(C, C.T)

    def test_eigenvalues_descending(self):
        pair = synth_shift_pair(9, 4, classes=3, rotation_deg=25.0, seed=7)
        model, _, _ = fit(pair, TlrHyperparams(alpha=0.1, beta=0.1, k=8))
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)


def _scaled_pair(pair, scale, identical=False):
    """pair's features times scale; with identical, the target repeats the source."""
    target = pair.source if identical else pair.target
    return DomainPair(
        LabeledMatrix(pair.source.features * scale, pair.source.labels),
        LabeledMatrix(target.features * scale, target.labels),
    )


def _identical_domains():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((12, 4))
    labels = np.repeat([0, 1, 2], 4)
    pair = DomainPair(LabeledMatrix(x, labels), LabeledMatrix(x.copy(), labels))
    return pair, TlrHyperparams(alpha=0.1, beta=1.0, k=3), None


def _one_row_per_class():
    pair = synth_shift_pair(1, 4, classes=3, translation=1.0, seed=51)
    return pair, TlrHyperparams(alpha=1.0, beta=0.01, k=2), None


def _rbf_bandwidth_near_zero():
    pair = synth_shift_pair(4, 3, classes=2, translation=1.0, seed=52)
    return pair, TlrHyperparams(alpha=0.5, beta=2.0, k=3), KernelSpec("rbf", bandwidth=1e-6)


def _identity_kernel_tied_spectrum():
    pair = synth_shift_pair(4, 3, classes=2, translation=1.0, seed=0)
    return pair, TlrHyperparams(alpha=1.0, beta=1.0, k=1), KernelSpec("rbf", bandwidth=1e-6)


def _k_above_rank():
    pair = synth_shift_pair(5, 3, classes=2, translation=1.0, seed=53)  # rank K = 3
    return pair, TlrHyperparams(alpha=1e-3, beta=1.0, k=8), None


class TestFitDegenerateInputs:
    @pytest.mark.parametrize(
        "make",
        [
            _identical_domains,
            _one_row_per_class,
            _rbf_bandwidth_near_zero,
            _identity_kernel_tied_spectrum,
            _k_above_rank,
        ],
    )
    def test_stationary_against_dense_oracle(self, make):
        pair, hyper, spec = make()
        n1, n2 = pair.source.n, pair.target.n
        model, _, _ = fit(pair, hyper, spec)
        kernel = build_joint_kernel(pair.source.features, pair.target.features, model.kernel)
        mats = build_AB(kernel, mmd_matrix(n1, n2), build_M(n1, n2, hyper.alpha, hyper.beta))
        assert model.W.shape == (n1 + n2, hyper.k)
        assert stationarity_residual(model, mats) <= 1e-8

    def test_identical_domains_have_no_gap(self):
        pair, _, _ = _identical_domains()
        kernel = build_joint_kernel(pair.source.features, pair.target.features)
        u = kernel.K @ mmd_vector(pair.source.n, pair.target.n)
        assert np.linalg.norm(u) <= 1e-14 * np.linalg.norm(kernel.K)

    def test_tiny_bandwidth_gives_identity_kernel(self):
        pair, _, spec = _rbf_bandwidth_near_zero()
        kernel = build_joint_kernel(pair.source.features, pair.target.features, spec)
        assert np.array_equal(kernel.K, np.eye(kernel.K.shape[0]))

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in:RuntimeWarning")
    def test_overflowing_linear_kernel_rejected(self):
        # at 1e160, x @ x.T overflows to inf; at 1e100, K is finite but u.T u
        # is not; at 1e77, identical domains give u = 0, so G = K and G.T G
        # overflows. The grid factors d=2 < n=12 features through X.T X and
        # d=20 >= n through K, and fit takes the range and the dense route
        grid = GridSpec(alphas=(1.0,), betas=(1.0,), ks=(1,))
        for scale, identical, expected in [
            (1e160, False, "kernel matrix has non-finite entries"),
            (1e100, False, "overflow: the gap vector u = K e is non-finite"),
            (1e77, True, "overflow: the whitened matrix is non-finite"),
        ]:
            for d in (2, 20):
                pair = _scaled_pair(synth_shift_pair(3, d, classes=2, seed=0), scale, identical)
                with pytest.raises(ValueError, match=expected):
                    fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=1))
                with pytest.raises(ValueError, match=expected):
                    grid_search(pair, grid=grid)

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in:RuntimeWarning")
    @pytest.mark.parametrize("d, expected", [(2, 1 / 6), (20, 1.0)], ids=["range", "dense"])
    def test_large_linear_kernel_solved(self, d, expected):
        # at 1e60 K and the whitened factor are finite, though D H C H D
        # formed from C = K diag(M) K would overflow: grid equals fit + 1-NN
        pair = _scaled_pair(synth_shift_pair(3, d, classes=2, seed=0), 1e60)
        report = grid_search(pair, grid=GridSpec(alphas=(1.0,), betas=(1.0,), ks=(1,)))
        _, latent_s, latent_t = fit(pair, TlrHyperparams(alpha=1.0, beta=1.0, k=1))
        predicted = knn1_predict(latent_s, pair.source.labels, latent_t).predicted
        assert report.records[0].accuracies == (accuracy(predicted, pair.target.labels),)
        assert report.records[0].accuracies[0] == pytest.approx(expected)

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in:RuntimeWarning")
    @pytest.mark.parametrize("d, route", [(2, "range_factor"), (20, "build_joint_kernel")])
    def test_overflowing_linear_fit_names_the_kernel(self, monkeypatch, d, route):
        # n = 12: d=2 <= n/2 forms X.T X in range_factor, d=20 > n/2 forms K in JointKernel;
        # either way the one finiteness scan is require_symmetric's, with the same advice
        calls = []
        original = getattr(tlr, route)

        def spy(*args, **kwargs):
            calls.append(route)
            return original(*args, **kwargs)

        monkeypatch.setattr(tlr, route, spy)
        pair = synth_shift_pair(3, d, classes=2, seed=0)
        scaled = DomainPair(
            LabeledMatrix(pair.source.features * 1e160, pair.source.labels),
            LabeledMatrix(pair.target.features * 1e160, pair.target.labels),
        )
        expected = "^kernel matrix has non-finite entries; check the feature scale and bandwidth$"
        with pytest.raises(ValueError, match=expected):
            fit(scaled, TlrHyperparams(alpha=1.0, beta=1.0, k=1))
        assert calls == [route]

    def test_overflowing_rbf_distances_rejected(self):
        # the median heuristic must name the overflowing distances, not the
        # infinite bandwidth it would otherwise hand to KernelSpec
        pair = synth_shift_pair(3, 2, classes=2, seed=0)
        scaled = DomainPair(
            LabeledMatrix(pair.source.features * 1e160, pair.source.labels),
            LabeledMatrix(pair.target.features * 1e160, pair.target.labels),
        )
        with pytest.raises(ValueError, match="distance overflows; standardize the features"):
            fit(scaled, TlrHyperparams(alpha=1.0, beta=1.0, k=1), KernelSpec("rbf"))

    def test_null_space_columns_get_zero_eigenvalue(self):
        pair, hyper, spec = _k_above_rank()
        model, latent_s, latent_t = fit(pair, hyper, spec)
        top = model.eigenvalues[0]
        assert np.all(model.eigenvalues[:3] > 1e-6 * top)
        assert np.all(np.abs(model.eigenvalues[3:]) <= 1e-12 * top)
        latent = np.vstack([latent_s, latent_t])
        assert np.max(np.abs(latent[:, 3:])) <= 1e-10 * np.max(np.abs(latent[:, :3]))


class TestFitOnRangeFactor:
    """A linear fit over d <= n/2 features solves on tlr.range_factor, without K."""

    def test_range_route_stops_at_half_the_rows(self, monkeypatch):
        # the range route's two eighs are of order d; the K route's Lanczos needs none
        orders, lanczos = [], []
        eigh, original = tlr.eigh, tlr.lanczos_basis
        monkeypatch.setattr(tlr, "eigh", lambda a, **kw: orders.append(a.shape[0]) or eigh(a, **kw))
        monkeypatch.setattr(tlr, "lanczos_basis", lambda *a: lanczos.append(a) or original(*a))
        hyper = TlrHyperparams(alpha=1e-3, beta=1e-2, k=5)
        for d in (120, 121):  # n = 240, k = 5 < n/16
            fit(synth_shift_pair(40, d, classes=3, translation=1.0, seed=61), hyper)
        assert orders == [120, 120]
        assert len(lanczos) == 1

    def test_no_lanczos_and_no_square(self, monkeypatch):
        def refusing(*args, **kwargs):
            raise AssertionError("lanczos_basis called")

        monkeypatch.setattr(tlr, "lanczos_basis", refusing)
        pair = synth_shift_pair(150, 20, classes=4, rotation_deg=60.0, translation=1.0, seed=8)
        n = pair.source.n + pair.target.n  # 1200 rows, rank 20
        for k in (10, 40):  # k = 40 fills 20 columns from null(X.T)
            hyper = TlrHyperparams(alpha=1e-5, beta=1e-4, k=k)
            fit(pair, hyper)  # the first call loads what fit imports
            assert _traced_peak(lambda: fit(pair, hyper)) < n * n * 8 / 4

    def test_matches_dense_oracle(self):
        pair = synth_shift_pair(12, 4, classes=3, rotation_deg=25.0, translation=1.0, seed=9)
        n1, n2 = pair.source.n, pair.target.n
        hyper = TlrHyperparams(alpha=0.3, beta=1.7, k=4)
        model, latent_s, latent_t = fit(pair, hyper)
        kernel = build_joint_kernel(pair.source.features, pair.target.features)
        mats = build_AB(kernel, mmd_matrix(n1, n2), build_M(n1, n2, hyper.alpha, hyper.beta))
        values, basis = eigen_basis(mats.A, mats.B)
        assert np.max(np.abs(model.eigenvalues - values[:4])) <= 1e-12 * values[0]
        assert np.max(np.abs(model.W - basis[:, :4])) <= 1e-10 * np.max(np.abs(basis[:, :4]))
        assert np.allclose(np.vstack([latent_s, latent_t]), kernel.K @ model.W, atol=1e-10)

    def test_widths_above_rank_fill_the_null_space(self):
        pair, hyper, spec = _k_above_rank()  # rank 3, k = 8
        model, latent_s, latent_t = fit(pair, hyper, spec)
        pooled = model.train_features
        extra = model.W[:, 3:]
        assert np.allclose(extra.T @ extra, np.eye(5), atol=1e-14)
        assert np.max(np.abs(pooled.T @ extra)) <= 1e-14 * np.max(np.abs(pooled))
        assert np.all(model.eigenvalues[3:] == 0.0)
        assert np.all(np.vstack([latent_s, latent_t])[:, 3:] == 0.0)
        heads = np.argmax(np.abs(model.W), axis=0)
        assert np.all(model.W[heads, np.arange(8)] > 0)

    def test_zero_features_have_no_range(self):
        # X = 0 has no range to restrict to, so fit forms K = 0 instead
        zeros = LabeledMatrix(np.zeros((6, 2)), np.repeat([0, 1], 3))
        model, _, _ = fit(DomainPair(zeros, zeros), TlrHyperparams(alpha=1.0, beta=1.0, k=2))
        assert np.isfinite(model.W).all()
        assert np.all(model.eigenvalues == 0.0)


def _dense_fit(monkeypatch, pair, hyper, spec=None):
    """fit pinned to the dense path: pencil_blocks plus leading_basis."""
    with monkeypatch.context() as patch:
        patch.setattr(tlr, "_LANCZOS_SHARE", 0.0)
        return fit(pair, hyper, spec)


def _lanczos_messages(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("Lanczos")]


def _constant_columns(d):
    """2 classes x 40 rows per domain, every column constant, so z-scoring makes K = 0."""
    labels = np.repeat([0, 1], 40)
    return standardize_pair(DomainPair(
        LabeledMatrix(np.full((80, d), 3.0), labels), LabeledMatrix(np.full((80, d), 7.0), labels)
    ))


def _underflowing_features():
    """Features scaled by 1e-200: X.T X and K underflow to 0."""
    pair = synth_shift_pair(40, 5, classes=2, seed=3)
    return DomainPair(
        LabeledMatrix(pair.source.features * 1e-200, pair.source.labels),
        LabeledMatrix(pair.target.features * 1e-200, pair.target.labels),
    )


class TestLanczosPath:
    # n = 240 and k = 5 < n/16, so fit solves by Lanczos; a linear kernel
    # needs d > n/2 features to reach it, as d <= n/2 solves on the range factor
    PAIR = synth_shift_pair(40, 5, classes=3, rotation_deg=30.0, translation=1.0, seed=60)
    WIDE_PAIR = synth_shift_pair(40, 240, classes=3, rotation_deg=30.0, translation=1.0, seed=60)
    HYPER = TlrHyperparams(alpha=1e-3, beta=1e-2, k=5)

    @pytest.mark.parametrize("spec", [None, KernelSpec("rbf")])
    def test_matches_dense_path(self, monkeypatch, caplog, spec):
        pair, hyper = self.WIDE_PAIR if spec is None else self.PAIR, self.HYPER
        assert hyper.k < tlr._LANCZOS_SHARE * (pair.source.n + pair.target.n)
        with caplog.at_level(logging.DEBUG, logger="tlradapt.tlr"):
            model, latent_s, latent_t = fit(pair, hyper, spec)
        [message] = _lanczos_messages(caplog)
        assert message.startswith("Lanczos at order 240, k 5: ") and "falling back" not in message
        dense, dense_s, dense_t = _dense_fit(monkeypatch, pair, hyper, spec)
        assert np.max(np.abs(model.W - dense.W)) <= 1e-10 * np.max(np.abs(dense.W))
        assert np.max(np.abs(model.eigenvalues - dense.eigenvalues) / dense.eigenvalues) <= 1e-12
        labels = pair.source.labels
        assert np.array_equal(
            knn1_predict(latent_s, labels, latent_t).predicted,
            knn1_predict(dense_s, labels, dense_t).predicted,
        )

    def test_deterministic(self):
        first, _, _ = fit(self.PAIR, self.HYPER, KernelSpec("rbf"))
        again, _, _ = fit(self.PAIR, self.HYPER, KernelSpec("rbf"))
        assert np.array_equal(first.W, again.W)
        assert np.array_equal(first.eigenvalues, again.eigenvalues)

    def test_solves_pencil_orthonormal_and_oriented(self):
        kernel = build_joint_kernel(self.PAIR.source.features, self.PAIR.target.features)
        n1, n2 = self.PAIR.source.n, self.PAIR.target.n
        C = (kernel.K * build_M(n1, n2, 0.5, 2.0)) @ kernel.K
        u = kernel.K @ mmd_vector(n1, n2)
        shifted = np.eye(n1 + n2) + np.outer(u, u)
        values, basis = lanczos_basis(kernel.K, build_M(n1, n2, 0.5, 2.0), u, 4)
        lhs = C @ basis
        assert np.max(np.abs(lhs - (shifted @ basis) * values)) <= 1e-10 * np.max(np.abs(lhs))
        assert np.allclose(basis.T @ shifted @ basis, np.eye(4), atol=1e-10)
        assert np.all(np.diff(values) < 0)
        heads = np.argmax(np.abs(basis), axis=0)
        assert np.all(basis[heads, np.arange(4)] > 0)

    def test_identity_kernel_tie_falls_back(self, monkeypatch, caplog):
        # K = I ties every eigenvalue at beta; Lanczos would return an
        # arbitrary basis of the tied space, so fit takes the dense one
        pair = synth_shift_pair(10, 3, classes=2, translation=1.0, seed=0)  # n = 40
        hyper = TlrHyperparams(alpha=0.5, beta=2.0, k=2)
        spec = KernelSpec("rbf", bandwidth=1e-6)
        with caplog.at_level(logging.DEBUG, logger="tlradapt.tlr"):
            model, _, _ = fit(pair, hyper, spec)
        [message] = _lanczos_messages(caplog)
        assert message.endswith("falling back to the dense solve on a tie at eigenvalue 2")
        assert "dense solve at order 40, k 2" in caplog.messages
        dense, _, _ = _dense_fit(monkeypatch, pair, hyper, spec)
        assert np.array_equal(model.W, dense.W)
        assert np.array_equal(model.eigenvalues, dense.eigenvalues)

    def test_large_residual_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr(tlr, "_LANCZOS_ROUNDING", 0.0)
        with caplog.at_level(logging.DEBUG, logger="tlradapt.tlr"):
            model, _, _ = fit(self.WIDE_PAIR, self.HYPER)
        [message] = _lanczos_messages(caplog)
        assert message.endswith("falling back to the dense solve on a residual above 0e+00")
        dense, _, _ = _dense_fit(monkeypatch, self.WIDE_PAIR, self.HYPER)
        assert np.array_equal(model.W, dense.W)

    def test_no_convergence_falls_back(self, monkeypatch, caplog):
        def failing(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr("scipy.sparse.linalg.eigsh", failing)
        with caplog.at_level(logging.DEBUG, logger="tlradapt.tlr"):
            model, _, _ = fit(self.WIDE_PAIR, self.HYPER)
        [message] = _lanczos_messages(caplog)
        assert message == "Lanczos at order 240, k 5: ARPACK declined after 0 operator products"
        dense, _, _ = _dense_fit(monkeypatch, self.WIDE_PAIR, self.HYPER)
        assert np.array_equal(model.W, dense.W)

    def test_readme_states_share(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        denominator = 1 / tlr._LANCZOS_SHARE
        assert denominator == int(denominator)
        assert f"latent width k is below n/{int(denominator)}," in readme.replace("\n", " ")

    @pytest.mark.parametrize(
        "pair",
        [_constant_columns(5), _constant_columns(200), _underflowing_features()],
        ids=["constant-d5", "constant-d200", "underflow"],
    )
    def test_zero_kernel_falls_back(self, monkeypatch, pair):
        # K = 0, so ARPACK's start vector vanishes after the first products
        hyper = TlrHyperparams(alpha=1e-3, beta=1e-2, k=2)
        assert hyper.k < tlr._LANCZOS_SHARE * (pair.source.n + pair.target.n)
        model, latent_s, latent_t = fit(pair, hyper)
        dense, dense_s, dense_t = _dense_fit(monkeypatch, pair, hyper)
        for got, want in [
            (model.W, dense.W), (model.eigenvalues, dense.eigenvalues),
            (latent_s, dense_s), (latent_t, dense_t),
        ]:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in:RuntimeWarning")
    @pytest.mark.parametrize(
        "scale, names",
        [(1e80, "the gap vector"), (1e60, "a whitened operator product")],
        ids=["gap", "product"],
    )
    def test_overflow_rejected(self, scale, names):
        # at 1e80 u.T u overflows; at 1e60 u is finite but K (m * (K x)) is not
        pair = synth_shift_pair(10, 40, classes=2, seed=0)  # n = d = 40, k = 1 < n/16
        scaled = DomainPair(
            LabeledMatrix(pair.source.features * scale, pair.source.labels),
            LabeledMatrix(pair.target.features * scale, pair.target.labels),
        )
        with pytest.raises(ValueError, match=f"overflow: {names} .*non-finite"):
            fit(scaled, TlrHyperparams(alpha=1.0, beta=1.0, k=1))

    def test_rank_one_pencil_with_large_gap_vector(self):
        # u.T u = 1e20 lies beyond 1/eps; the pair along u is
        # kappa_0^2 / (1 + u.T u) with basis e_0 / sqrt(1 + u.T u)
        n = 40
        kappa = np.concatenate([[1e12], np.linspace(1.0, 2.0, n - 1)])
        for gap in (1e10, -1e10):
            u = np.zeros(n)
            u[0] = gap
            values, basis = lanczos_basis(np.diag(kappa), np.ones(n), u, 1)
            assert values[0] == pytest.approx(1e24 / (1 + 1e20), rel=1e-14)
            assert basis[0, 0] == pytest.approx(1 / np.sqrt(1 + 1e20), rel=1e-14)
            assert np.max(np.abs(basis[1:])) <= 1e-14

    def test_zero_vector_is_plain_eigh(self):
        rng = np.random.default_rng(61)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        K = (q * np.linspace(1.0, 3.0, 40)) @ q.T
        K = 0.5 * (K + K.T)
        m = rng.uniform(0.5, 2.0, 40)
        values, basis = lanczos_basis(K, m, np.zeros(40), 3)
        expected_values, expected_basis = eigen_basis((K * m) @ K, np.zeros((40, 40)))
        assert np.max(np.abs(values - expected_values[:3])) <= 1e-12 * expected_values[0]
        assert np.max(np.abs(basis - expected_basis[:, :3])) <= 1e-10

    @settings(deadline=None)
    @given(
        n=st.integers(20, 60),
        data=st.data(),
        kind=st.sampled_from(("linear", "rbf")),
        scale=st.sampled_from((1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_leading_basis(self, n, data, kind, scale, seed):
        d = data.draw(st.integers(2, 8), label="d")
        n1 = data.draw(st.integers(2, n - 2), label="n1")
        k = data.draw(st.integers(1, 3), label="k")
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, d)) * scale
        features[n1:] += rng.uniform(0.0, 2.0) * scale
        alpha, beta = (float(v) for v in 10.0 ** rng.uniform(-3.0, 0.0, 2))
        K = build_joint_kernel(features[:n1], features[n1:], KernelSpec(kind)).K
        u = K @ mmd_vector(n1, n - n1)
        solved = lanczos_basis(K, build_M(n1, n - n1, alpha, beta), u, k)
        if solved is None:
            return
        C = alpha * (K[:n1].T @ K[:n1]) + beta * (K[n1:].T @ K[n1:])
        dense = whitened_basis(K, n1, alpha, beta, k)
        top = float(dense[0][0])
        assert np.max(np.abs(solved[0] - dense[0])) <= 1e-10 * top
        # checked in whitened coordinates y = (I + u u.T)^1/2 b, where the
        # rounding of a basis column b grows by up to root = |(I + u u.T)^1/2|
        s = float(u @ u)
        root = math.sqrt(1.0 + s)
        q = u / math.sqrt(s)
        for values, basis in (solved, dense):
            y = basis + (root - 1.0) * np.outer(q, q @ basis)
            Cb = C @ basis
            whitened = Cb - (s / (root * (1.0 + root))) * np.outer(q, q @ Cb)
            residual = np.max(np.linalg.norm(whitened - y * values, axis=0))
            assert residual <= 1e-10 * top * root
            assert np.max(np.abs(y.T @ y - np.eye(k))) <= 1e-10 * root

    def test_bad_arguments_rejected(self):
        K, m, u = np.eye(5), np.ones(5), np.zeros(5)
        with pytest.raises(ValueError, match=r"k must lie in \[1, 3\]"):
            lanczos_basis(K, m, u, 4)
        with pytest.raises(ValueError, match="square"):
            lanczos_basis(K, np.ones(4), u, 1)


class TestModelRoundTrip:
    def fitted(self, spec=None):
        pair = synth_shift_pair(7, 3, classes=2, translation=0.5, seed=8)
        return fit(pair, TlrHyperparams(alpha=0.2, beta=1.5, k=3), spec)[0]

    def test_bit_exact_arrays(self, tmp_path):
        model = self.fitted()
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.W.tobytes() == model.W.tobytes()
        assert loaded.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        assert loaded.train_features.tobytes() == model.train_features.tobytes()
        assert loaded.hyper == model.hyper
        assert loaded.kernel == model.kernel
        assert loaded.n_source == model.n_source

    def test_bandwidth_survives(self, tmp_path):
        model = self.fitted(KernelSpec(kind="rbf", bandwidth=1.75))
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert load_model(path).kernel == KernelSpec(kind="rbf", bandwidth=1.75)

    def test_embed_after_reload(self, tmp_path):
        model = self.fitted()
        path = tmp_path / "model.bin"
        save_model(model, path)
        probe = np.random.default_rng(9).standard_normal((4, model.train_features.shape[1]))
        assert np.array_equal(load_model(path).embed(probe), model.embed(probe))

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "model.bin"
        with open(path, "wb") as handle:
            np.savez(handle, format_tag=np.array("something-else"))
        with pytest.raises(ValueError, match=r"model\.bin: unsupported model format"):
            load_model(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(self.fitted(), path)
        with np.load(path) as data:
            fields = {name: data[name] for name in data.files if name != "kernel_bandwidth"}
        with open(path, "wb") as handle:
            np.savez(handle, **fields)
        with pytest.raises(ValueError, match="model.bin.*'kernel_bandwidth'"):
            load_model(path)

    def test_text_file_named(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="model.csv is not a model file"):
            load_model(path)

    def test_non_finite_field_rejected(self, tmp_path):
        # the error names the file as well as the field
        path = tmp_path / "model.bin"
        save_model(self.fitted(), path)
        with np.load(path) as data:
            saved = {name: data[name] for name in data.files}
        for name, expected in [
            ("W", "W has non-finite entries"),
            ("eigenvalues", "eigenvalues has non-finite entries"),
            ("train_features", "train_features has non-finite entries"),
            ("alpha", "alpha must be a positive finite real, got nan"),
        ]:
            fields = {key: value.copy() for key, value in saved.items()}
            fields[name].flat[0] = np.nan
            with open(path, "wb") as handle:
                np.savez(handle, **fields)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {expected}$"):
                load_model(path)

    @pytest.mark.parametrize(
        "changes, reason",
        [
            ({"alpha": np.array([1.0, 2.0])}, "only 0-dimensional arrays can be converted"),
            ({"k": np.array([2, 3])}, "k must be an integer >= 1, got [2 3]"),
            ({"kernel_bandwidth": np.array([1.0, 2.0])}, "only 0-dimensional arrays"),
            ({"kernel_bandwidth": np.array("wide")}, "could not convert string to float: 'wide'"),
            ({"W": np.array([object()] * 4)}, "Object arrays cannot be loaded"),
            ({"k": np.float64(2.5)}, "k must be an integer >= 1, got 2.5"),
            ({"n_source": np.float64(2.7)}, "n_source must split the training rows, got 2.7"),
            ({"eigenvalues": np.zeros(2)}, "one eigenvalue per latent column is required"),
            ({"train_features": np.zeros((13, 3))}, "training features must have one row per"),
        ],
        ids=[
            "array-alpha", "array-k", "array-bandwidth", "string-bandwidth", "object-W",
            "fractional-k", "fractional-n_source", "short-eigenvalues", "short-train",
        ],
    )
    def test_malformed_field_named(self, tmp_path, changes, reason):
        path = tmp_path / "model.bin"
        save_model(self.fitted(), path)
        with np.load(path) as data:
            fields = {name: data[name] for name in data.files}
        with open(path, "wb") as handle:
            np.savez(handle, allow_pickle=True, **{**fields, **changes})
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(reason)}"):
            load_model(path)

    @pytest.mark.parametrize("damage", ["truncated", "flipped-byte", "npy"])
    def test_corrupt_file_named(self, tmp_path, damage):
        model = self.fitted()
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(raw[: len(raw) // 2])
            reason = " is not a model file written by save_model"
        elif damage == "flipped-byte":
            # a flipped byte of W's stored data fails its member's CRC-32 as it is read
            at = raw.index(model.W.tobytes())
            path.write_bytes(raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:])
            reason = ": Bad CRC-32 for file 'W.npy'"
        else:
            path = tmp_path / "model.npy"
            np.save(path, np.zeros(3))
            reason = " is not a model file written by save_model"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}{re.escape(reason)}"):
            load_model(path)

    def test_embed_rejects_non_finite_rows(self):
        model = self.fitted()
        probe = np.zeros((2, model.train_features.shape[1]))
        probe[1, 0] = np.nan
        with pytest.raises(ValueError, match="features have non-finite entries"):
            model.embed(probe)


class TestModelValidation:
    def test_column_count_must_match_k(self):
        with pytest.raises(ValueError, match="k=2 columns"):
            TlrModel(
                W=np.zeros((4, 3)),
                eigenvalues=np.zeros(2),
                hyper=TlrHyperparams(alpha=1.0, beta=1.0, k=2),
                kernel=KernelSpec(),
                train_features=np.zeros((4, 2)),
                n_source=2,
            )

    def test_n_source_must_split_rows(self):
        with pytest.raises(ValueError, match="n_source"):
            TlrModel(
                W=np.zeros((4, 2)),
                eigenvalues=np.zeros(2),
                hyper=TlrHyperparams(alpha=1.0, beta=1.0, k=2),
                kernel=KernelSpec(),
                train_features=np.zeros((4, 2)),
                n_source=4,
            )

    @pytest.mark.parametrize("n_source", [2.5, True, np.True_, "2"], ids=repr)
    def test_n_source_must_be_integral(self, n_source):
        with pytest.raises(ValueError, match=f"n_source must split the training rows, got {n_source}"):
            TlrModel(
                W=np.zeros((4, 2)),
                eigenvalues=np.zeros(2),
                hyper=TlrHyperparams(alpha=1.0, beta=1.0, k=2),
                kernel=KernelSpec(),
                train_features=np.zeros((4, 2)),
                n_source=n_source,
            )

    @pytest.mark.parametrize("name", ["W", "eigenvalues", "train_features"])
    def test_non_finite_arrays_rejected(self, name):
        arrays = dict(W=np.zeros((4, 2)), eigenvalues=np.zeros(2), train_features=np.zeros((4, 2)))
        arrays[name][-1] = np.inf
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            TlrModel(
                **arrays, hyper=TlrHyperparams(alpha=1.0, beta=1.0, k=2), kernel=KernelSpec(),
                n_source=2,
            )
