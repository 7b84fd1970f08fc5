import numpy as np
import pytest

from tlradapt.kernels import JointKernel, KernelSpec, build_joint_kernel
from tlradapt.mmd import MmdMatrix, mmd_latent, mmd_matrix, mmd_trace, mmd_vector


def random_joint_kernel(rng, n1, n2):
    """Random PSD kernel wrapped as a JointKernel, for structural tests."""
    root = rng.standard_normal((n1 + n2, n1 + n2))
    return JointKernel(K=root @ root.T, n1=n1, n2=n2, spec=KernelSpec())


def coefficient_vector(n1, n2):
    return np.concatenate([np.full(n1, 1.0 / n1), np.full(n2, -1.0 / n2)])


class TestMmdMatrix:
    def test_one_one_block_values(self):
        out = mmd_matrix(1, 1)
        assert np.array_equal(out.L, [[1.0, -1.0], [-1.0, 1.0]])

    def test_two_one_block_values(self):
        out = mmd_matrix(2, 1)
        expected = np.array([
            [0.25, 0.25, -0.5],
            [0.25, 0.25, -0.5],
            [-0.5, -0.5, 1.0],
        ])
        assert np.array_equal(out.L, expected)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError, match=">= 1"):
            mmd_matrix(0, 3)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n1, n2 = rng.integers(1, 13, size=2)
            out = mmd_matrix(int(n1), int(n2))
            assert np.max(np.abs(out.L.sum(axis=1))) <= 1e-12

    def test_rank_one(self):
        singular = np.linalg.svd(mmd_matrix(5, 8).L, compute_uv=False)
        assert singular[1] <= 1e-12 * singular[0]

    def test_outer_product_oracle(self):
        # the matrix is the outer product of the signed mean-weight vector,
        # which mmd_vector returns for the solvers
        for n1, n2 in [(1, 1), (3, 2), (7, 11)]:
            v = coefficient_vector(n1, n2)
            assert np.array_equal(mmd_vector(n1, n2), v)
            assert np.allclose(mmd_matrix(n1, n2).L, np.outer(v, v), atol=1e-15)
        with pytest.raises(ValueError, match=">= 1"):
            mmd_vector(2, 0)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n1, n2 = rng.integers(1, 10, size=2)
            eigenvalues = np.linalg.eigvalsh(mmd_matrix(int(n1), int(n2)).L)
            assert eigenvalues[0] >= -1e-12

    def test_read_only(self):
        out = mmd_matrix(2, 2)
        with pytest.raises(ValueError):
            out.L[0, 0] = 3.0


class TestMmdTrace:
    def test_identity_kernel_single_samples(self):
        joint = JointKernel(K=np.eye(2), n1=1, n2=1, spec=KernelSpec())
        assert mmd_trace(joint, mmd_matrix(1, 1)) == 2.0

    def test_identical_domains_vanish(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 4))
        for spec in (KernelSpec(), KernelSpec(kind="rbf", bandwidth=1.0)):
            joint = build_joint_kernel(x, x, spec)
            assert mmd_trace(joint, mmd_matrix(9, 9)) <= 1e-10

    def test_rank_one_identity_oracle(self):
        # trace of K L equals the quadratic form of K at the weight vector
        rng = np.random.default_rng(3)
        for _ in range(20):
            n1, n2 = (int(v) for v in rng.integers(2, 12, size=2))
            joint = random_joint_kernel(rng, n1, n2)
            v = coefficient_vector(n1, n2)
            expected = float(v @ joint.K @ v)
            got = mmd_trace(joint, mmd_matrix(n1, n2))
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_non_psd_kernel_rejected(self):
        # symmetric but indefinite: the trace form goes genuinely negative
        joint = JointKernel(K=np.array([[0.0, 1.0], [1.0, 0.0]]), n1=1, n2=1,
                            spec=KernelSpec())
        with pytest.raises(ValueError, match="not positive semidefinite"):
            mmd_trace(joint, mmd_matrix(1, 1))

    def test_block_size_mismatch_rejected(self):
        joint = JointKernel(K=np.eye(4), n1=2, n2=2, spec=KernelSpec())
        with pytest.raises(ValueError, match="block sizes differ"):
            mmd_trace(joint, mmd_matrix(3, 1))

    def test_never_returns_negative(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        joint = build_joint_kernel(x, x)
        assert mmd_trace(joint, mmd_matrix(6, 6)) >= 0.0


class TestMmdLatent:
    def test_identical_blocks_vanish(self):
        p = np.random.default_rng(5).standard_normal((4, 3))
        assert mmd_latent(p, p) == 0.0

    def test_hand_computed_gap(self):
        # means (1, 0) and (0, 1): squared distance 2
        assert mmd_latent(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == 2.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(6)
        ps, pt = rng.standard_normal((5, 2)), rng.standard_normal((7, 2))
        base = mmd_latent(ps, pt)
        assert np.isclose(mmd_latent(3.0 * ps, 3.0 * pt), 9.0 * base, rtol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            mmd_latent(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_trace_bridge(self):
        # the latent mean gap equals the trace form through the kernel rows
        rng = np.random.default_rng(7)
        for _ in range(30):
            n1, n2 = (int(v) for v in rng.integers(2, 14, size=2))
            joint = random_joint_kernel(rng, n1, n2)
            coeff = mmd_matrix(n1, n2)
            W = rng.standard_normal((n1 + n2, 4))
            latent = mmd_latent(joint.h_source @ W, joint.h_target @ W)
            KW = joint.K @ W
            trace_form = float(np.sum(KW * (coeff.L @ KW)))
            assert abs(latent - trace_form) <= 1e-8 * max(1.0, abs(trace_form))
