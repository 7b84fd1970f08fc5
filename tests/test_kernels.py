import numpy as np
import pytest

from tlradapt.dataset import synth_shift_pair
from tlradapt.kernels import (
    BANDWIDTH_FLOOR,
    JointKernel,
    KernelSpec,
    build_joint_kernel,
    gram,
    median_bandwidth,
)


class TestKernelSpec:
    def test_defaults_linear(self):
        spec = KernelSpec()
        assert spec.kind == "linear" and spec.bandwidth is None

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            KernelSpec(kind="poly")

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec(kind="rbf", bandwidth=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec(kind="rbf", bandwidth=float("inf"))
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec(kind="rbf", bandwidth=1e-200)  # 2 * bandwidth**2 underflows to 0
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec(kind="rbf", bandwidth=1e200)  # bandwidth**2 overflows

    def test_resolved_fills_rbf_bandwidth(self):
        spec = KernelSpec(kind="rbf").resolved(np.zeros((2, 1)), np.ones((2, 1)))
        assert spec.bandwidth is not None and spec.bandwidth > 0

    def test_resolved_keeps_linear_untouched(self):
        spec = KernelSpec()
        assert spec.resolved(np.zeros((2, 1)), np.ones((2, 1))) is spec


class TestGram:
    def test_linear_single_pair(self):
        out = gram(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), KernelSpec())
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_linear_orthonormal_rows_give_identity(self):
        x = np.eye(3)
        assert np.array_equal(gram(x, x, KernelSpec()), np.eye(3))

    def test_rbf_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        out = gram(x, x, KernelSpec(kind="rbf", bandwidth=1.3))
        assert np.array_equal(np.diagonal(out), np.ones(6))

    def test_rbf_hand_value(self):
        # squared distance 25, bandwidth 5: exp(-25 / 50)
        x = np.array([[0.0, 0.0]])
        y = np.array([[3.0, 4.0]])
        out = gram(x, y, KernelSpec(kind="rbf", bandwidth=5.0))
        assert np.isclose(out[0, 0], np.exp(-0.5), rtol=0, atol=1e-15)

    def test_rbf_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        out = gram(rng.standard_normal((5, 2)), rng.standard_normal((7, 2)),
                   KernelSpec(kind="rbf", bandwidth=0.7))
        assert np.all(out > 0) and np.all(out <= 1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            gram(np.zeros((2, 3)), np.zeros((2, 4)), KernelSpec())

    def test_unresolved_rbf_rejected(self):
        with pytest.raises(ValueError, match="unresolved"):
            gram(np.zeros((2, 2)), np.zeros((2, 2)), KernelSpec(kind="rbf"))

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 4))
        for spec in (KernelSpec(), KernelSpec(kind="rbf", bandwidth=1.0)):
            K = gram(x, x, spec)
            K = 0.5 * (K + K.T)
            floor = -1e-8 * np.linalg.norm(K)
            assert np.linalg.eigvalsh(K)[0] >= floor


class TestMedianBandwidth:
    def test_two_points(self):
        value = median_bandwidth(np.array([[0.0]]), np.array([[2.0]]))
        assert value == 2.0

    def test_three_point_line(self):
        # pooled points 0, 1, 3: pairwise distances 1, 3, 2, median 2
        value = median_bandwidth(np.array([[0.0], [1.0]]), np.array([[3.0]]))
        assert value == 2.0

    def test_identical_points_floored(self):
        value = median_bandwidth(np.zeros((3, 2)), np.zeros((2, 2)))
        assert value == BANDWIDTH_FLOOR

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two pooled samples"):
            median_bandwidth(np.zeros((1, 2)), np.zeros((0, 2)))

    def test_overflowing_distances_rejected(self):
        # pairwise distances of features at 1e160 overflow to inf in pdist
        pair = synth_shift_pair(3, 2, classes=2)
        with pytest.raises(ValueError, match="distance overflows; standardize the features"):
            median_bandwidth(pair.source.features * 1e160, pair.target.features * 1e160)

    def test_large_pool_subsampled_deterministically(self):
        rng = np.random.default_rng(3)
        src = rng.standard_normal((900, 2))
        tgt = rng.standard_normal((700, 2))
        a = median_bandwidth(src, tgt)
        b = median_bandwidth(src, tgt)
        assert a == b and a > 0


class TestJointKernel:
    def test_single_sample_each(self):
        joint = build_joint_kernel(np.array([[1.0]]), np.array([[1.0]]))
        assert np.array_equal(joint.K, np.ones((2, 2)))

    def test_blocks_and_views(self):
        rng = np.random.default_rng(4)
        src, tgt = rng.standard_normal((3, 2)), rng.standard_normal((5, 2))
        joint = build_joint_kernel(src, tgt)
        assert joint.K.shape == (8, 8)
        assert joint.h_source.shape == (3, 8)
        assert joint.h_target.shape == (5, 8)
        # the embedding rows are views onto K, not copies
        assert joint.h_source.base is joint.K
        assert joint.h_target.base is joint.K

    def test_linear_kernel_equals_outer_product(self):
        rng = np.random.default_rng(5)
        src, tgt = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
        stacked = np.vstack([src, tgt])
        joint = build_joint_kernel(src, tgt)
        assert np.allclose(joint.K, stacked @ stacked.T, atol=1e-12)

    def test_orthonormal_pool_gives_identity(self):
        pool = np.eye(4)
        joint = build_joint_kernel(pool[:2], pool[2:])
        assert np.array_equal(joint.K, np.eye(4))

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(6)
        for spec in (KernelSpec(), KernelSpec(kind="rbf", bandwidth=0.8)):
            joint = build_joint_kernel(rng.standard_normal((6, 3)),
                                       rng.standard_normal((4, 3)), spec)
            assert np.array_equal(joint.K, joint.K.T)
            assert np.linalg.eigvalsh(joint.K)[0] >= -1e-8 * np.linalg.norm(joint.K)

    def test_identical_domains_have_equal_blocks(self):
        x = np.random.default_rng(7).standard_normal((5, 2))
        joint = build_joint_kernel(x, x)
        n = 5
        assert np.array_equal(joint.K[:n, :n], joint.K[:n, n:])
        assert np.array_equal(joint.K[:n, :n], joint.K[n:, n:])

    def test_rbf_resolves_median_bandwidth(self):
        rng = np.random.default_rng(8)
        src, tgt = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        joint = build_joint_kernel(src, tgt, KernelSpec(kind="rbf"))
        assert joint.spec.bandwidth == median_bandwidth(src, tgt)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            JointKernel(K=np.array([[0.0, 1.0], [0.0, 0.0]]), n1=1, n2=1, spec=KernelSpec())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        K = np.eye(2)
        K[0, 1] = K[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            JointKernel(K=K, n1=1, n2=1, spec=KernelSpec())

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            JointKernel(K=np.eye(2), n1=2, n2=1, spec=KernelSpec())

    def test_matrix_read_only(self):
        joint = build_joint_kernel(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            joint.K[0, 0] = 5.0
