import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from tlradapt import kernels
from tlradapt.dataset import synth_shift_pair
from tlradapt.kernels import (
    BANDWIDTH_FLOOR,
    KERNEL_KINDS,
    JointKernel,
    KernelSpec,
    build_joint_kernel,
    gram,
    median_bandwidth,
    require_symmetric,
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


def _rbf_reference(x, y, bandwidth):
    return np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * bandwidth**2))


class TestRbfInPlace:
    """gram evaluates the rbf kernel in cdist's buffer, bit-equal to the out-of-place form."""

    @settings(deadline=None)
    @given(
        shapes=st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 8)),
        log_bandwidth=st.floats(-3, 3),
        log_scale=st.floats(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_out_of_place(self, shapes, log_bandwidth, log_scale, seed):
        rows_x, rows_y, d = shapes
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows_x, d)) * 10.0**log_scale
        y = rng.standard_normal((rows_y, d)) * 10.0**log_scale
        bandwidth = 10.0**log_bandwidth
        out = gram(x, y, KernelSpec(kind="rbf", bandwidth=bandwidth))
        assert np.array_equal(out, _rbf_reference(x, y, bandwidth))

    @pytest.mark.parametrize("bandwidth", [1e-3, 0.05, 1e3])
    def test_bit_equal_where_entries_underflow(self, bandwidth):
        # squared distances to the first row of 2 a bandwidth^2 for a from
        # 700 to 750: exp(-a) is normal up to a = 708.4, subnormal up to
        # 745.1 and 0 beyond
        t = np.concatenate([[0.0], np.sqrt(2.0 * np.linspace(700.0, 750.0, 60))])
        x = np.column_stack([t, np.random.default_rng(3).uniform(0.0, 1.0, t.size)]) * bandwidth
        expected = _rbf_reference(x, x, bandwidth)
        assert (expected == 0).any() and (expected == 1).any()
        assert ((expected > 0) & (expected < np.finfo(float).tiny)).any()
        assert np.array_equal(gram(x, x, KernelSpec(kind="rbf", bandwidth=bandwidth)), expected)


class TestRequireSymmetric:
    @staticmethod
    def symmetric(n):
        X = np.random.default_rng(n).standard_normal((n, n))
        return X + X.T

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
    @pytest.mark.parametrize("corner", ["top right", "bottom left"])
    def test_asymmetry_at_block_edges(self, n, corner):
        X = self.symmetric(n)
        require_symmetric(X, "X")
        i, j = (0, n - 1) if corner == "top right" else (n - 1, 0)
        X[i, j] += 1.0
        if n == 1:
            require_symmetric(X, "X")  # a 1 x 1 matrix is always symmetric
        else:
            with pytest.raises(ValueError, match="^X is not symmetric$"):
                require_symmetric(X, "X")

    @pytest.mark.parametrize("n", [128, 129, 257])
    def test_every_off_diagonal_entry_checked(self, n):
        X = self.symmetric(n)
        rng = np.random.default_rng(n + 1)
        for i, j in rng.integers(0, n, (20, 2)):
            if i != j:
                Y = X.copy()
                Y[i, j] += 1.0
                with pytest.raises(ValueError, match="not symmetric"):
                    require_symmetric(Y, "Y")

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_tolerance_relative_to_largest_entry(self, scale):
        # 1e-10 * max(1, max |entry|): the gap on one entry may reach it, not exceed it
        X = self.symmetric(130) * scale
        tolerance = 1e-10 * max(1.0, float(np.max(np.abs(X))))
        X[129, 3] = X[3, 129] + 0.5 * tolerance
        require_symmetric(X, "X")
        X[129, 3] = X[3, 129] + 2.0 * tolerance
        with pytest.raises(ValueError, match="X is not symmetric"):
            require_symmetric(X, "X")


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        K = np.eye(2)
        K[0, 1] = K[1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            JointKernel(K=K, n1=1, n2=1, spec=KernelSpec())

    def test_one_finiteness_scan(self, monkeypatch):
        # require_symmetric's scan of K is the only one: it also serves as the finiteness check
        shapes = []
        original = kernels._largest_magnitude

        def counting(matrix):
            shapes.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(kernels, "_largest_magnitude", counting)
        rng = np.random.default_rng(9)
        build_joint_kernel(rng.standard_normal((4, 3)), rng.standard_normal((3, 3)))
        assert shapes == [(7, 7)]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            JointKernel(K=np.eye(2), n1=2, n2=1, spec=KernelSpec())

    def test_matrix_read_only(self):
        joint = build_joint_kernel(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            joint.K[0, 0] = 5.0

    def test_takes_ownership_of_float_array(self):
        K = np.eye(3)
        joint = JointKernel(K=K, n1=1, n2=2, spec=KernelSpec())
        assert np.shares_memory(joint.K, K)
        assert not K.flags.writeable

    def test_converts_other_input(self):
        K = np.eye(2, dtype=int)
        joint = JointKernel(K=K, n1=1, n2=1, spec=KernelSpec())
        assert joint.K.dtype == float and not np.shares_memory(joint.K, K)
        assert K.flags.writeable and not joint.K.flags.writeable
        listed = JointKernel(K=[[1.0, 0.0], [0.0, 1.0]], n1=1, n2=1, spec=KernelSpec())
        assert isinstance(listed.K, np.ndarray) and not listed.K.flags.writeable


def _assert_bitwise_symmetric_and_finite(source, target, kind):
    K = build_joint_kernel(source, target, KernelSpec(kind=kind)).K
    assert np.all(np.isfinite(K))
    assert np.array_equal(K, K.T)


@st.composite
def _domain_pairs(draw):
    d = draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.floats(-8, 8))
    elements = st.floats(-1, 1, allow_subnormal=False)
    source = draw(hnp.arrays(float, (draw(st.integers(1, 40)), d), elements=elements))
    target = draw(hnp.arrays(float, (draw(st.integers(1, 40)), d), elements=elements))
    return source * scale, target * scale


class TestJointKernelSymmetry:
    """gram is bitwise symmetric, so build_joint_kernel never symmetrizes K."""

    @settings(deadline=None)
    @given(pair=_domain_pairs(), kind=st.sampled_from(KERNEL_KINDS))
    def test_bitwise_symmetric_and_finite(self, pair, kind):
        _assert_bitwise_symmetric_and_finite(*pair, kind)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("n, d", [(1200, 20), (380, 800)])
    def test_above_blas_blocking_sizes(self, n, d, kind):
        x = np.random.default_rng(17).standard_normal((n, d))
        _assert_bitwise_symmetric_and_finite(x[: n // 2], x[n // 2 :], kind)
