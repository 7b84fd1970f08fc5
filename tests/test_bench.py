import logging
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from tlradapt import bench, tlr
from tlradapt.bench import (
    CSV_HEADER,
    ConfigResult,
    ExperimentReport,
    GridSpec,
    emit_report,
    grid_search,
    read_report_csv,
    relative_kernel_gap,
    relative_latent_gap,
    run_protocol_ixmas_style,
)
from tlradapt.classify import knn1_predict, accuracy
from tlradapt.dataset import DomainPair, LabeledMatrix, standardize_pair, synth_shift_pair
from tlradapt.kernels import JointKernel, KernelSpec, build_joint_kernel
from tlradapt.tlr import TlrHyperparams, fit


def small_pair(seed=0, n_per_class=8, classes=3, d=5):
    return synth_shift_pair(
        n_per_class, d, classes=classes, rotation_deg=20.0, translation=0.5,
        noise_std=0.6, seed=seed,
    )


SMALL_GRID = GridSpec(alphas=(0.01, 1.0), betas=(0.1, 1.0), ks=(2, 5, 9))


class TestGridSpec:
    def test_default_axes(self):
        grid = GridSpec.default()
        assert grid.alphas == tuple(10.0**e for e in range(-5, 1))
        assert grid.betas == grid.alphas
        assert grid.ks == tuple(range(10, 201, 10))
        assert len(grid.configurations()) == 720

    def test_enumeration_order(self):
        grid = GridSpec(alphas=(1.0, 2.0), betas=(3.0,), ks=(4, 5))
        assert grid.configurations() == [
            (1.0, 3.0, 4), (1.0, 3.0, 5), (2.0, 3.0, 4), (2.0, 3.0, 5),
        ]

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="non-empty"):
            GridSpec(alphas=(), betas=(1.0,), ks=(1,))

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError, match="positive finite"):
            GridSpec(alphas=(0.0,), betas=(1.0,), ks=(1,))

    def test_rejects_overflowing_ratio(self):
        # the grid solves S + (beta/alpha) T once per ratio
        with pytest.raises(ValueError, match=r"^beta/alpha overflows at beta=1e\+200 and alpha=1e-200$"):
            GridSpec(alphas=(1e-200, 1.0), betas=(1.0, 1e200), ks=(2,))
        assert GridSpec(alphas=(1e-100,), betas=(1e200,), ks=(2,)).betas == (1e200,)

    def test_rejects_bad_k(self):
        for k in (0, 2.5, np.inf, np.nan, True, np.True_, "3", None):
            with pytest.raises(ValueError, match=">= 1"):
                GridSpec(alphas=(1.0,), betas=(1.0,), ks=(k,))

    def test_rejects_repeated_values(self):
        for axes in (
            dict(alphas=(1.0, 1.0), betas=(1.0,), ks=(1,)),
            dict(alphas=(1.0,), betas=(0.1, 1.0, 0.1), ks=(1,)),
            dict(alphas=(1.0,), betas=(1.0,), ks=(10, 10.0)),
        ):
            with pytest.raises(ValueError, match="repeat a value"):
                GridSpec(**axes)

    def test_coerces_to_tuples(self):
        grid = GridSpec(alphas=[1], betas=[2], ks=[3])
        assert grid.alphas == (1.0,) and grid.betas == (2.0,) and grid.ks == (3,)


class TestGridSearch:
    def assert_matches_fit(self, kernel):
        # the grouped range-space path must agree with fitting each
        # configuration independently and scoring its latents directly,
        # also when source row 1 duplicates row 0 under another label: an
        # exact 1-NN tie that both paths must give to the lower row index
        base = small_pair(seed=1)
        features = np.array(base.source.features)
        labels = np.array(base.source.labels)
        features[1] = features[0]
        labels[1] = (labels[0] + 1) % 3
        duplicated = DomainPair(LabeledMatrix(features, labels), base.target)
        # one row per class, and a constant column in each domain, which
        # per-domain z-scoring divides by the floored standard deviation
        single = small_pair(seed=2, n_per_class=1, classes=5)
        source = np.array(base.source.features)
        target = np.array(base.target.features)
        source[:, 0] = 3.0
        target[:, 0] = -1.5
        constant = standardize_pair(
            DomainPair(
                LabeledMatrix(source, base.source.labels),
                LabeledMatrix(target, base.target.labels),
            ),
            "per-domain",
        )
        for pair in (base, duplicated, single, constant):
            report = grid_search(pair, SMALL_GRID, kernel=kernel, pair_id="ref")
            assert len(report.records) == len(SMALL_GRID.configurations())
            for record in report.records:
                hyper = TlrHyperparams(alpha=record.alpha, beta=record.beta, k=record.k)
                _, latent_s, latent_t = fit(pair, hyper, kernel)
                predicted = knn1_predict(latent_s, pair.source.labels, latent_t).predicted
                expected = accuracy(predicted, pair.target.labels)
                assert record.accuracies == (expected,)

    def test_matches_per_config_reference(self):
        # linear kernel of rank d = 5, so width 9 lies above the rank
        self.assert_matches_fit(KernelSpec())

    def test_matches_per_config_reference_rbf(self):
        self.assert_matches_fit(KernelSpec("rbf"))

    def test_one_solve_per_distinct_ratio(self, monkeypatch):
        # the default grid's 36 weight pairs hold 11 distinct beta/alpha
        # ratios; float division alone splits them into 13 groups
        calls = []
        solver = bench.leading_basis

        def counting(C, k):
            calls.append(k)
            return solver(C, k)

        monkeypatch.setattr(bench, "leading_basis", counting)
        grid = GridSpec.default()
        assert len({b / a for a, b, _ in grid.configurations()}) == 13
        grid_search(small_pair(seed=17), grid)
        assert len(calls) == 11

    def test_basis_width_on_tied_spectrum(self, monkeypatch):
        # bandwidth 1e-6 makes K = I, whose whitened spectrum is tied at the
        # top; the solver must still hand back k columns to score
        widths = []
        solver = bench.leading_basis

        def recording(C, k):
            values, basis = solver(C, k)
            widths.append((k, basis.shape[1]))
            return values, basis

        monkeypatch.setattr(bench, "leading_basis", recording)
        pair = synth_shift_pair(4, 3, classes=2, translation=1.0, seed=0)
        grid = GridSpec(alphas=(1.0,), betas=(1.0,), ks=(1,))
        grid_search(pair, grid, kernel=KernelSpec("rbf", bandwidth=1e-6))
        assert widths == [(1, 1)]

    def test_factor_whitened_once_per_run(self, monkeypatch):
        # the default grid's 11 ratios share one whitening of each run's factor
        calls = []
        householder = tlr._householder
        monkeypatch.setattr(tlr, "_householder", lambda u: calls.append(u) or householder(u))
        grid_search(small_pair(seed=17), GridSpec.default(), runs=2, per_class=6)
        assert len(calls) == 2

    def test_widths_above_rank_logged_once_per_run(self, caplog):
        pair = small_pair(seed=18)  # linear kernel of rank d = 5
        grid = GridSpec(alphas=(1.0,), betas=(0.1, 1.0), ks=(2, 5, 7, 9))
        with caplog.at_level(logging.INFO, logger="tlradapt.bench"):
            report = grid_search(pair, grid, runs=2, per_class=6)
        lines = [r.message for r in caplog.records if r.levelno == logging.INFO]
        assert lines == ["numerical rank of K is 5; widths 7, 9 reuse the rank-5 accuracy"] * 2
        by_k = {(r.beta, r.k): r.accuracies for r in report.records}
        assert by_k[(0.1, 7)] == by_k[(0.1, 9)] == by_k[(0.1, 5)]

    def test_deterministic_for_fixed_seed(self):
        pair = small_pair(seed=2)
        first = grid_search(pair, SMALL_GRID, runs=3, seed=7, per_class=4)
        second = grid_search(pair, SMALL_GRID, runs=3, seed=7, per_class=4)
        assert first.records == second.records
        assert first.train_sizes == second.train_sizes

    def test_parallel_matches_serial(self):
        pair = small_pair(seed=3)
        serial = grid_search(pair, SMALL_GRID, runs=2, seed=5, per_class=4, jobs=1)
        parallel = grid_search(pair, SMALL_GRID, runs=2, seed=5, per_class=4, jobs=4)
        assert serial.records == parallel.records

    def test_oversized_widths_skipped_and_logged(self, caplog):
        pair = small_pair(seed=4, n_per_class=2, classes=2, d=3)  # n_total = 8
        grid = GridSpec(alphas=(1.0,), betas=(1.0, 2.0), ks=(2, 8, 9))
        with caplog.at_level(logging.WARNING, logger="tlradapt.bench"):
            report = grid_search(pair, grid)
        assert len(report.records) == 2
        assert len(report.skipped) == 4
        assert all(entry.reason == f"k={entry.k} >= n1+n2=8" for entry in report.skipped)
        skip_lines = [r.message for r in caplog.records if "skipping" in r.message]
        assert skip_lines == [
            "skipping 2 configuration(s) with k=8: k >= n1+n2=8",
            "skipping 2 configuration(s) with k=9: k >= n1+n2=8",
        ]

    def test_all_widths_oversized_raises(self):
        pair = small_pair(seed=5, n_per_class=2, classes=2, d=3)
        grid = GridSpec(alphas=(1.0,), betas=(1.0,), ks=(50,))
        with pytest.raises(ValueError, match="empty effective grid"):
            grid_search(pair, grid)

    def test_target_labels_required(self):
        base = small_pair(seed=6)
        pair = DomainPair(
            source=base.source,
            target=LabeledMatrix(features=base.target.features, labels=None),
        )
        with pytest.raises(ValueError, match="target labels are required"):
            grid_search(pair, SMALL_GRID)

    def test_per_class_controls_training_size(self):
        pair = small_pair(seed=7, n_per_class=8, classes=3)
        report = grid_search(pair, SMALL_GRID, runs=2, per_class=4)
        assert report.train_sizes == (12, 12)

    def test_draw_size_caps_each_class(self, caplog):
        # source classes of 2, 5 and 9 rows drawn at 4 per class give
        # n1 = 2 + 4 + 4 = 10, so with 6 target rows k = 16 is the first
        # width skipped
        rng = np.random.default_rng(19)
        source = LabeledMatrix(rng.standard_normal((16, 3)), np.repeat([0, 1, 2], [2, 5, 9]))
        target = LabeledMatrix(rng.standard_normal((6, 3)), np.repeat([0, 1, 2], 2))
        grid = GridSpec(alphas=(1.0,), betas=(1.0,), ks=(15, 16))
        with caplog.at_level(logging.WARNING, logger="tlradapt.bench"):
            report = grid_search(DomainPair(source, target), grid, runs=2, per_class=4)
        assert report.train_sizes == (10, 10)
        assert [record.k for record in report.records] == [15]
        assert [entry.k for entry in report.skipped] == [16]
        assert [r.message for r in caplog.records] == [
            "skipping 1 configuration(s) with k=16: k >= n1+n2=16"
        ]

    def test_without_per_class_uses_full_source(self):
        pair = small_pair(seed=8)
        report = grid_search(pair, SMALL_GRID)
        assert report.train_sizes == (pair.source.n,)

    def test_runs_recorded_per_config(self):
        pair = small_pair(seed=9)
        report = grid_search(pair, SMALL_GRID, runs=3, per_class=4)
        assert all(len(record.accuracies) == 3 for record in report.records)
        assert len(report.run_seconds) == 3
        assert report.wall_time_seconds >= sum(report.run_seconds) * 0.5

    def test_accuracies_are_valid_fractions(self):
        pair = small_pair(seed=10)
        report = grid_search(pair, SMALL_GRID)
        n_t = pair.target.n
        for record in report.records:
            for value in record.accuracies:
                assert 0.0 <= value <= 1.0
                assert abs(value * n_t - round(value * n_t)) < 1e-9

    def test_invalid_counts_rejected(self):
        pair = small_pair(seed=11)
        with pytest.raises(ValueError, match="runs must be"):
            grid_search(pair, SMALL_GRID, runs=0)
        with pytest.raises(ValueError, match="needs per_class"):
            grid_search(pair, SMALL_GRID, runs=2)
        with pytest.raises(ValueError, match="jobs must be"):
            grid_search(pair, SMALL_GRID, jobs=0)
        with pytest.raises(ValueError, match="seed must be"):
            grid_search(pair, SMALL_GRID, seed=-1)


def eigh_factor(train, target, kernel):
    """K U from one eigh of the formed linear kernel K: the oracle for _range_factor."""
    pooled = np.vstack([train.features, target.features])
    K = pooled @ pooled.T
    spectrum, vectors = eigh(K)
    floor = K.shape[0] * np.finfo(float).eps * spectrum[-1]
    rank = max(int(np.count_nonzero(spectrum > floor)), 1)
    return K @ vectors[:, -rank:]


def _duplicated_column():
    pair = small_pair(seed=21)
    source, target = np.array(pair.source.features), np.array(pair.target.features)
    source[:, 1], target[:, 1] = source[:, 0], target[:, 0]
    return source, target


def _zero_column():
    pair = small_pair(seed=22)
    source, target = np.array(pair.source.features), np.array(pair.target.features)
    source[:, 2] = target[:, 2] = 0.0
    return source, target


def _one_row_per_class():
    pair = small_pair(seed=23, n_per_class=1, classes=5, d=4)
    return pair.source.features, pair.target.features


def _eigenvalue_between_floors():
    # orthogonal columns give X.T X = diag(1, 1, 1, 15 eps): the last lies
    # above the d * eps floor but below the n * eps one the rank rule uses
    columns, _ = np.linalg.qr(np.random.default_rng(26).standard_normal((40, 4)))
    pooled = columns * np.sqrt([1.0, 1.0, 1.0, 15 * np.finfo(float).eps])
    return pooled[:20], pooled[20:]


def _scaled(scale):
    def make():
        pair = small_pair(seed=24)
        return pair.source.features * scale, pair.target.features * scale

    return make


class TestRangeFactor:
    @pytest.mark.parametrize(
        "make",
        [
            _duplicated_column,
            _zero_column,
            _one_row_per_class,
            _eigenvalue_between_floors,
            _scaled(1e-8),
            _scaled(1e8),
        ],
        ids=[
            "duplicated-column",
            "zero-column",
            "one-row-per-class",
            "eigenvalue-between-floors",
            "scale-1e-8",
            "scale-1e8",
        ],
    )
    def test_linear_factor_squares_to_kernel(self, make):
        # F = (X V) s from the d x d Gram matrix must satisfy F F.T = K^2
        # and keep the rank eigh(K) gives at the same floor
        source, target = make()
        pooled = np.vstack([source, target])
        assert pooled.shape[1] < pooled.shape[0]
        train, target = LabeledMatrix(source), LabeledMatrix(target)
        K = pooled @ pooled.T
        factor = bench._range_factor(train, target, KernelSpec())
        squared = K @ K
        assert np.linalg.norm(factor @ factor.T - squared) <= 1e-10 * np.linalg.norm(squared)
        assert factor.shape[1] == eigh_factor(train, target, None).shape[1]

    def test_linear_grid_below_width_n_skips_the_kernel(self, monkeypatch):
        # per_class=2 over 3 classes gives n = 6 + 6: a linear grid with
        # d < n must not form K, one with d >= n and an rbf grid form it once a run
        calls = []
        builder = bench.build_joint_kernel

        def counting(*args, **kwargs):
            calls.append(args)
            return builder(*args, **kwargs)

        monkeypatch.setattr(bench, "build_joint_kernel", counting)
        grid = GridSpec(alphas=(1.0,), betas=(0.1, 1.0), ks=(2, 5))
        for d, kernel, expected in (
            (11, KernelSpec(), 0),
            (12, KernelSpec(), 2),
            (20, KernelSpec(), 2),
            (5, KernelSpec("rbf"), 2),
        ):
            calls.clear()
            pair = small_pair(seed=25, n_per_class=2, d=d)
            grid_search(pair, grid, kernel=kernel, runs=2, per_class=2)
            assert len(calls) == expected, (d, kernel)

    def test_fit_matches_grid_on_one_feature_at_scale_1e8(self):
        # fit and the grid solve one r x r pencil on tlr.range_factor, so every
        # configuration scores the same; k = 3 lies above the rank of 1 and
        # takes fit's null-space columns, which the grid scores as zeros
        grid = GridSpec(alphas=(1e-3, 1.0), betas=(1e-2, 1.0), ks=(1, 3))
        for seed in range(60):
            rng = np.random.default_rng(seed)
            source = rng.standard_normal((12, 1)) * 1e8
            target = (rng.standard_normal((20, 1)) + 0.5) * 1e8
            pair = DomainPair(
                LabeledMatrix(source, rng.integers(0, 3, 12)),
                LabeledMatrix(target, rng.integers(0, 3, 20)),
            )
            for record in grid_search(pair, grid).records:
                hyper = TlrHyperparams(alpha=record.alpha, beta=record.beta, k=record.k)
                _, latent_s, latent_t = fit(pair, hyper)
                predicted = knn1_predict(latent_s, pair.source.labels, latent_t).predicted
                assert accuracy(predicted, pair.target.labels) == record.accuracies[0], (
                    seed, record
                )

    @settings(deadline=None)
    @given(
        n1=st.integers(2, 30),
        n2=st.integers(2, 30),
        data=st.data(),
        scale=st.sampled_from((1e-8, 1.0, 1e8)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linear_grid_matches_eigh_oracle(self, n1, n2, data, scale, seed):
        d = data.draw(st.integers(1, n1 + n2 + 5), label="d")
        rng = np.random.default_rng(seed)
        source = rng.standard_normal((n1, d)) * scale
        target = rng.standard_normal((n2, d)) * scale
        assume(np.unique(np.vstack([source, target]), axis=0).shape[0] == n1 + n2)
        pair = DomainPair(
            LabeledMatrix(source, rng.integers(0, 3, n1)),
            LabeledMatrix(target, rng.integers(0, 3, n2)),
        )
        grid = GridSpec(alphas=(1e-3, 1.0), betas=(1e-2, 1.0), ks=(1, 2, 3, 5))
        report = grid_search(pair, grid)
        with mock.patch.object(bench, "_range_factor", eigh_factor):
            expected = grid_search(pair, grid)
        assert [r.accuracies for r in report.records] == [r.accuracies for r in expected.records]


def whole_matrix_accuracy(latent, n1, train_labels, target_labels, widths):
    """One n2 x n1 accumulator from zeros, the oracle for _accuracy_by_width's blocks.

    Returns the accuracy per width and the predicted labels per width.
    """
    latent_s, latent_t = latent[:n1], latent[n1:]
    distances = np.zeros((latent_t.shape[0], n1))
    accuracies, predictions = {}, []
    lower = 0
    for width in widths:
        distances += cdist(latent_t[:, lower:width], latent_s[:, lower:width], "sqeuclidean")
        lower = width
        predictions.append(np.asarray(train_labels)[distances.argmin(axis=1)])
        accuracies[width] = accuracy(predictions[-1], target_labels)
    return accuracies, predictions


def square_pair():
    """n1 = n2 = 600 rows of d = 20, the shape of the grid_linear_lowrank workload."""
    pair = synth_shift_pair(
        150, 20, classes=4, rotation_deg=60.0, translation=1.0, noise_std=5.0, seed=31
    )
    return standardize_pair(pair)


class TestNearestNeighbourBlocks:
    @settings(deadline=None)
    @given(
        rows=st.integers(1, 6),
        n1=st.integers(1, 8),
        d=st.integers(1, 6),
        tied=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_whole_matrix(self, rows, n1, d, tied, data, seed):
        n2 = data.draw(st.sampled_from(sorted({1, rows - 1, rows, rows + 1, 2 * rows + 3} - {0})))
        widths = data.draw(
            st.one_of(
                st.integers(1, d).map(lambda width: [width]),
                st.just(list(range(1, d + 1))),
                st.sets(st.integers(1, d), min_size=1).map(sorted),
            ),
            label="widths",
        )
        rng = np.random.default_rng(seed)
        # small integers make exact distance ties common; source rows are
        # resampled among themselves, so duplicates are common too, and
        # labels 0..n1-1 give every duplicate its own label
        latent = rng.integers(-2, 3, (n1 + n2, d)) if tied else rng.standard_normal((n1 + n2, d))
        latent = np.asarray(latent, dtype=float)
        latent[:n1] = latent[rng.integers(0, n1, n1)]
        train_labels = np.arange(n1)
        target_labels = rng.integers(0, n1, n2)
        predictions = []

        def recording(predicted, labels):
            predictions.append(predicted.copy())
            return accuracy(predicted, labels)

        with mock.patch.object(bench, "_NN_BLOCK", rows * n1), mock.patch.object(
            bench, "accuracy", recording
        ):
            got = bench._accuracy_by_width(latent, n1, train_labels, target_labels, widths)
        expected, expected_predictions = whole_matrix_accuracy(
            latent, n1, train_labels, target_labels, widths
        )
        assert got == expected
        assert len(predictions) == len(expected_predictions)
        for predicted, oracle in zip(predictions, expected_predictions):
            np.testing.assert_array_equal(predicted, oracle)

    def test_block_size_leaves_grid_unchanged(self):
        pair = small_pair(seed=27)
        whole = grid_search(pair, SMALL_GRID, runs=2, seed=3, per_class=5)
        with mock.patch.object(bench, "_NN_BLOCK", 1):
            single_rows = grid_search(pair, SMALL_GRID, runs=2, seed=3, per_class=5)
        assert single_rows.records == whole.records

    def test_grid_holds_less_than_one_square(self):
        # the whole-matrix accumulation held an n2 x n1 accumulator and an
        # n2 x n1 cdist output at once
        pair = square_pair()
        square = pair.source.n * pair.target.n * 8
        tracemalloc.start()
        try:
            grid_search(pair, kernel=KernelSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < square

    def test_parallel_workers_score_their_ratios(self, monkeypatch):
        threads = []
        scorer = bench._accuracy_by_width

        def recording(*args):
            threads.append(threading.get_ident())
            return scorer(*args)

        monkeypatch.setattr(bench, "_accuracy_by_width", recording)
        pair = square_pair()
        parallel = grid_search(pair, kernel=KernelSpec(), jobs=3)
        assert len(threads) == 11  # one per distinct weight ratio
        assert threading.get_ident() not in threads
        serial = grid_search(pair, kernel=KernelSpec(), jobs=1)
        assert parallel.records == serial.records


class TestProtocol:
    def test_repeated_draw_wiring(self):
        pair = small_pair(seed=12, n_per_class=10, classes=3)
        options = dict(grid=SMALL_GRID, kernel=KernelSpec("rbf"), seed=3, jobs=2, pair_id="proto")
        report = run_protocol_ixmas_style(pair, per_class=5, runs=4, **options)
        assert report.pair_id == "proto"
        assert report.train_sizes == (15, 15, 15, 15)
        assert all(len(record.accuracies) == 4 for record in report.records)
        assert report.records == grid_search(pair, per_class=5, runs=4, **options).records

    def test_draws_differ_across_runs(self):
        # two runs with per-class sampling almost surely pick different rows,
        # so at least one configuration should score differently
        pair = small_pair(seed=13, n_per_class=12, classes=3)
        report = run_protocol_ixmas_style(
            pair, per_class=4, runs=2, grid=SMALL_GRID, seed=0
        )
        spread = [len(set(record.accuracies)) for record in report.records]
        assert max(spread) > 1


class TestBestSelection:
    def make_report(self, *means):
        records = tuple(
            ConfigResult(alpha=1.0, beta=1.0, k=i + 1, accuracies=(m,))
            for i, m in enumerate(means)
        )
        return ExperimentReport(
            pair_id="x", records=records, skipped=(), train_sizes=(1,),
            run_seconds=(0.0,), wall_time_seconds=0.0,
        )

    def test_argmax_of_mean(self):
        assert self.make_report(0.2, 0.9, 0.5).best.k == 2

    def test_ties_go_to_earliest(self):
        assert self.make_report(0.4, 0.9, 0.9).best.k == 2


class TestRelativeGaps:
    def test_latent_gap_hand_oracle(self):
        # means (1,0) and (0,1): squared gap 2 over unit mean energy
        value = relative_latent_gap(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert value == pytest.approx(2.0)

    def test_latent_gap_scale_invariant(self):
        rng = np.random.default_rng(14)
        ps, pt = rng.standard_normal((6, 3)), rng.standard_normal((8, 3)) + 1.0
        base = relative_latent_gap(ps, pt)
        assert relative_latent_gap(5.0 * ps, 5.0 * pt) == pytest.approx(base, rel=1e-12)

    def test_kernel_gap_hand_oracle(self):
        joint = JointKernel(K=np.eye(2), n1=1, n2=1, spec=KernelSpec())
        assert relative_kernel_gap(joint) == pytest.approx(2.0)

    def test_kernel_gap_zero_for_identical_domains(self):
        x = np.random.default_rng(15).standard_normal((7, 3))
        joint = build_joint_kernel(x, x)
        assert relative_kernel_gap(joint) <= 1e-12


class TestReportEmission:
    def run_small(self):
        return grid_search(small_pair(seed=16), SMALL_GRID, runs=2, per_class=4, seed=1)

    def test_csv_round_trip_exact(self, tmp_path):
        report = self.run_small()
        path = tmp_path / "report.csv"
        emit_report(report, path)
        rows = read_report_csv(path)
        assert len(rows) == len(report.records) * 2
        cursor = 0
        for record in report.records:
            for run, value in enumerate(record.accuracies):
                row = rows[cursor]
                assert (row.pair, row.alpha, row.beta, row.k, row.run) == (
                    "pair", record.alpha, record.beta, record.k, run,
                )
                assert row.accuracy == value
                cursor += 1

    def test_csv_header(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(self.run_small(), path)
        with open(path) as handle:
            assert handle.readline().rstrip("\n") == ",".join(CSV_HEADER)

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected report header"):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "row, found", [("p,1.0,1.0", 3), ("p,1.0,1.0,5,0,0.5,extra", 7)], ids=["short", "long"]
    )
    def test_reader_rejects_malformed_row(self, tmp_path, row, found):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,1.0,1.0,5,0,0.5\n" + row + "\n")
        with pytest.raises(ValueError, match=f"line 3: expected 6 fields, found {found}"):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "row, field",
        [("p,1.0,x,5,0,0.5", "'x'"), ("p,1.0,1.0,five,0,0.5", "'five'")],
        ids=["float", "int"],
    )
    def test_reader_rejects_malformed_number(self, tmp_path, row, field):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\np,1.0,1.0,5,0,0.5\n" + row + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: .*{field}$"):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"a,b,c\n1,2,3\n", "unexpected report header ('a', 'b', 'c')"),
            (b"pair,\xff\n", "'utf-8' codec can't decode byte 0xff"),
            (b"pair,alpha,beta,k,run,accuracy\n\"" + b"p" * 200_000 + b'",1,1,5,0,0.5\n',
             "field larger than field limit"),
        ],
        ids=["header", "non-utf8", "long-field"],
    )
    def test_reader_names_malformed_file(self, tmp_path, data, reason):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {re.escape(reason)}"):
            read_report_csv(path)

    def test_markdown_contents(self, tmp_path):
        report = self.run_small()
        path = tmp_path / "report.md"
        emit_report(report, path, format="markdown")
        text = path.read_text()
        best = report.best
        assert f"# Benchmark: {report.pair_id}" in text
        assert f"mean accuracy {best.mean_accuracy:.4f}" in text
        assert "| alpha | beta | k | mean accuracy |" in text
        assert f"**{best.mean_accuracy:.4f}**" in text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format must be"):
            emit_report(self.run_small(), tmp_path / "x", format="json")
