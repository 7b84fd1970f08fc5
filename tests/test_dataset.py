import csv
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from tlradapt import dataset
from tlradapt.dataset import (
    STD_FLOOR,
    DomainPair,
    LabeledMatrix,
    ZScoreStats,
    load_csv,
    sample_per_class,
    save_csv,
    standardize_pair,
    synth_shift_pair,
    zscore_apply,
    zscore_fit,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def csv_writer_reference(matrix, path):
    """save_csv as a csv.writer loop: the byte reference for the joined rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for i in range(matrix.n):
            row = [repr(float(v)) for v in matrix.features[i]]
            if matrix.labels is not None:
                row.append(str(int(matrix.labels[i])))
            writer.writerow(row)


class TestLabeledMatrix:
    def test_basic_properties(self):
        m = LabeledMatrix([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert m.n == 2 and m.d == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            LabeledMatrix([[1.0, np.nan]])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            LabeledMatrix([[1.0]], [-1])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="length-2"):
            LabeledMatrix([[1.0], [2.0]], [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LabeledMatrix(np.empty((0, 3)))

    def test_arrays_are_read_only(self):
        m = LabeledMatrix([[1.0, 2.0]], [3])
        with pytest.raises(ValueError):
            m.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            m.labels[0] = 9

    def test_pair_requires_source_labels(self):
        with pytest.raises(ValueError, match="labeled"):
            DomainPair(LabeledMatrix([[1.0]]), LabeledMatrix([[2.0]]))

    def test_pair_requires_equal_width(self):
        with pytest.raises(ValueError, match="widths differ"):
            DomainPair(LabeledMatrix([[1.0, 2.0]], [0]), LabeledMatrix([[1.0]]))


class TestLoadCsv:
    def test_labeled_two_rows(self, tmp_path):
        # plain, byte-order-marked and CRLF files parse alike
        for text in ("1.0,2.0,0\n3.0,4.0,1\n", "\ufeff1.0,2.0,0\n3.0,4.0,1\n",
                     "1.0,2.0,0\r\n3.0,4.0,1\r\n", "\ufeff1.0,2.0,0\r\n3.0,4.0,1\r\n"):
            m = load_csv(write(tmp_path, text), label_column=2)
            assert np.array_equal(m.features, [[1.0, 2.0], [3.0, 4.0]])
            assert np.array_equal(m.labels, [0, 1])

    def test_single_unlabeled_value(self, tmp_path):
        m = load_csv(write(tmp_path, "5.5\n"))
        assert m.features.shape == (1, 1)
        assert m.features[0, 0] == 5.5
        assert m.labels is None

    def test_negative_label_column_means_last(self, tmp_path):
        m = load_csv(write(tmp_path, "1.0,2.0,3\n"), label_column=-1)
        assert np.array_equal(m.features, [[1.0, 2.0]])
        assert np.array_equal(m.labels, [3])

    def test_parse_error_names_row_and_column(self, tmp_path):
        for text in ("1.0,x\n", "\ufeff1.0,x\r\n"):
            with pytest.raises(ValueError, match=r"row 1, column 2"):
                load_csv(write(tmp_path, text))

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=r"row 2: expected 2 fields, found 1"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(write(tmp_path, "1.0,inf\n"))

    def test_float_label_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not an integer"):
            load_csv(write(tmp_path, "1.0,0.5\n"), label_column=1)

    def test_negative_label_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            load_csv(write(tmp_path, "1.0,-2\n"), label_column=1)

    def test_header_skipped(self, tmp_path):
        for text in ("f1,f2,y\n1.0,2.0,0\n", "\ufefff1,f2,y\r\n1.0,2.0,0\r\n"):
            m = load_csv(write(tmp_path, text), label_column=2, skip_header=True)
            assert m.n == 1 and m.d == 2

    @pytest.mark.parametrize("skip_header", [2, "no", None, 1.5], ids=repr)
    def test_skip_header_type_rejected(self, tmp_path, skip_header):
        # unchecked, 2 would drop two lines in np.loadtxt but one field by field,
        # and "no", which np.loadtxt cannot take, would read as true field by field
        path = write(tmp_path, "h\n1.0,0\n2.0,1\n3.0,1\n")
        with pytest.raises(ValueError, match="skip_header must be True or False"):
            load_csv(path, label_column=-1, skip_header=skip_header)

    @pytest.mark.parametrize("skip_header", [True, np.True_], ids=repr)
    def test_skip_header_bool_accepted(self, tmp_path, skip_header):
        m = load_csv(write(tmp_path, "h\n1.0,0\n2.0,1\n"), label_column=-1, skip_header=skip_header)
        assert m.labels.tolist() == [0, 1]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, ""))

    def test_label_column_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            load_csv(write(tmp_path, "1.0,2.0\n"), label_column=5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize(
        "data, label_column, reason",
        [
            (b"1.0,2.0\n\xff,3\n", None, "'utf-8' codec can't decode byte 0xff"),
            (b'"' + b"1" * 200_000 + b'",0\n', -1, "field larger than field limit"),
            (b"1\n2\n", -1, "no feature columns besides the label column"),
        ],
        ids=["non-utf8", "long-field", "label-only"],
    )
    def test_malformed_file_named(self, tmp_path, data, label_column, reason):
        # every rejected file fails with one ValueError that starts with its path
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{re.escape(reason)}"):
            load_csv(path, label_column=label_column)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = LabeledMatrix(rng.standard_normal((7, 3)), rng.integers(0, 3, size=7))
        path = tmp_path / "round.csv"
        save_csv(m, path)
        back = load_csv(path, label_column=-1)
        assert np.array_equal(back.features, m.features)
        assert np.array_equal(back.labels, m.labels)

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    def test_save_bytes_match_csv_writer(self, tmp_path, labeled):
        specials = [-0.0, 5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308]
        rng = np.random.default_rng(6)
        features = np.vstack([specials, np.negative(specials), rng.standard_normal((3, 6))])
        labels = [0, 2**63 - 1, 0, 1, 2**63 - 1] if labeled else None
        one_field = LabeledMatrix(features[:1, :1], labels[:1] if labeled else None)
        for m in (LabeledMatrix(features, labels), one_field):
            save_csv(m, tmp_path / "joined.csv")
            csv_writer_reference(m, tmp_path / "reference.csv")
            joined = (tmp_path / "joined.csv").read_bytes()
            assert joined == (tmp_path / "reference.csv").read_bytes()
            back = load_csv(tmp_path / "joined.csv", label_column=-1 if labeled else None)
            assert np.array_equal(back.features.view(np.int64), m.features.view(np.int64))
            if labeled:
                assert back.labels.tolist() == m.labels.tolist()
            else:
                assert back.labels is None

    @pytest.mark.parametrize("label_column", ["last", 1.5, 2.0, True], ids=repr)
    def test_label_column_type_rejected(self, tmp_path, label_column):
        # column 1 holds integers, so True would otherwise read it as labels
        path = write(tmp_path, "1.0,2,0\n3.0,4,1\n")
        with pytest.raises(ValueError, match="label_column must be an integer"):
            load_csv(path, label_column=label_column)
        with pytest.raises(ValueError, match="label_column must be an integer"):
            dataset._parse_fields(path, label_column, False)

    @pytest.mark.parametrize("label_column", [np.int64(-1), -1, None], ids=repr)
    def test_label_column_integer_or_none_accepted(self, tmp_path, label_column):
        m = load_csv(write(tmp_path, "1.0,2,0\n3.0,4,1\n"), label_column=label_column)
        if label_column is None:
            assert m.labels is None and m.d == 3
        else:
            assert m.labels.tolist() == [0, 1] and m.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_bulk_parse_matches_field_by_field(self, tmp_path):
        # the field-by-field parse is the reference: values must be bit-equal
        rng = np.random.default_rng(5)
        tokens = ["0.1", "1e-5", "-0.0", " 2.5 ", "+1.5", "3", "4.9e-324", "1.7976931348623157e308"]
        label_tokens = [" 0", " 1", " 2", " 3", "+3", " 3 ", "007"]
        rows = [
            ",".join([
                *rng.choice(tokens, size=4),
                repr(float(rng.standard_normal())),
                label_tokens[i % len(label_tokens)],
            ])
            for i in range(40)
        ]
        for label_column, skip_header in ((-1, False), (5, True), (None, False)):
            path = write(tmp_path, "\n".join(["h"] * skip_header + rows) + "\n")
            bulk = dataset._read_table(path, label_column, skip_header)
            assert bulk is not None
            features, labels = dataset._parse_fields(path, label_column, skip_header)
            assert np.array_equal(bulk.features.view(np.int64), features.view(np.int64))
            if label_column is not None:
                assert np.array_equal(bulk.labels, labels)
        # the float table cannot hold 2**53 + 1, so load_csv must read it exactly elsewhere
        m = load_csv(write(tmp_path, f"1.0,0\n2.0,{2**53 + 1}\n"), label_column=-1)
        assert m.labels.tolist() == [0, 2**53 + 1]

    def test_one_loadtxt_pass_per_well_formed_file(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args[0])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        m = load_csv(write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n"), label_column=-1)
        assert np.array_equal(m.labels, [0, 1])
        assert len(calls) == 1

    def test_bulk_parse_used_for_well_formed_files(self, tmp_path, monkeypatch):
        def refused(*args):
            raise AssertionError("parsed field by field")

        monkeypatch.setattr(dataset, "_parse_fields", refused)
        m = load_csv(write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n"), label_column=-1)
        assert np.array_equal(m.labels, [0, 1])

    def test_integral_real_label_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"row 2, column 2: label '1.0' is not an integer"):
            load_csv(write(tmp_path, "1.0,0\n2.0,1.0\n"), label_column=1)

    def test_fields_only_the_fallback_reads(self, tmp_path):
        # quoted fields and whitespace-only lines are beyond np.loadtxt
        m = load_csv(write(tmp_path, '"1.0",2.0,0\n  \n3.0,4.0,1\n'), label_column=-1)
        assert np.array_equal(m.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(m.labels, [0, 1])

    def test_label_beyond_int64_named(self, tmp_path):
        path = write(tmp_path, f"1.0,0\n2.0,{2**63}\n")
        with pytest.raises(ValueError, match=rf"row 2, column 2: label '{2**63}' exceeds the int"):
            load_csv(path, label_column=1)
        m = load_csv(write(tmp_path, f"1.0,0\n2.0,{2**63 - 1}\n"), label_column=1)
        assert m.labels.tolist() == [0, 2**63 - 1]

    def test_threads_leave_warning_filters_alone(self, tmp_path):
        # a warnings-filter swap around np.loadtxt, interleaved across threads,
        # used to leave an "error" filter installed for the whole process
        rng = np.random.default_rng(6)
        labeled = tmp_path / "labeled.csv"
        save_csv(LabeledMatrix(rng.standard_normal((200, 4)), rng.integers(0, 3, 200)), labeled)
        blank = write(tmp_path, "\n", "blank.csv")
        results = []

        def work(path):
            for _ in range(300):
                try:
                    results.append(load_csv(path, label_column=-1).n)
                except ValueError as error:
                    results.append(str(error))

        before = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(path,)) for path in [blank, labeled] * 2]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert warnings.filters == before
        assert set(results) == {200, f"{blank}: no data rows"}
        assert len(results) == 1200


class TestZScore:
    def test_two_point_column(self):
        stats = zscore_fit(LabeledMatrix([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0
        assert stats.std[0] == 1.0

    def test_population_std_hand_computed(self):
        # column (0, 0, 6, 6): mean 3, population std 3
        stats = zscore_fit(LabeledMatrix([[0.0], [0.0], [6.0], [6.0]]))
        assert stats.mean[0] == 3.0
        assert stats.std[0] == 3.0

    def test_constant_column_floored(self):
        stats = zscore_fit(LabeledMatrix([[7.0], [7.0], [7.0]]))
        assert stats.std[0] == STD_FLOOR

    def test_apply_hand_computed(self):
        m = LabeledMatrix([[0.0], [0.0], [6.0], [6.0]], [0, 0, 1, 1])
        out = zscore_apply(m, zscore_fit(m))
        assert np.array_equal(out.features, [[-1.0], [-1.0], [1.0], [1.0]])
        assert np.array_equal(out.labels, m.labels)

    def test_apply_identity_stats(self):
        m = LabeledMatrix([[1.5, -2.0]])
        out = zscore_apply(m, ZScoreStats(mean=np.zeros(2), std=np.ones(2)))
        assert np.array_equal(out.features, m.features)

    def test_standardized_moments(self):
        rng = np.random.default_rng(11)
        m = LabeledMatrix(rng.standard_normal((40, 6)) * 3.0 + 1.0)
        out = zscore_apply(m, zscore_fit(m))
        assert np.all(np.abs(out.features.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(out.features.std(axis=0) - 1.0) <= 1e-10)

    def test_width_mismatch(self):
        stats = zscore_fit(LabeledMatrix([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="columns"):
            zscore_apply(LabeledMatrix([[1.0]]), stats)

    def test_stats_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ZScoreStats(mean=np.zeros(1), std=np.zeros(1))


class TestStandardizePair:
    def make_pair(self):
        rng = np.random.default_rng(2)
        src = LabeledMatrix(rng.standard_normal((20, 3)) + 2.0, rng.integers(0, 2, size=20))
        tgt = LabeledMatrix(rng.standard_normal((15, 3)) - 1.0)
        return DomainPair(src, tgt)

    def test_per_domain_centers_each(self):
        out = standardize_pair(self.make_pair(), "per-domain")
        assert np.all(np.abs(out.source.features.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(out.target.features.mean(axis=0)) <= 1e-10)

    def test_pooled_centers_stack_only(self):
        out = standardize_pair(self.make_pair(), "pooled")
        stacked = np.vstack([out.source.features, out.target.features])
        assert np.all(np.abs(stacked.mean(axis=0)) <= 1e-10)
        # the domain shift survives pooled standardization
        assert np.linalg.norm(out.source.features.mean(axis=0)) > 0.5

    def test_none_is_identity(self):
        pair = self.make_pair()
        assert standardize_pair(pair, "none") is pair

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown"):
            standardize_pair(self.make_pair(), "whiten")


class TestSamplePerClass:
    def make_matrix(self, sizes):
        labels = np.repeat(np.arange(len(sizes)), sizes)
        # feature value encodes the original row index so draws are traceable
        return LabeledMatrix(np.arange(labels.size, dtype=float)[:, None], labels)

    def test_ixmas_like_draw(self):
        m = self.make_matrix([36, 36])
        out = sample_per_class(m, 30, seed=0)
        assert out.n == 60
        assert np.sum(out.labels == 0) == 30
        assert np.sum(out.labels == 1) == 30

    def test_rows_grouped_by_ascending_class(self):
        out = sample_per_class(self.make_matrix([5, 5, 5]), 3, seed=1)
        assert np.array_equal(out.labels, np.repeat([0, 1, 2], 3))

    def test_oversized_request_is_permutation(self):
        m = self.make_matrix([4, 6])
        out = sample_per_class(m, 100, seed=3)
        assert out.n == 10
        assert sorted(out.features[:, 0]) == list(range(10))

    def test_no_repeats_within_class(self):
        out = sample_per_class(self.make_matrix([20, 20]), 15, seed=5)
        assert len(set(out.features[:, 0])) == out.n

    def test_deterministic_per_seed(self):
        m = self.make_matrix([12, 12])
        a = sample_per_class(m, 6, seed=7)
        b = sample_per_class(m, 6, seed=7)
        c = sample_per_class(m, 6, seed=8)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_requires_labels(self):
        with pytest.raises(ValueError, match="labels"):
            sample_per_class(LabeledMatrix([[1.0]]), 1, seed=0)

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_per_class(self.make_matrix([3]), 0, seed=0)


class TestSynthShiftPair:
    def test_shapes_and_labels(self):
        pair = synth_shift_pair(10, 4, 3, seed=0)
        assert pair.source.features.shape == (30, 4)
        assert pair.target.features.shape == (30, 4)
        assert np.array_equal(pair.source.labels, np.repeat([0, 1, 2], 10))
        assert np.array_equal(pair.target.labels, pair.source.labels)

    def test_no_shift_no_noise_is_bitwise_identical(self):
        pair = synth_shift_pair(8, 5, 3, rotation_deg=0.0, translation=0.0,
                                noise_std=0.0, seed=42)
        assert pair.source.features.tobytes() == pair.target.features.tobytes()

    def test_no_shift_with_noise_draws_independently(self):
        pair = synth_shift_pair(8, 5, 3, rotation_deg=0.0, translation=0.0,
                                noise_std=0.5, seed=42)
        assert not np.array_equal(pair.source.features, pair.target.features)
        # same generative model: class means agree up to sampling noise
        for cls in range(3):
            gap = (pair.source.features[pair.source.labels == cls].mean(axis=0)
                   - pair.target.features[pair.target.labels == cls].mean(axis=0))
            assert np.linalg.norm(gap) < 1.5

    def test_noiseless_target_means_are_rotated_translated(self):
        rotation, translation = 30.0, 0.7
        pair = synth_shift_pair(6, 4, 3, rotation_deg=rotation,
                                translation=translation, noise_std=0.0, seed=9)
        theta = math.radians(rotation)
        plane = np.array([[math.cos(theta), -math.sin(theta)],
                          [math.sin(theta), math.cos(theta)]])
        for cls in range(3):
            src_mean = pair.source.features[pair.source.labels == cls].mean(axis=0)
            tgt_mean = pair.target.features[pair.target.labels == cls].mean(axis=0)
            expected = src_mean.copy()
            expected[:2] = plane @ expected[:2]
            expected += translation
            assert np.allclose(tgt_mean, expected, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = synth_shift_pair(5, 3, 2, rotation_deg=15, translation=0.3, seed=1)
        b = synth_shift_pair(5, 3, 2, rotation_deg=15, translation=0.3, seed=1)
        assert a.source.features.tobytes() == b.source.features.tobytes()
        assert a.target.features.tobytes() == b.target.features.tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="rotation plane"):
            synth_shift_pair(5, 1, 2)
        with pytest.raises(ValueError, match="classes"):
            synth_shift_pair(5, 3, 1)
        with pytest.raises(ValueError, match="n_per_class"):
            synth_shift_pair(0, 3, 2)
        with pytest.raises(ValueError, match="noise_std"):
            synth_shift_pair(5, 3, 2, noise_std=-0.1)
        with pytest.raises(ValueError, match="noise_std must be finite, got inf"):
            synth_shift_pair(5, 3, 2, noise_std=math.inf)
        with pytest.raises(ValueError, match="noise_std must be finite, got nan"):
            synth_shift_pair(5, 3, 2, noise_std=math.nan)
        with pytest.raises(ValueError, match="translation must be finite, got inf"):
            synth_shift_pair(5, 3, 2, translation=math.inf)
        with pytest.raises(ValueError, match="rotation_deg must be finite, got nan"):
            synth_shift_pair(5, 3, 2, rotation_deg=math.nan)
        with pytest.raises(ValueError, match="seed"):
            synth_shift_pair(5, 3, 2, seed=-1)
