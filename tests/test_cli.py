import re
from pathlib import Path

import numpy as np
import pytest

from tlradapt.bench import read_report_csv
from tlradapt.cli import (
    _expand_config,
    _parse_bandwidth,
    _parse_float_list,
    _parse_int_list,
    _parse_label_choice,
    build_parser,
    main,
)
from tlradapt.dataset import LabeledMatrix, load_csv, save_csv, synth_shift_pair
from tlradapt.tlr import load_model

import argparse


@pytest.fixture
def csv_pair(tmp_path):
    pair = synth_shift_pair(6, 4, classes=3, translation=0.8, noise_std=0.5, seed=21)
    source = tmp_path / "source.csv"
    target = tmp_path / "target.csv"
    save_csv(pair.source, source)
    save_csv(pair.target, target)
    return source, target


SMALL_GRID_ARGS = ["--alphas", "0.01,1", "--betas", "0.1,1", "--ks", "2,5"]


class TestArgumentParsing:
    def test_label_choice_forms(self):
        assert _parse_label_choice("last") == -1
        assert _parse_label_choice("none") is None
        assert _parse_label_choice("same") == "same"
        assert _parse_label_choice("3") == 3
        assert _parse_label_choice("-2") == -2

    def test_label_choice_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError, match="labels must be"):
            _parse_label_choice("first")

    def test_bandwidth_forms(self):
        assert _parse_bandwidth("auto") is None
        assert _parse_bandwidth("2.5") == 2.5
        with pytest.raises(argparse.ArgumentTypeError, match="bandwidth"):
            _parse_bandwidth("wide")

    def test_list_parsing(self):
        assert _parse_float_list("0.1,1,10") == (0.1, 1.0, 10.0)
        assert _parse_int_list("2, 4,6") == (2, 4, 6)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSynthCommand:
    def test_writes_loadable_pair(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo_")
        code = main([
            "synth", "--classes", "3", "--n", "5", "--dim", "4",
            "--translation", "1.5", "--seed", "9", "--out-prefix", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {prefix}source.csv and {prefix}target.csv" in out
        source = load_csv(f"{prefix}source.csv", label_column=-1)
        target = load_csv(f"{prefix}target.csv", label_column=-1)
        assert source.features.shape == (15, 4)
        assert target.features.shape == (15, 4)
        assert sorted(set(source.labels.tolist())) == [0, 1, 2]

    def test_matches_library_generator(self, tmp_path):
        prefix = str(tmp_path / "gen_")
        main(["synth", "--classes", "2", "--n", "4", "--dim", "3", "--seed", "11",
              "--out-prefix", prefix])
        expected = synth_shift_pair(4, 3, classes=2, seed=11)
        loaded = load_csv(f"{prefix}source.csv", label_column=-1)
        assert np.array_equal(loaded.features, expected.source.features)
        assert np.array_equal(loaded.labels, expected.source.labels)


class TestFitCommand:
    def test_fits_and_saves(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        out = tmp_path / "model.bin"
        code = main([
            "fit", "--source", str(source), "--target", str(target),
            "--alpha", "0.5", "--beta", "0.5", "--k", "4", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert f"model written to {out}" in text
        assert "latent discrepancy" in text
        model = load_model(out)
        assert model.hyper.k == 4
        assert model.W.shape == (36, 4)

    def test_unlabeled_target_allowed(self, csv_pair, tmp_path):
        source, _ = csv_pair
        bare = synth_shift_pair(6, 4, classes=3, translation=0.8, noise_std=0.5, seed=21).target
        target = tmp_path / "bare_target.csv"
        save_csv(LabeledMatrix(features=bare.features, labels=None), target)
        out = tmp_path / "model.bin"
        code = main([
            "fit", "--source", str(source), "--target", str(target),
            "--target-labels", "none", "--alpha", "1", "--beta", "1", "--k", "2",
            "--out", str(out),
        ])
        assert code == 0 and out.exists()

    def test_constant_columns_fit(self, tmp_path):
        # z-scored constant columns make K = 0, where ARPACK fails and fit solves densely
        labels = np.repeat([0, 1], 40)
        source, target = tmp_path / "source.csv", tmp_path / "target.csv"
        save_csv(LabeledMatrix(np.full((80, 200), 3.0), labels), source)
        save_csv(LabeledMatrix(np.full((80, 200), 7.0), labels), target)
        out = tmp_path / "model.bin"
        code = main([
            "fit", "--source", str(source), "--target", str(target),
            "--alpha", "1e-3", "--beta", "1e-2", "--k", "2", "--out", str(out),
        ])
        assert code == 0
        assert not load_model(out).eigenvalues.any()

    def test_unlabeled_source_rejected(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        code = main([
            "fit", "--source", str(source), "--target", str(target),
            "--labels", "none", "--alpha", "1", "--beta", "1", "--k", "2",
            "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 1
        assert "source domain must be labeled" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main([
            "fit", "--source", str(tmp_path / "absent.csv"),
            "--target", str(tmp_path / "absent.csv"),
            "--alpha", "1", "--beta", "1", "--k", "2",
            "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_labels_same_reports_error(self, csv_pair, tmp_path, capsys):
        # "same" is a choice for --target-labels alone
        source, target = csv_pair
        code = main([
            "fit", "--source", str(source), "--target", str(target), "--labels", "same",
            "--alpha", "1", "--beta", "1", "--k", "2", "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --labels must be 'last', 'none', or a column index\n"
        )

    def test_oversized_k_reports_error(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        code = main([
            "fit", "--source", str(source), "--target", str(target),
            "--alpha", "1", "--beta", "1", "--k", "500",
            "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 1
        assert "k must be <" in capsys.readouterr().err


class TestBenchCommand:
    def bench(self, source, target, report, extra=()):
        return main([
            "bench", "--source", str(source), "--target", str(target),
            *SMALL_GRID_ARGS, "--report", str(report), *extra,
        ])

    def test_writes_csv_report(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        report = tmp_path / "report.csv"
        assert self.bench(source, target, report) == 0
        out = capsys.readouterr().out
        assert "best alpha=" in out and "8 configurations, 0 skipped" in out
        rows = read_report_csv(report)
        assert len(rows) == 8
        assert rows[0].pair == "source->target"

    def test_repeat_runs_byte_identical(self, csv_pair, tmp_path):
        source, target = csv_pair
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        self.bench(source, target, first, ("--runs", "2", "--per-class", "4"))
        self.bench(source, target, second, ("--runs", "2", "--per-class", "4"))
        assert first.read_bytes() == second.read_bytes()

    def test_jobs_do_not_change_output(self, csv_pair, tmp_path):
        source, target = csv_pair
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        self.bench(source, target, serial, ("--jobs", "1"))
        self.bench(source, target, parallel, ("--jobs", "3"))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_markdown_format(self, csv_pair, tmp_path):
        source, target = csv_pair
        report = tmp_path / "report.md"
        code = self.bench(source, target, report, ("--format", "markdown"))
        assert code == 0
        assert report.read_text().startswith("# Benchmark:")

    def test_pair_id_override(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        report = tmp_path / "report.csv"
        self.bench(source, target, report, ("--pair-id", "demo"))
        assert capsys.readouterr().out.startswith("demo:")
        assert read_report_csv(report)[0].pair == "demo"

    @pytest.mark.parametrize("axis", ["--alphas", "--betas", "--ks"])
    def test_empty_axis_rejected(self, csv_pair, tmp_path, capsys, axis):
        source, target = csv_pair
        report = tmp_path / "r.csv"
        assert self.bench(source, target, report, (axis, ",")) == 1
        assert "non-empty" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("axis", ["--alphas", "--betas", "--ks"])
    def test_repeated_axis_value_rejected(self, csv_pair, tmp_path, capsys, axis):
        source, target = csv_pair
        report = tmp_path / "r.csv"
        assert self.bench(source, target, report, (axis, "2,2")) == 1
        assert "repeat a value" in capsys.readouterr().err
        assert not report.exists()

    def test_overflowing_weight_ratio_rejected(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        report = tmp_path / "r.csv"
        assert self.bench(source, target, report, ("--alphas", "1e-200", "--betas", "1e200")) == 1
        assert "beta/alpha overflows at beta=1e+200 and alpha=1e-200" in capsys.readouterr().err
        assert not report.exists()

    def test_negative_seed_named(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        assert self.bench(source, target, tmp_path / "r.csv", ("--seed", "-1")) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_unlabeled_target_rejected(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        code = main([
            "bench", "--source", str(source), "--target", str(target),
            "--target-labels", "none", *SMALL_GRID_ARGS,
            "--report", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        assert "needs target labels" in capsys.readouterr().err


class TestConfigFile:
    def test_supplies_defaults(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        config = tmp_path / "bench.conf"
        config.write_text(
            "# benchmark settings\n"
            f"source = {source}\n"
            f"target = {target}\n"
            "alphas = 0.01,1\n"
            "betas = 0.1,1\n"
            "ks = 2,5\n"
            "pair_id = from-config\n"
            f"report = {tmp_path / 'r.csv'}\n"
        )
        code = main(["bench", "--config", str(config)])
        assert code == 0
        assert capsys.readouterr().out.startswith("from-config:")

    def test_explicit_flags_win(self, csv_pair, tmp_path, capsys):
        source, target = csv_pair
        config = tmp_path / "bench.conf"
        config.write_text(
            f"source = {source}\ntarget = {target}\n"
            "alphas = 0.01,1\nbetas = 0.1,1\nks = 2,5\n"
            "pair_id = from-config\n"
            f"report = {tmp_path / 'r.csv'}\n"
        )
        code = main(["bench", "--config", str(config), "--pair-id", "explicit"])
        assert code == 0
        assert capsys.readouterr().out.startswith("explicit:")

    def test_boolean_true_becomes_flag(self, tmp_path, capsys):
        pair = synth_shift_pair(4, 3, classes=2, seed=31)
        source, target = tmp_path / "s.csv", tmp_path / "t.csv"
        save_csv(pair.source, source)
        save_csv(pair.target, target)
        for path in (source, target):
            path.write_text("c0,c1,c2,label\n" + path.read_text())
        config = tmp_path / "fit.conf"
        config.write_text("header = true\n")
        code = main([
            "fit", "--config", str(config), "--source", str(source),
            "--target", str(target), "--alpha", "1", "--beta", "1", "--k", "2",
            "--out", str(tmp_path / "m.bin"),
        ])
        assert code == 0

    def test_equals_form_and_false_value(self, tmp_path):
        # a false value injects nothing; --config=PATH reads the file like --config PATH
        config = tmp_path / "fit.conf"
        config.write_text("header = false\nk = 3\n")
        argv = ["fit", f"--config={config}", "--alpha", "1"]
        assert _expand_config(argv) == ["fit", "--k", "3", *argv[1:]]

    def test_malformed_line_reports_error(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("just some words\n")
        code = main(["bench", "--config", str(config)])
        assert code == 1
        assert "expected key=value" in capsys.readouterr().err

    def test_missing_config_reports_error(self, tmp_path, capsys):
        code = main(["bench", "--config", str(tmp_path / "absent.conf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def test_every_option_named_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for command in commands.choices.values()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    missing = [o for o in sorted(options) if not re.search(re.escape(o) + r"(?![\w-])", readme)]
    assert missing == []
