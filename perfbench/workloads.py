"""The benchmark's workloads: inputs made from a seed, one timed operation, output checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. ``prepare`` makes the
inputs (and is repeated to time set-up); ``operation`` is what is timed;
``check`` compares an operation's outputs with the run's first operation and
with the stored reference.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tlradapt import bench, classify, cli, dataset, kernels, mmd, tlr

DEFAULT_SEED = 0

# Upper bound on the relative eigen-equation residual of a solved model.
STATIONARITY_TOLERANCE = 1e-8

# Time limit for one `tlr-adapt bench` subprocess.
SUBPROCESS_TIMEOUT_S = 170



def _reference(name: str, seed: int, smoke: bool) -> dict | None:
    """The stored result of a full-size run at the default seed; None elsewhere."""
    if smoke or seed != DEFAULT_SEED:
        return None
    return json.loads((Path(__file__).parent / "reference.json").read_text())[name]


def _canonical_ratio(alpha: float, beta: float) -> float:
    """beta/alpha rounded to 12 significant digits, so 1e-4/1e-5 and 1e-3/1e-4 coincide."""
    return float(f"{beta / alpha:.12g}")


class GridOutcome:
    """Per-run accuracies of every evaluated configuration, in grid order."""

    def __init__(self, configs: list[tuple[float, float, int]], scores: np.ndarray):
        self.configs = configs
        self.scores = scores

    @classmethod
    def from_report_csv(cls, text: str) -> "GridOutcome":
        rows = list(csv.reader(io.StringIO(text)))
        if tuple(rows[0]) != bench.CSV_HEADER:
            raise ValueError(f"unexpected report header {rows[0]!r}")
        by_config: dict[tuple[float, float, int], dict[int, float]] = {}
        for _, alpha, beta, k, run, value in rows[1:]:
            by_config.setdefault((float(alpha), float(beta), int(k)), {})[int(run)] = float(value)
        runs = max(len(per_run) for per_run in by_config.values())
        if any(sorted(per_run) != list(range(runs)) for per_run in by_config.values()):
            raise ValueError("report does not hold every run of every configuration")
        configs = list(by_config)
        scores = np.array([[by_config[c][r] for r in range(runs)] for c in configs])
        return cls(configs, scores)

    @property
    def runs(self) -> int:
        return self.scores.shape[1]

    def best(self) -> tuple[float, float, int, float]:
        """(alpha, beta, k, mean accuracy) of the best configuration; ties go to the earliest."""
        means = self.scores.mean(axis=1)
        index = int(np.argmax(means))
        return (*self.configs[index], float(means[index]))

    def useful_solves(self) -> int:
        """Eigensolves that distinct weight ratios need: one per canonical ratio and run."""
        return len({_canonical_ratio(a, b) for a, b, _ in self.configs}) * self.runs


def _check_grid(outcome, first, expected_configs, raw_accuracy, reference):
    problems = []
    if len(outcome.configs) != expected_configs:
        problems.append(f"{len(outcome.configs)} configurations evaluated, {expected_configs} expected")
    if first is not None and (
        outcome.configs != first.configs or not np.array_equal(outcome.scores, first.scores)
    ):
        problems.append("accuracies differ from the first operation of this run")
    best = outcome.best()
    if reference is not None and list(best) != reference["best"]:
        problems.append(f"best {best} differs from the reference {tuple(reference['best'])}")
    if best[3] < raw_accuracy:
        problems.append(f"best accuracy {best[3]} is below raw 1-NN accuracy {raw_accuracy}")
    return problems


def _zscored_shift_pair(n_per_class, d, classes, noise_std, seed):
    pair = dataset.synth_shift_pair(
        n_per_class, d, classes=classes, rotation_deg=60, translation=1, noise_std=noise_std, seed=seed
    )
    return dataset.standardize_pair(pair)


class GridLinearLowrank:
    """grid_search over the default grid, 1 run, linear kernel, n=1200 at rank 20."""

    name = "grid_linear_lowrank"
    in_process = True

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.seed = seed
        self.reference = _reference(self.name, seed, smoke)
        if smoke:
            self.n_per_class, self.d = 10, 6
            self.grid = bench.GridSpec(alphas=(1e-5, 1.0), betas=(1e-5, 1.0), ks=(2, 4))
        else:
            self.n_per_class, self.d = 150, 20
            self.grid = bench.GridSpec.default()
        self.kernel = kernels.KernelSpec("linear")

    def prepare(self) -> None:
        self.pair = _zscored_shift_pair(self.n_per_class, self.d, 4, 1.5, self.seed)
        self.raw_accuracy = classify.no_adaptation_predict(self.pair).accuracy
        warm = _zscored_shift_pair(self.n_per_class // 4, self.d, 4, 1.5, self.seed)
        bench.grid_search(warm, grid=self.grid, kernel=self.kernel)

    def operation(self) -> dict:
        started = time.perf_counter()
        report = bench.grid_search(self.pair, grid=self.grid, kernel=self.kernel, runs=1)
        wall = time.perf_counter() - started
        scores = np.array([record.accuracies for record in report.records])
        configs = [(r.alpha, r.beta, r.k) for r in report.records]
        grid = GridOutcome(configs, scores)
        return {"wall_s": wall, "grid": grid, "useful_solves": grid.useful_solves()}

    def check(self, outcome: dict, first: dict | None) -> list[str]:
        return _check_grid(
            outcome["grid"],
            None if first is None else first["grid"],
            len(self.grid.configurations()),
            self.raw_accuracy,
            self.reference,
        )


class ProtocolCli4da:
    """`tlr-adapt bench` over CSV files shaped like the webcam->DSLR repeated-draw protocol."""

    name = "protocol_cli_4da"
    # The timed run starts the command line as a subprocess; a traced run sets
    # this to True, because wrappers cannot reach into another process.
    in_process = False

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.seed = seed
        self.reference = _reference(self.name, seed, smoke)
        self.dir = out_dir / f"{self.name}-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        if smoke:
            self.classes, self.d, self.rows, self.noise = 3, 8, 10, 1.0
            per_class, runs = 4, 2
            grid_flags = ["--alphas", "1e-5,1", "--betas", "1e-5,1", "--ks", "2,4"]
            self.expected_configs = 8
        else:
            self.classes, self.d, self.rows, self.noise = 10, 800, 30, 5.0
            per_class, runs = 8, 10
            grid_flags = []
            self.expected_configs = len(bench.GridSpec.default().configurations())
        self.report = self.dir / "report.csv"
        self.argv = [
            "bench",
            "--source", str(self.dir / "source.csv"),
            "--target", str(self.dir / "target.csv"),
            "--per-class", str(per_class),
            "--runs", str(runs),
            "--kernel", "linear",
            "--jobs", "1",
            "--format", "csv",
            "--report", str(self.report),
            *grid_flags,
        ]

    def prepare(self) -> None:
        pair = dataset.synth_shift_pair(
            self.rows, self.d, classes=self.classes, rotation_deg=60, translation=1,
            noise_std=self.noise, seed=self.seed,
        )
        dataset.save_csv(pair.source, self.dir / "source.csv")
        dataset.save_csv(pair.target, self.dir / "target.csv")
        self.raw_accuracy = classify.no_adaptation_predict(dataset.standardize_pair(pair)).accuracy
        warm = dataset.synth_shift_pair(4, 4, classes=2, seed=self.seed)
        dataset.save_csv(warm.source, self.dir / "warm_source.csv")
        dataset.save_csv(warm.target, self.dir / "warm_target.csv")
        warm_argv = [
            "bench", "--source", str(self.dir / "warm_source.csv"),
            "--target", str(self.dir / "warm_target.csv"),
            "--alphas", "1", "--betas", "1", "--ks", "1",
            "--report", str(self.dir / "warm_report.csv"),
        ]
        code, output = self._run_cli(warm_argv)
        if code != 0:
            raise RuntimeError(f"warm-up command failed with exit code {code}: {output}")

    def _run_cli(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = cli.main(argv)
            return code, captured.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "tlradapt.cli", *argv],
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
            env=os.environ,
        )
        return done.returncode, done.stdout + done.stderr

    def operation(self) -> dict:
        self.report.unlink(missing_ok=True)
        started = time.perf_counter()
        code, output = self._run_cli(self.argv)
        wall = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"tlr-adapt bench exited with code {code}: {output.strip()}")
        data = self.report.read_bytes()
        grid = GridOutcome.from_report_csv(data.decode())
        return {"wall_s": wall, "report": data, "grid": grid, "useful_solves": grid.useful_solves()}

    def check(self, outcome: dict, first: dict | None) -> list[str]:
        problems = _check_grid(
            outcome["grid"],
            None if first is None else first["grid"],
            self.expected_configs,
            self.raw_accuracy,
            self.reference,
        )
        if first is not None and outcome["report"] != first["report"]:
            problems.append("CSV report bytes differ from the first report of this run")
        return problems


class FitRbfServe:
    """fit at n=1600 with the RBF kernel, save and load the model, embed held-out rows, 1-NN."""

    name = "fit_rbf_serve"
    in_process = True

    def __init__(self, seed: int, out_dir: Path, smoke: bool):
        self.seed = seed
        self.reference = _reference(self.name, seed, smoke)
        self.model_path = out_dir / f"{self.name}-seed{seed}.npz"
        out_dir.mkdir(parents=True, exist_ok=True)
        if smoke:
            self.train_rows, self.held_rows, self.d = 20, 5, 5
            self.hyper = tlr.TlrHyperparams(alpha=1e-5, beta=1e-4, k=4)
        else:
            self.train_rows, self.held_rows, self.d = 200, 50, 20
            self.hyper = tlr.TlrHyperparams(alpha=1e-5, beta=1e-4, k=10)
        self.classes = 4
        self.kernel = kernels.KernelSpec("rbf")

    def _split_pair(self, train_rows: int, held_rows: int):
        """Training pair plus held-out target rows, z-scored with the training target's statistics."""
        per_class = train_rows + held_rows
        pair = dataset.synth_shift_pair(
            per_class, self.d, classes=self.classes, rotation_deg=60, translation=1,
            noise_std=1.5, seed=self.seed,
        )
        starts = np.arange(self.classes) * per_class
        train = np.concatenate([np.arange(s, s + train_rows) for s in starts])
        held = np.concatenate([np.arange(s + train_rows, s + per_class) for s in starts])
        source = dataset.LabeledMatrix(pair.source.features[train], pair.source.labels[train])
        target = dataset.LabeledMatrix(pair.target.features[train], pair.target.labels[train])
        heldout = dataset.LabeledMatrix(pair.target.features[held], pair.target.labels[held])
        stats = dataset.zscore_fit(target)
        zscored = dataset.DomainPair(
            dataset.zscore_apply(source, dataset.zscore_fit(source)),
            dataset.zscore_apply(target, stats),
        )
        return zscored, dataset.zscore_apply(heldout, stats)

    def prepare(self) -> None:
        self.pair, self.heldout = self._split_pair(self.train_rows, self.held_rows)
        raw = classify.knn1_predict(
            self.pair.source.features, self.pair.source.labels, self.heldout.features
        ).predicted
        self.raw_accuracy = classify.accuracy(raw, self.heldout.labels)
        warm_pair, warm_heldout = self._split_pair(self.train_rows // 4, self.held_rows)
        self._serve(warm_pair, warm_heldout)

    def _serve(self, pair, heldout) -> dict:
        started = time.perf_counter()
        model, latent_source, _ = tlr.fit(pair, self.hyper, self.kernel)
        fitted = time.perf_counter()
        tlr.save_model(model, self.model_path)
        saved = time.perf_counter()
        loaded = tlr.load_model(self.model_path)
        predicted = classify.knn1_predict(
            latent_source, pair.source.labels, loaded.embed(heldout.features)
        ).predicted
        done = time.perf_counter()
        return {
            "wall_s": done - started,
            "fit_s": fitted - started,
            "serve_s": done - saved,
            "model": model,
            "loaded": loaded,
            "predicted": predicted,
            "accuracy": classify.accuracy(predicted, heldout.labels),
            "useful_solves": 1,
        }

    def operation(self) -> dict:
        return self._serve(self.pair, self.heldout)

    def check(self, outcome: dict, first: dict | None) -> list[str]:
        problems = []
        model, loaded = outcome["model"], outcome["loaded"]
        if not (
            np.array_equal(model.W, loaded.W)
            and np.array_equal(model.eigenvalues, loaded.eigenvalues)
            and np.array_equal(model.train_features, loaded.train_features)
            and model.kernel == loaded.kernel
            and model.hyper == loaded.hyper
        ):
            problems.append("the loaded model differs from the saved one")
        if first is None:
            residual = self._stationarity_residual(model)
            if not residual <= STATIONARITY_TOLERANCE:
                problems.append(f"stationarity residual {residual:.3e} above {STATIONARITY_TOLERANCE}")
        elif not (
            np.array_equal(model.W, first["model"].W)
            and np.array_equal(outcome["predicted"], first["predicted"])
        ):
            problems.append("model or predictions differ from the first operation of this run")
        if self.reference is not None and outcome["accuracy"] != self.reference["accuracy"]:
            problems.append(
                f"held-out accuracy {outcome['accuracy']} differs from the reference "
                f"{self.reference['accuracy']}"
            )
        if outcome["accuracy"] < self.raw_accuracy:
            problems.append(
                f"held-out accuracy {outcome['accuracy']} is below raw 1-NN accuracy {self.raw_accuracy}"
            )
        return problems

    def _stationarity_residual(self, model) -> float:
        n1, n2 = self.pair.source.n, self.pair.target.n
        joint = kernels.build_joint_kernel(
            self.pair.source.features, self.pair.target.features, model.kernel
        )
        M = tlr.build_M(n1, n2, self.hyper.alpha, self.hyper.beta)
        return tlr.stationarity_residual(model, tlr.build_AB(joint, mmd.mmd_matrix(n1, n2), M))


WORKLOADS = {w.name: w for w in (GridLinearLowrank, ProtocolCli4da, FitRbfServe)}
