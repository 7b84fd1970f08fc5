"""Grid-search benchmark harness for the transductive evaluation protocol."""

import csv
import logging
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ._blas import eigh
from .classify import accuracy
from .dataset import DomainPair, LabeledMatrix, sample_per_class
from .kernels import JointKernel, KernelSpec, build_joint_kernel
from .mmd import mmd_latent, mmd_matrix, mmd_trace
from .tlr import eigen_basis  # noqa: F401  traced by perfbench/spans.py
from .tlr import latent_width, leading_basis, numerical_rank, pencil_blocks, range_factor

logger = logging.getLogger(__name__)

CSV_HEADER = ("pair", "alpha", "beta", "k", "run", "accuracy")

# float64 elements in each of _accuracy_by_width's two 1-NN buffers
# (512 KiB). At n1 = n2 = 600 a fresh 600 x 600 accumulator per weight ratio
# and a fresh cdist output per width cost 22,473 minor page faults per
# default-grid search, about 70 ms at 3.3 us per fault on a 2-vCPU KVM Xeon;
# blocks of 109 target rows cost 0-0.5. The two buffers are one allocation:
# glibc trims the heap once its free top reaches twice the largest chunk it
# has unmapped, so two separate 512 KiB buffers were trimmed and faulted in
# again for every ratio, about 2,450 faults per search in a fresh process.
# Blocks rather than whole n2 x n1 buffers keep 4.2 MiB less in flight.
_NN_BLOCK = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter search space, enumerated alphas-outer to ks-inner."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    ks: tuple[int, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        betas = tuple(float(b) for b in self.betas)
        ks = tuple(latent_width(k) for k in self.ks)
        if not alphas or not betas or not ks:
            raise ValueError("grid axes must be non-empty")
        if any(not np.isfinite(v) or v <= 0 for v in alphas + betas):
            raise ValueError("alphas and betas must be positive finite reals")
        if max(betas) / min(alphas) == np.inf:  # the grid solves one pencil per ratio
            raise ValueError(f"beta/alpha overflows at beta={max(betas)} and alpha={min(alphas)}")
        for name, axis in (("alphas", alphas), ("betas", betas), ("ks", ks)):
            if len(set(axis)) < len(axis):
                raise ValueError(f"{name} repeat a value, which would score configurations twice")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "ks", ks)

    @classmethod
    def default(cls) -> "GridSpec":
        """The standard search space: 6 weights per axis times 20 widths."""
        return cls(
            alphas=tuple(10.0**e for e in range(-5, 1)),
            betas=tuple(10.0**e for e in range(-5, 1)),
            ks=tuple(range(10, 201, 10)),
        )

    def configurations(self) -> list[tuple[float, float, int]]:
        """Every (alpha, beta, k) triple in enumeration order."""
        return [(a, b, k) for a in self.alphas for b in self.betas for k in self.ks]


@dataclass(frozen=True)
class ConfigResult:
    """Per-run accuracies of one configuration."""

    alpha: float
    beta: float
    k: int
    accuracies: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))


@dataclass(frozen=True)
class SkippedConfig:
    """A configuration left out of evaluation, with the reason logged."""

    alpha: float
    beta: float
    k: int
    reason: str


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Everything one grid search produced, in grid enumeration order."""

    pair_id: str
    records: tuple[ConfigResult, ...]
    skipped: tuple[SkippedConfig, ...]
    train_sizes: tuple[int, ...]
    run_seconds: tuple[float, ...]
    wall_time_seconds: float

    @property
    def best(self) -> ConfigResult:
        """Record with the highest mean accuracy; ties go to the earliest."""
        means = [record.mean_accuracy for record in self.records]
        return self.records[int(np.argmax(means))]


def grid_search(
    pair: DomainPair,
    grid: GridSpec | None = None,
    kernel: KernelSpec | None = None,
    runs: int = 1,
    seed: int = 0,
    per_class: int | None = None,
    jobs: int = 1,
    pair_id: str = "pair",
) -> ExperimentReport:
    """Score every grid configuration by fitting and 1-NN classifying the target.

    With per_class set, every run redraws that many source rows per class;
    accuracies are recorded per run and averaged per configuration. Without
    per_class every run would score the same rows, so runs must be 1.
    Configurations whose k reaches n1 + n2 are skipped with a logged warning
    but stay accounted for in the report. Every draw has one size, so the
    first fixes n1 for all runs; each later draw replaces the one before, as
    keeping them all costs memory. With jobs > 1 one pool of that many
    threads serves every run. Deterministic for a fixed seed at any jobs,
    because worker results are merged by weight ratio and width.
    """
    grid = grid or GridSpec.default()
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if runs > 1 and per_class is None:
        raise ValueError(f"runs={runs} needs per_class; without it every run scores the same rows")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if pair.target.labels is None:
        raise ValueError("target labels are required to score a benchmark")
    draws = (
        pair.source if per_class is None else sample_per_class(pair.source, per_class, int(s))
        for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=runs)
    )
    started = time.perf_counter()
    train = next(draws)
    n_total = train.n + pair.target.n

    evaluated = [config for config in grid.configurations() if config[2] < n_total]
    skipped = [
        SkippedConfig(alpha=alpha, beta=beta, k=k, reason=f"k={k} >= n1+n2={n_total}")
        for alpha, beta, k in grid.configurations()
        if k >= n_total
    ]
    for width, count in sorted(Counter(entry.k for entry in skipped).items()):
        logger.warning(
            "skipping %d configuration(s) with k=%d: k >= n1+n2=%d", count, width, n_total
        )
    if not evaluated:
        raise ValueError(f"empty effective grid: every k is >= n1+n2={n_total}")

    columns: list[list[float]] = []
    run_seconds: list[float] = []
    # one job stays in the calling thread: a one-worker pool gives the same report bytes
    # but raised the protocol CLI's peak RSS from 87.1-87.2 to 88.8-89.0 MiB (6 of 6)
    with ThreadPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        for run in range(runs):
            run_started = time.perf_counter()
            if run:
                train = next(draws)
            columns.append(_score_run(train, pair.target, kernel, evaluated, mapper))
            run_seconds.append(time.perf_counter() - run_started)

    records = tuple(
        ConfigResult(alpha=alpha, beta=beta, k=k, accuracies=values)
        for (alpha, beta, k), values in zip(evaluated, zip(*columns))
    )
    return ExperimentReport(
        pair_id=pair_id,
        records=records,
        skipped=tuple(skipped),
        train_sizes=(train.n,) * runs,
        run_seconds=tuple(run_seconds),
        wall_time_seconds=time.perf_counter() - started,
    )


def _canonical_ratio(alpha: float, beta: float) -> float:
    """beta/alpha rounded to 12 significant digits, so 1e-4/1e-5 and 1e-3/1e-4 coincide."""
    return float(f"{beta / alpha:.12g}")


def _score_run(
    train: LabeledMatrix,
    target: LabeledMatrix,
    kernel: KernelSpec | None,
    configurations: list[tuple[float, float, int]],
    mapper: Callable,
) -> list[float]:
    """Target accuracy of every (alpha, beta, k) configuration, in the given order.

    K is factored once per run (_range_factor) into F = K U, with U its
    eigenvectors of rank r, which pencil_blocks reduces the solve to. The
    latents are F z = K w, as in fit, so duplicate samples get bitwise-equal
    latent rows and 1-NN ties go to the lowest row index there too.
    Configurations with one beta/alpha ratio at 12 significant digits share a
    basis (scaling both weights scales only the eigenvalues), and smaller
    widths are leading column slices of larger ones, so the run takes one
    r x r solve per ratio, each solved and scored by mapper: map or a pool's.
    Widths above r reuse the rank-r accuracy: their further latent columns
    are zero.
    """
    n1 = train.n
    factor = _range_factor(train, target, kernel)
    rank = factor.shape[1]
    source_part, target_part, gap = pencil_blocks(factor, n1)

    keys = [(_canonical_ratio(alpha, beta), min(k, rank)) for alpha, beta, k in configurations]
    groups: dict[float, set[int]] = {}
    for ratio, width in keys:
        groups.setdefault(ratio, set()).add(width)
    saturated = sorted({k for _, _, k in configurations if k > rank})
    if saturated:
        logger.info(
            "numerical rank of K is %d; widths %s reuse the rank-%d accuracy",
            rank, ", ".join(map(str, saturated)), rank,
        )

    def score_group(ratio: float, widths: set[int]) -> dict[int, float]:
        ordered = sorted(widths)
        _, basis = leading_basis(source_part + ratio * target_part, gap, ordered[-1])
        return _accuracy_by_width(factor @ basis, n1, train.labels, target.labels, ordered)

    by_ratio = dict(zip(groups, mapper(score_group, groups, groups.values())))
    return [by_ratio[ratio][width] for ratio, width in keys]


def _range_factor(
    train: LabeledMatrix, target: LabeledMatrix, kernel: KernelSpec | None
) -> np.ndarray:
    """F = K U up to column signs, U the top eigenvectors of K: range_factor's, or eigh(K)'s."""
    factored = range_factor(train.features, target.features, kernel)
    if factored is not None:
        return factored[0] * factored[1]  # (X V) s
    K = build_joint_kernel(train.features, target.features, kernel).K
    spectrum, vectors = eigh(K)
    return K @ vectors[:, -numerical_rank(spectrum, K.shape[0]) :]


def _accuracy_by_width(
    latent: np.ndarray,
    n1: int,
    train_labels: np.ndarray,
    target_labels: np.ndarray,
    widths: list[int],
) -> dict[int, float]:
    """1-NN target accuracy for each latent width, widths ascending.

    latent stacks the n1 source rows over the target rows. The target rows
    are walked in blocks of _NN_BLOCK // n1 rows (at least one) through two
    buffers allocated together once per call. In each block, squared distances
    accumulate over column blocks so each width extends the previous one
    instead of starting over. A pair's cdist value does not depend on the
    other rows passed, and the first width is written rather than added to
    zeros, so the distances are bitwise those of one whole-matrix pass. Ties
    resolve to the lowest training row index, matching knn1_predict.
    """
    latent_s, latent_t = latent[:n1], latent[n1:]
    n2 = latent_t.shape[0]
    rows = min(n2, max(1, _NN_BLOCK // n1))
    buffers = np.empty((2, rows, n1))
    nearest = np.empty((len(widths), n2), dtype=np.intp)
    for start in range(0, n2, rows):
        block_t = latent_t[start : start + rows]
        distances, part = (buffer[: block_t.shape[0]] for buffer in buffers)
        lower = 0
        for index, width in enumerate(widths):
            if lower:
                distances += cdist(
                    block_t[:, lower:width], latent_s[:, lower:width], "sqeuclidean", out=part
                )
            else:
                cdist(block_t[:, :width], latent_s[:, :width], "sqeuclidean", out=distances)
            lower = width
            distances.argmin(axis=1, out=nearest[index, start : start + rows])
    labels = np.asarray(train_labels)
    return {width: accuracy(labels[row], target_labels) for width, row in zip(widths, nearest)}


def run_protocol_ixmas_style(
    pair: DomainPair, per_class: int = 30, runs: int = 10, **options
) -> ExperimentReport:
    """Repeated-draw protocol: fixed-size per-class training samples, full target.

    Every other keyword (grid, kernel, seed, jobs, pair_id) goes to grid_search.
    """
    return grid_search(pair, runs=runs, per_class=per_class, **options)


def relative_latent_gap(p_source: np.ndarray, p_target: np.ndarray) -> float:
    """Squared latent mean gap over the mean squared latent sample norm."""
    stacked = np.vstack([p_source, p_target])
    energy = float(np.mean(np.sum(stacked * stacked, axis=1)))
    return mmd_latent(p_source, p_target) / max(energy, 1e-300)


def relative_kernel_gap(kernel: JointKernel) -> float:
    """Unprojected kernel-space mean gap over the mean sample self-similarity.

    Normalized the same way as relative_latent_gap: the trace-form gap is the
    squared mean difference of the kernel embedding, and the mean diagonal is
    that embedding's mean squared sample norm.
    """
    energy = float(np.mean(np.diagonal(kernel.K)))
    return mmd_trace(kernel, mmd_matrix(kernel.n1, kernel.n2)) / max(energy, 1e-300)


@dataclass(frozen=True)
class ReportRow:
    """One CSV line of a report: a single run of a single configuration."""

    pair: str
    alpha: float
    beta: float
    k: int
    run: int
    accuracy: float


def emit_report(report: ExperimentReport, path, format: str = "csv") -> None:
    """Write a report as CSV (one row per configuration and run) or markdown."""
    if format == "csv":
        _emit_csv(report, path)
    elif format == "markdown":
        _emit_markdown(report, path)
    else:
        raise ValueError(f"format must be 'csv' or 'markdown', got {format!r}")


def _emit_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in report.records:
            for run, value in enumerate(record.accuracies):
                writer.writerow(
                    [
                        report.pair_id,
                        repr(float(record.alpha)),
                        repr(float(record.beta)),
                        record.k,
                        run,
                        repr(float(value)),
                    ]
                )


def read_report_csv(path) -> list[ReportRow]:
    """Parse a CSV report back into rows; floats round-trip exactly.

    Raises ValueError naming the line of a row without one field per column
    or with a field that does not parse as its column's number.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected report header {header!r}")
        for row in filter(None, reader):
            if len(row) != len(CSV_HEADER):
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {len(CSV_HEADER)} fields, "
                    f"found {len(row)}"
                )
            pair, alpha, beta, k, run, accuracy = row
            try:
                rows.append(
                    ReportRow(pair, float(alpha), float(beta), int(k), int(run), float(accuracy))
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def _emit_markdown(report: ExperimentReport, path) -> None:
    best = report.best
    runs = len(report.records[0].accuracies) if report.records else 0
    lines = [
        f"# Benchmark: {report.pair_id}",
        "",
        f"- configurations: {len(report.records)} evaluated, {len(report.skipped)} skipped",
        f"- runs per configuration: {runs}",
        f"- training sizes per run: {', '.join(str(s) for s in report.train_sizes)}",
        f"- wall time: {report.wall_time_seconds:.2f} s",
        f"- best: alpha={best.alpha:g}, beta={best.beta:g}, k={best.k}, "
        f"mean accuracy {best.mean_accuracy:.4f}",
        "",
        "| alpha | beta | k | mean accuracy |",
        "| --- | --- | --- | --- |",
    ]
    for record in report.records:
        cells = [
            f"{record.alpha:g}",
            f"{record.beta:g}",
            str(record.k),
            f"{record.mean_accuracy:.4f}",
        ]
        if record is best:
            cells = [f"**{cell}**" for cell in cells]
        lines.append("| " + " | ".join(cells) + " |")
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
