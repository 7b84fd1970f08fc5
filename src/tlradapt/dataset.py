"""Feature matrices, standardization, per-class sampling, and synthetic shift pairs."""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Lower bound applied to standard deviations so constant columns stay usable.
STD_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class LabeledMatrix:
    """Dense real feature matrix, one sample per row, with optional class labels.

    Arrays are copied on construction and marked read-only, so instances are
    safe to share across threads.
    """

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D (rows are samples), got ndim={feats.ndim}")
        if feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features need at least one row and one column, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite entries")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
                raise ValueError(
                    f"labels must be a length-{feats.shape[0]} vector, got shape {labels.shape}"
                )
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be non-negative class ids")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class DomainPair:
    """A labeled source domain together with a target domain of equal width."""

    source: LabeledMatrix
    target: LabeledMatrix

    def __post_init__(self):
        if self.source.labels is None:
            raise ValueError("source domain must be labeled")
        if self.source.d != self.target.d:
            raise ValueError(
                f"source and target widths differ: {self.source.d} vs {self.target.d}"
            )


@dataclass(frozen=True, eq=False)
class ZScoreStats:
    """Per-column mean and (floored) standard deviation of a fitted matrix."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        std = np.array(self.std, dtype=float)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("statistics contain non-finite entries")
        if np.any(std <= 0):
            raise ValueError("std entries must be positive")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def load_csv(path, label_column: int | None = None, skip_header: bool = False) -> LabeledMatrix:
    """Load a comma-separated feature file.

    Args:
        path: file to read.
        label_column: index of the integer label column, or None for an
            unlabeled file. Negative indices count from the end (-1 is the
            last column). A bool, float or str raises ValueError.
        skip_header: True to drop the first line before parsing; not a bool raises ValueError.

    Feature fields must parse as finite reals and the label field, when
    requested, as a non-negative integer. Row and column numbers in error
    messages are 1-based and refer to the file as stored.

    One np.loadtxt pass reads a well-formed file: it rejects ragged rows, an
    out-of-range label column and, through Python's int, a label such as
    "1.5" or "1.0"; LabeledMatrix rejects non-finite features, negative
    labels and a file with no feature column. A file that either rejects, that
    has no data line (where np.loadtxt would warn), or whose labels reach 2**53
    (beyond what the float table holds exactly), is parsed again field by
    field, which gives the same values and names the first bad row and column.
    Threads may call load_csv at once: it writes no process-wide state.
    """
    label_column, skip_header = _label_column_arg(label_column), _skip_header_arg(skip_header)
    try:
        return _read_table(path, label_column, skip_header)
    except ValueError:
        pass
    features, labels = _parse_fields(path, label_column, skip_header)
    return LabeledMatrix(features, None if label_column is None else labels)


def _label_column_arg(label_column) -> int | None:
    """label_column as a Python int or None; ValueError for a str, float or bool."""
    if label_column is None:
        return None
    if isinstance(label_column, bool) or not isinstance(label_column, (int, np.integer)):
        raise ValueError(
            f"label_column must be an integer column index or None, got {label_column!r}"
        )
    return int(label_column)


def _skip_header_arg(skip_header) -> bool:
    """skip_header as a Python bool; ValueError unless it is a bool or np.bool_."""
    if not isinstance(skip_header, (bool, np.bool_)):
        raise ValueError(f"skip_header must be True or False, got {skip_header!r}")
    return bool(skip_header)


def _read_table(path, label_column, skip_header) -> LabeledMatrix:
    """The file as one np.loadtxt pass reads it; ValueError where load_csv parses fields."""
    with open(path, encoding="utf-8-sig") as handle:
        if not any(line.strip() for line in itertools.islice(handle, int(skip_header), None)):
            raise ValueError("no data line")
        handle.seek(0)
        table = np.loadtxt(
            handle, delimiter=",", comments=None, skiprows=int(skip_header), ndmin=2,
            converters=None if label_column is None else {label_column: int},
        )
    if label_column is None:
        return LabeledMatrix(table)
    labels = table[:, label_column]
    if labels.max() >= 2**53:
        raise ValueError("labels beyond the float table's exact integers")
    return LabeledMatrix(np.delete(table, label_column, axis=1), labels)


def _parse_fields(path, label_column, skip_header):
    """(features, labels) parsed field by field; raises ValueError naming the first bad field."""
    label_column = _label_column_arg(label_column)
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    label_index: int | None = None
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, record in enumerate(csv.reader(handle), start=1):
            if skip_header and lineno == 1:
                continue
            if not record or (len(record) == 1 and record[0].strip() == ""):
                continue
            if width is None:
                width = len(record)
                if label_column is not None:
                    label_index = label_column + width if label_column < 0 else label_column
                    if not 0 <= label_index < width:
                        raise ValueError(
                            f"{path}: label column {label_column} out of range for {width} fields"
                        )
                    if width < 2:
                        raise ValueError(f"{path}: no feature columns besides the label column")
            if len(record) != width:
                raise ValueError(
                    f"{path}: row {lineno}: expected {width} fields, found {len(record)}"
                )
            feature_row = []
            for col, field in enumerate(record):
                if col == label_index:
                    try:
                        value = int(field.strip(), 10)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"label {field!r} is not an integer"
                        ) from None
                    if value < 0:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"label {field!r} must be non-negative"
                        )
                    if value > np.iinfo(np.int64).max:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"label {field!r} exceeds the int64 maximum"
                        )
                    labels.append(value)
                else:
                    try:
                        number = float(field)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"cannot parse {field!r} as a real number"
                        ) from None
                    if not math.isfinite(number):
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: non-finite value {field!r}"
                        )
                    feature_row.append(number)
            rows.append(feature_row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=np.int64)


def save_csv(matrix: LabeledMatrix, path) -> None:
    """Write features as bare CSV, labels (when present) as a trailing integer column.

    Floats are written with repr so a reload reproduces them bit-exactly; no
    field needs quoting, as LabeledMatrix holds finite reals and int labels.
    Rows are written one at a time, each line ending in a bare LF.
    """
    labels = None if matrix.labels is None else matrix.labels.tolist()
    with open(path, "w", newline="") as handle:
        for i, row in enumerate(matrix.features):
            tail = "" if labels is None else f",{labels[i]}"
            handle.write(",".join(map(repr, row.tolist())) + tail + "\n")


def zscore_fit(matrix: LabeledMatrix) -> ZScoreStats:
    """Per-column mean and population standard deviation, floored at STD_FLOOR."""
    mean = matrix.features.mean(axis=0)
    std = np.maximum(matrix.features.std(axis=0), STD_FLOOR)
    return ZScoreStats(mean=mean, std=std)


def zscore_apply(matrix: LabeledMatrix, stats: ZScoreStats) -> LabeledMatrix:
    """Standardize columns with previously fitted statistics; labels carry over."""
    if stats.mean.shape[0] != matrix.d:
        raise ValueError(
            f"statistics fitted on {stats.mean.shape[0]} columns, matrix has {matrix.d}"
        )
    return LabeledMatrix((matrix.features - stats.mean) / stats.std, matrix.labels)


def standardize_pair(pair: DomainPair, mode: str = "per-domain") -> DomainPair:
    """Z-score a domain pair.

    mode "per-domain" fits statistics on each domain separately, "pooled" fits
    one set on the stacked domains, "none" returns the pair unchanged.
    """
    if mode == "none":
        return pair
    if mode == "per-domain":
        return DomainPair(
            zscore_apply(pair.source, zscore_fit(pair.source)),
            zscore_apply(pair.target, zscore_fit(pair.target)),
        )
    if mode == "pooled":
        stacked = LabeledMatrix(np.vstack([pair.source.features, pair.target.features]))
        stats = zscore_fit(stacked)
        return DomainPair(zscore_apply(pair.source, stats), zscore_apply(pair.target, stats))
    raise ValueError(f"unknown standardization mode {mode!r}")


def sample_per_class(matrix: LabeledMatrix, per_class: int, seed: int) -> LabeledMatrix:
    """Draw up to per_class rows per class, uniformly without replacement.

    Output rows are grouped by ascending class id, inside a class in draw
    order. A fixed seed fixes the draw exactly.
    """
    if matrix.labels is None:
        raise ValueError("per-class sampling needs labels")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    rng = np.random.default_rng(seed)
    picks = []
    for cls in np.unique(matrix.labels):
        members = np.flatnonzero(matrix.labels == cls)
        take = min(per_class, members.size)
        picks.append(rng.choice(members, size=take, replace=False))
    order = np.concatenate(picks)
    return LabeledMatrix(matrix.features[order], matrix.labels[order])


def synth_shift_pair(
    n_per_class: int,
    d: int,
    classes: int,
    rotation_deg: float = 0.0,
    translation: float = 0.0,
    noise_std: float = 1.0,
    seed: int = 0,
) -> DomainPair:
    """Generate a labeled source/target pair with a controlled domain shift.

    Both domains draw isotropic Gaussian blobs around shared class centers,
    whose coordinates are standard normal draws. The target draw is then
    rotated by rotation_deg in the first two coordinates and offset by the
    scalar translation added to every coordinate. With zero rotation,
    translation, and noise the two domains come out bitwise identical.

    Args:
        n_per_class: samples per class in each domain.
        d: feature width, at least 2 so the rotation plane exists.
        classes: number of classes, at least 2.
        rotation_deg: rotation angle applied to target coordinates 0 and 1.
        translation: constant added to every target coordinate.
        noise_std: standard deviation of the blobs.
        seed: seeds centers and both draws.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    if d < 2:
        raise ValueError(f"d must be >= 2 so the rotation plane exists, got {d}")
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    for name, value in (
        ("rotation_deg", rotation_deg), ("translation", translation), ("noise_std", noise_std)
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, d))
    labels = np.repeat(np.arange(classes), n_per_class)
    source_noise = rng.standard_normal((labels.size, d))
    target_noise = rng.standard_normal((labels.size, d))
    x_source = centers[labels] + noise_std * source_noise
    x_target = centers[labels] + noise_std * target_noise
    theta = math.radians(rotation_deg)
    plane = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    x_target[:, :2] = x_target[:, :2] @ plane.T
    x_target += translation
    return DomainPair(
        LabeledMatrix(x_source, labels),
        LabeledMatrix(x_target, labels),
    )
