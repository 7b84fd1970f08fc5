"""Nearest-neighbour evaluation and the no-adaptation baseline."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import DomainPair


@dataclass(frozen=True, eq=False)
class PredictionResult:
    """Predicted labels for a test block, with accuracy when truth was known."""

    predicted: np.ndarray
    accuracy: float | None = None

    def __post_init__(self):
        predicted = np.array(self.predicted, dtype=np.int64)
        if predicted.ndim != 1:
            raise ValueError("predicted labels must form a vector")
        predicted.setflags(write=False)
        object.__setattr__(self, "predicted", predicted)
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy}")


def knn1_predict(
    train: np.ndarray, train_labels: np.ndarray, test: np.ndarray
) -> PredictionResult:
    """Label each test row with its nearest training row's label.

    Distances are Euclidean; exact ties resolve to the lowest training row
    index, so results are deterministic.
    Raises ValueError naming train or test when it has a non-finite entry.
    """
    train = np.asarray(train, dtype=float)
    test = np.asarray(test, dtype=float)
    labels = np.asarray(train_labels)
    if train.ndim != 2 or test.ndim != 2:
        raise ValueError("train and test must be 2-D sample matrices")
    if train.shape[1] != test.shape[1]:
        raise ValueError(f"feature widths differ: {train.shape[1]} vs {test.shape[1]}")
    if train.shape[0] < 1:
        raise ValueError("training set is empty")
    if labels.shape != (train.shape[0],):
        raise ValueError("one label per training row is required")
    for name, rows in (("train", train), ("test", test)):
        if not np.isfinite(rows).all():
            raise ValueError(f"{name} has non-finite entries")
    nearest = cdist(test, train, "sqeuclidean").argmin(axis=1)
    return PredictionResult(predicted=labels[nearest])


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of positions where predicted equals truth; ValueError when there are none."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    if not predicted.size:
        raise ValueError("accuracy of an empty prediction is undefined")
    return float(np.mean(predicted == truth))


def no_adaptation_predict(pair: DomainPair) -> PredictionResult:
    """1-NN from raw source rows to raw target rows, no projection at all."""
    result = knn1_predict(pair.source.features, pair.source.labels, pair.target.features)
    if pair.target.labels is None:
        return result
    return PredictionResult(
        predicted=result.predicted,
        accuracy=accuracy(result.predicted, pair.target.labels),
    )
