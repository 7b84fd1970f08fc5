import numpy as np
import pytest

from tlradapt.classify import (
    PredictionResult,
    accuracy,
    knn1_predict,
    no_adaptation_predict,
)
from tlradapt.dataset import DomainPair, LabeledMatrix, synth_shift_pair


class TestKnn1Predict:
    def test_hand_worked_neighbours(self):
        train = np.array([[0.0], [10.0]])
        labels = np.array([7, 9])
        test = np.array([[1.0], [9.0], [4.9]])
        result = knn1_predict(train, labels, test)
        assert result.predicted.tolist() == [7, 9, 7]

    def test_ties_take_lowest_train_index(self):
        train = np.array([[-1.0], [1.0]])
        result = knn1_predict(train, np.array([3, 4]), np.array([[0.0]]))
        assert result.predicted.tolist() == [3]

    def test_training_point_maps_to_itself(self):
        rng = np.random.default_rng(0)
        train = rng.standard_normal((20, 3))
        labels = np.arange(20)
        result = knn1_predict(train, labels, train)
        assert np.array_equal(result.predicted, labels)

    def test_accuracy_not_filled(self):
        result = knn1_predict(np.zeros((1, 1)), np.array([0]), np.zeros((2, 1)))
        assert result.accuracy is None

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths differ"):
            knn1_predict(np.zeros((2, 2)), np.array([0, 1]), np.zeros((2, 3)))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            knn1_predict(np.zeros((0, 2)), np.array([]), np.zeros((1, 2)))

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="one label per training row"):
            knn1_predict(np.zeros((2, 1)), np.array([0]), np.zeros((1, 1)))

    @pytest.mark.parametrize("name", ["train", "test"])
    def test_non_finite_rows_rejected(self, name):
        # argmin takes a NaN distance for the nearest, so a NaN row got training row 0's label
        rows = {"train": np.array([[0.0], [1.0]]), "test": np.array([[0.9]])}
        rows[name][0, 0] = np.nan
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            knn1_predict(rows["train"], np.array([3, 4]), rows["test"])


class TestAccuracy:
    def test_fraction(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 0, 4])) == 0.75

    def test_perfect_and_zero(self):
        assert accuracy(np.array([5]), np.array([5])) == 1.0
        assert accuracy(np.array([5]), np.array([6])) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            accuracy(np.array([1, 2]), np.array([1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty prediction"):
            accuracy(np.array([]), np.array([]))


class TestPredictionResult:
    def test_accuracy_range_checked(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PredictionResult(predicted=np.array([1]), accuracy=1.5)

    def test_labels_read_only(self):
        result = PredictionResult(predicted=np.array([1, 2]))
        with pytest.raises(ValueError):
            result.predicted[0] = 9


class TestNoAdaptationPredict:
    def test_fills_accuracy_from_target_labels(self):
        pair = DomainPair(
            source=LabeledMatrix(features=np.array([[0.0], [10.0]]), labels=np.array([0, 1])),
            target=LabeledMatrix(features=np.array([[1.0], [2.0], [9.0]]), labels=np.array([0, 1, 1])),
        )
        result = no_adaptation_predict(pair)
        assert result.predicted.tolist() == [0, 0, 1]
        assert result.accuracy == pytest.approx(2.0 / 3.0)

    def test_accuracy_none_without_target_labels(self):
        pair = DomainPair(
            source=LabeledMatrix(features=np.zeros((2, 1)), labels=np.array([0, 1])),
            target=LabeledMatrix(features=np.ones((2, 1)), labels=None),
        )
        assert no_adaptation_predict(pair).accuracy is None

    def test_easy_shift_scores_high(self):
        pair = synth_shift_pair(40, 6, classes=3, noise_std=0.2, seed=5)
        assert no_adaptation_predict(pair).accuracy >= 0.95
