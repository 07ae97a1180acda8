"""Tests for cross validation and confusion matrices."""

import numpy as np
import pytest

from repro.ml.dataset import LabeledDataset
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.naive_bayes import GaussianNaiveBayesClassifier
from repro.ml.validation import ConfusionMatrix, cross_validate


def dataset_with_structure(seed=0, n=60):
    rng = np.random.default_rng(seed)
    rows = []
    for label, centre in (("a", 0.0), ("b", 4.0), ("c", 8.0)):
        for _ in range(n):
            rows.append((rng.normal(loc=centre, scale=0.7, size=2), label))
    return LabeledDataset.from_rows(rows)


class TestConfusionMatrix:
    def test_accuracy_and_per_class(self):
        matrix = ConfusionMatrix.empty(["a", "b"])
        for _ in range(8):
            matrix.record("a", "a")
        matrix.record("a", "b")
        matrix.record("b", "b")
        assert matrix.accuracy() == pytest.approx(9 / 10)
        assert matrix.per_class_accuracy()["a"] == pytest.approx(8 / 9)
        assert matrix.per_class_accuracy()["b"] == 1.0

    def test_row_percentages_sum_to_100(self):
        matrix = ConfusionMatrix.empty(["a", "b"])
        matrix.record("a", "a")
        matrix.record("a", "b")
        matrix.record("b", "b")
        rows = matrix.row_percentages()
        assert np.allclose(rows.sum(axis=1), 100.0)

    def test_unknown_labels_grow_matrix(self):
        matrix = ConfusionMatrix.empty(["a"])
        matrix.record("a", "zzz")
        assert "zzz" in matrix.labels
        assert matrix.counts.shape == (2, 2)

    def test_empty_accuracy_zero(self):
        assert ConfusionMatrix.empty(["a"]).accuracy() == 0.0


class TestCrossValidation:
    def test_high_accuracy_on_separable_data(self):
        result = cross_validate(dataset_with_structure(),
                                lambda: GaussianNaiveBayesClassifier(), n_folds=5)
        assert result.accuracy > 0.9
        assert len(result.fold_accuracies) == 5

    def test_confusion_covers_all_samples(self):
        dataset = dataset_with_structure()
        result = cross_validate(dataset, lambda: DecisionTreeClassifier(), n_folds=6)
        assert result.confusion.counts.sum() == len(dataset)
