"""Tests for the labelled dataset container."""

import numpy as np
import pytest

from repro.ml.dataset import LabeledDataset


def toy_dataset(n_per_class=10, classes=("a", "b", "c"), seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i, label in enumerate(classes):
        for _ in range(n_per_class):
            rows.append((rng.normal(loc=3.0 * i, size=4), label))
    return LabeledDataset.from_rows(rows)


class TestConstruction:
    def test_from_rows(self):
        dataset = toy_dataset()
        assert len(dataset) == 30
        assert dataset.n_features == 4
        assert dataset.classes() == ["a", "b", "c"]

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array(["a", "b"]))
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros(3), np.array(["a", "b", "c"]))
        with pytest.raises(ValueError):
            LabeledDataset.from_rows([])


class TestOperations:
    def test_class_counts(self):
        counts = toy_dataset().class_counts()
        assert counts == {"a": 10, "b": 10, "c": 10}

    def test_bootstrap_preserves_size(self):
        dataset = toy_dataset()
        sample = dataset.bootstrap(np.random.default_rng(1))
        assert len(sample) == len(dataset)

    def test_stratified_folds_cover_everything_once(self):
        dataset = toy_dataset()
        folds = dataset.stratified_folds(5, np.random.default_rng(1))
        all_indices = np.concatenate(folds)
        assert sorted(all_indices) == list(range(len(dataset)))
        for fold in folds:
            labels = [str(l) for l in dataset.labels[fold]]
            assert set(labels) == {"a", "b", "c"}

    def test_fold_count_validation(self):
        with pytest.raises(ValueError):
            toy_dataset().stratified_folds(1, np.random.default_rng(0))
