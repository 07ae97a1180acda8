"""Cross validation and confusion matrices.

The paper evaluates its classifiers with 10-fold cross validation
(Section VII-A3) and reports the per-algorithm confusion matrix (Table III)
and the overall accuracy as the random forest parameters are swept (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ml.dataset import LabeledDataset


@dataclass
class ConfusionMatrix:
    """Counts of (true label, predicted label) pairs.

    A label-to-index dictionary is kept alongside ``labels`` so recording a
    sample is O(1) instead of O(n_labels) list searches.
    """

    labels: list[str]
    counts: np.ndarray
    _index: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {label: i for i, label in enumerate(self.labels)}

    @classmethod
    def empty(cls, labels: list[str]) -> "ConfusionMatrix":
        return cls(labels=list(labels), counts=np.zeros((len(labels), len(labels)), dtype=int))

    def record(self, true_label: str, predicted_label: str) -> None:
        # Resolve both indices before touching counts: either lookup may grow it.
        i = self._label_index(true_label)
        j = self._label_index(predicted_label)
        self.counts[i, j] += 1

    def record_many(self, true_labels, predicted_labels) -> None:
        """Record a whole batch of (true, predicted) pairs."""
        for true_label, predicted_label in zip(true_labels, predicted_labels):
            self.record(str(true_label), str(predicted_label))

    def _label_index(self, label: str) -> int:
        index = self._index.get(label)
        if index is None:
            index = len(self.labels)
            self.labels.append(label)
            self._index[label] = index
            self._grow()
        return index

    def _grow(self) -> None:
        size = len(self.labels)
        grown = np.zeros((size, size), dtype=int)
        grown[: self.counts.shape[0], : self.counts.shape[1]] = self.counts
        self.counts = grown

    # -------------------------------------------------------------- metrics
    def accuracy(self) -> float:
        total = self.counts.sum()
        if total == 0:
            return 0.0
        return float(np.trace(self.counts) / total)

    def per_class_accuracy(self) -> dict[str, float]:
        result: dict[str, float] = {}
        for i, label in enumerate(self.labels):
            row_total = self.counts[i].sum()
            result[label] = float(self.counts[i, i] / row_total) if row_total else 0.0
        return result

    def row_percentages(self) -> np.ndarray:
        """Each row normalised to percentages (the Table III presentation)."""
        totals = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            percentages = np.where(totals > 0, 100.0 * self.counts / totals, 0.0)
        return percentages


@dataclass
class CrossValidationResult:
    """Outcome of a k-fold cross validation run."""

    fold_accuracies: list[float]
    confusion: ConfusionMatrix
    n_folds: int
    classifier_description: str = ""

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy()


ClassifierFactory = Callable[[], object]


def cross_validate(dataset: LabeledDataset, classifier_factory: ClassifierFactory,
                   n_folds: int = 10, seed: int = 0,
                   description: str = "") -> CrossValidationResult:
    """Stratified k-fold cross validation.

    ``classifier_factory`` must return a fresh, unfitted classifier exposing
    ``fit(dataset)`` and ``predict(features)``.
    """
    rng = np.random.default_rng(seed)
    folds = dataset.stratified_folds(n_folds, rng)
    confusion = ConfusionMatrix.empty(dataset.classes())
    fold_accuracies: list[float] = []
    for fold_index, test_indices in enumerate(folds):
        test_mask = np.zeros(len(dataset), dtype=bool)
        test_mask[test_indices] = True
        train = dataset.subset(np.nonzero(~test_mask)[0])
        test = dataset.subset(np.nonzero(test_mask)[0])
        if len(test) == 0 or len(train) == 0:
            continue
        classifier = classifier_factory()
        classifier.fit(train)
        predictions = np.array([str(p) for p in classifier.predict(test.features)],
                               dtype=object)
        true_labels = np.array([str(label) for label in test.labels], dtype=object)
        confusion.record_many(true_labels, predictions)
        fold_accuracies.append(float(np.mean(predictions == true_labels)))
    return CrossValidationResult(fold_accuracies=fold_accuracies, confusion=confusion,
                                 n_folds=n_folds, classifier_description=description)
