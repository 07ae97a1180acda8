"""Labelled feature-vector datasets.

A dataset is a dense float matrix of feature vectors plus one string label per
row (the TCP algorithm name, or a merged label such as ``rc-small``). The
class offers the handful of operations the CAAI pipeline needs: stacking,
stratified folds for cross validation and bootstrap resampling for bagging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LabeledDataset:
    """A labelled dataset of feature vectors."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=object)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(self.labels) != len(self.features):
            raise ValueError("labels and features must have the same length")
        if self.feature_names and len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length must match the feature dimension")

    # ------------------------------------------------------------- basic ops
    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def classes(self) -> list[str]:
        """Sorted list of distinct labels."""
        return sorted({str(label) for label in self.labels})

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for label in self.labels:
            counts[str(label)] = counts.get(str(label), 0) + 1
        return counts

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices],
                              self.feature_names)

    @classmethod
    def from_rows(cls, rows: list[tuple[np.ndarray, str]],
                  feature_names: tuple[str, ...] = ()) -> "LabeledDataset":
        """Build a dataset from (vector, label) pairs."""
        if not rows:
            raise ValueError("cannot build an empty dataset")
        features = np.vstack([np.asarray(vector, dtype=float) for vector, _ in rows])
        labels = np.array([label for _, label in rows], dtype=object)
        return cls(features, labels, feature_names)

    # --------------------------------------------------------------- sampling
    def bootstrap(self, rng: np.random.Generator) -> "LabeledDataset":
        """Sample ``len(self)`` rows with replacement (bagging)."""
        return self.subset(self.bootstrap_indices(rng))

    def bootstrap_indices(self, rng: np.random.Generator) -> np.ndarray:
        """The row indices :meth:`bootstrap` draws, without copying rows."""
        return rng.integers(0, len(self), size=len(self))

    def stratified_folds(self, n_folds: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Return ``n_folds`` index arrays with per-class proportions preserved."""
        if n_folds < 2:
            raise ValueError("need at least two folds")
        folds: list[list[int]] = [[] for _ in range(n_folds)]
        for label in self.classes():
            label_indices = np.nonzero(self.labels == label)[0]
            label_indices = rng.permutation(label_indices)
            for position, index in enumerate(label_indices):
                folds[position % n_folds].append(int(index))
        return [np.array(sorted(fold), dtype=int) for fold in folds]
