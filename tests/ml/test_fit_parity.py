"""Fit parity: the one-search-per-node tree grower against its reference.

``DecisionTreeClassifier._grow_root`` scores every candidate feature of a
node in one vectorised split search. The reference below is the grower it
replaced: one ``evaluate`` pass per candidate feature, with a per-feature
``pick_best`` loop over the results. Both must grow the same trees byte for
byte (all six ``FlatTree`` arrays) and draw the same random feature
subspaces, so every downstream model, vote and report stays identical.

The second half pins the claim that the presort path and the small-node
path pick bit-identical splits, by moving ``_PRESORT_CUTOFF`` under the
same datasets.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ml.dataset import LabeledDataset
from repro.ml.decision_tree import DecisionTreeClassifier, _Node
from repro.ml.random_forest import RandomForestClassifier

FLAT_FIELDS = ("feature", "threshold", "left", "right", "prediction",
               "leaf_class_counts")


def reference_grow_root(tree: DecisionTreeClassifier, features: np.ndarray,
                        labels: np.ndarray) -> _Node:
    """The per-feature grower: one ``evaluate`` pass per candidate feature."""
    n, n_features = features.shape
    n_classes = len(tree._classes)
    one_hot = np.zeros((n, n_classes), dtype=np.float64)
    one_hot[np.arange(n), labels] = 1.0
    scratch = np.zeros(n, dtype=bool)
    cutoff = tree._PRESORT_CUTOFF

    def evaluate(feature: int, sorted_rows: np.ndarray, n_node: int,
                 parent_impurity: float):
        """Best Gini cut for one feature given its rows in sorted order."""
        sorted_values = features[sorted_rows, feature]
        distinct = np.nonzero(np.diff(sorted_values) > 1e-12)[0]
        if len(distinct) == 0:
            return None
        cumulative = np.cumsum(one_hot[sorted_rows], axis=0)
        left_counts = cumulative[distinct]
        right_counts = cumulative[-1] - left_counts
        n_left = (distinct + 1).astype(float)
        n_right = n_node - n_left
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n_node
        gains = parent_impurity - weighted
        best_cut = int(np.argmax(gains))
        cut = distinct[best_cut]
        threshold = 0.5 * (sorted_values[cut] + sorted_values[cut + 1])
        mask = sorted_values <= threshold
        return float(gains[best_cut]), float(threshold), mask

    def make_node(rows_any_order: np.ndarray, depth: int):
        counts = np.bincount(labels[rows_any_order], minlength=n_classes)
        node = _Node(prediction=int(np.argmax(counts)), class_counts=counts)
        splittable = not (len(rows_any_order) < tree.min_samples_split
                          or int(np.count_nonzero(counts)) == 1
                          or (tree.max_depth is not None
                              and depth >= tree.max_depth))
        return node, counts, splittable

    def pick_best(order_for_feature, n_node: int, parent_counts: np.ndarray):
        proportions = parent_counts.astype(float) / n_node
        parent_impurity = float(1.0 - np.sum(proportions ** 2))
        best_gain = 1e-12
        best = None
        for feature in tree._candidate_features(n_features):
            sorted_rows = order_for_feature(int(feature))
            result = evaluate(int(feature), sorted_rows, n_node, parent_impurity)
            if result is None:
                continue
            gain, threshold, mask = result
            if gain > best_gain:
                if mask.all() or not mask.any():
                    continue
                best_gain = gain
                best = (int(feature), threshold, sorted_rows, mask)
        return best

    def grow_indices(indices: np.ndarray, depth: int) -> _Node:
        node, counts, splittable = make_node(indices, depth)
        if not splittable:
            return node

        def order_for(feature: int) -> np.ndarray:
            return indices[np.argsort(features[indices, feature],
                                      kind="mergesort")]
        split = pick_best(order_for, len(indices), counts)
        if split is None:
            return node
        node.feature, node.threshold, sorted_rows, mask = split
        node.left = grow_indices(sorted_rows[mask], depth + 1)
        node.right = grow_indices(sorted_rows[~mask], depth + 1)
        return node

    def grow_sorted(order: np.ndarray, depth: int) -> _Node:
        node, counts, splittable = make_node(order[:, 0], depth)
        if not splittable:
            return node
        split = pick_best(lambda feature: order[:, feature], len(order), counts)
        if split is None:
            return node
        node.feature, node.threshold, sorted_rows, mask = split
        left_rows = sorted_rows[mask]
        right_rows = sorted_rows[~mask]
        keep_left = len(left_rows) >= cutoff
        keep_right = len(right_rows) >= cutoff
        left_order = right_order = None
        if keep_left or keep_right:
            scratch[left_rows] = True
            if keep_left:
                left_order = np.empty((len(left_rows), n_features), dtype=order.dtype)
            if keep_right:
                right_order = np.empty((len(right_rows), n_features), dtype=order.dtype)
            for j in range(n_features):
                column = order[:, j]
                member = scratch[column]
                if keep_left:
                    left_order[:, j] = column[member]
                if keep_right:
                    right_order[:, j] = column[~member]
            scratch[left_rows] = False
        node.left = (grow_sorted(left_order, depth + 1) if keep_left
                     else grow_indices(left_rows, depth + 1))
        node.right = (grow_sorted(right_order, depth + 1) if keep_right
                      else grow_indices(right_rows, depth + 1))
        return node

    if n < cutoff:
        return grow_indices(np.arange(n, dtype=np.intp), depth=0)
    return grow_sorted(np.argsort(features, axis=0, kind="mergesort"), depth=0)


def synthetic_dataset(n: int, n_features: int, n_classes: int, ties: bool,
                      seed: int = 0) -> LabeledDataset:
    """Class-shifted normal features; ``ties`` rounds them to halves and
    makes the last column constant, so equal values and equal gains abound."""
    rng = np.random.default_rng([n, n_features, n_classes, int(ties), seed])
    labels = rng.integers(0, n_classes, size=n)
    shifts = rng.uniform(0.1, 1.0, size=n_features)
    features = rng.normal(size=(n, n_features)) + labels[:, None] * shifts
    if ties:
        features = np.round(features * 2.0) / 2.0
        features[:, -1] = 1.5
    return LabeledDataset(features, np.array([f"c{label:02d}" for label in labels],
                                             dtype=object))


def assert_same_tree(actual: DecisionTreeClassifier,
                     expected: DecisionTreeClassifier) -> None:
    for name in FLAT_FIELDS:
        got = getattr(actual.flat_tree, name)
        want = getattr(expected.flat_tree, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    # One subspace draw per splittable node, in preorder, on both sides.
    assert actual.rng.bit_generator.state == expected.rng.bit_generator.state


def fit_tree(dataset: LabeledDataset, seed: int, **knobs) -> DecisionTreeClassifier:
    return DecisionTreeClassifier(rng=np.random.default_rng(seed), **knobs).fit(dataset)


def with_reference(fit):
    """``(fit(), fit())``: as is, then with the reference grower patched in."""
    actual = fit()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DecisionTreeClassifier, "_grow_root", reference_grow_root)
        return actual, fit()


GRID = list(itertools.product(
    (2, 5, 40, 300, 700),      # rows: both sides of _PRESORT_CUTOFF (256)
    (1, 3, 7),                 # features
    (2, 6, 15),                # classes
    (False, True),             # ties
    (None, 1, 2, 4, 6),        # max_features
    (None, 3),                 # max_depth
    (2, 5),                    # min_samples_split
))


def _grid_id(case) -> str:
    n, n_features, n_classes, ties, max_features, max_depth, split = case
    return (f"n{n}-f{n_features}-c{n_classes}-{'ties' if ties else 'noties'}"
            f"-m{max_features}-d{max_depth}-s{split}")


class TestFitParity:
    @pytest.mark.parametrize("case", GRID, ids=_grid_id)
    def test_tree_matches_reference(self, case):
        n, n_features, n_classes, ties, max_features, max_depth, split = case
        dataset = synthetic_dataset(n, n_features, n_classes, ties)
        knobs = dict(max_features=max_features, max_depth=max_depth,
                     min_samples_split=split)
        assert_same_tree(*with_reference(lambda: fit_tree(dataset, n, **knobs)))

    @pytest.mark.parametrize("max_features", (None, 1, 2))
    def test_edge_values_match_reference(self, max_features):
        # Feature 0 separates the classes perfectly, but the midpoint of its
        # two adjacent values rounds onto the upper one, so every row would
        # go left: the guard must skip that cut. Feature 2 mixes NaN and
        # infinities, which never sit next to a cut.
        low = 2.0 ** 14 + 2.0 ** -38
        high = np.nextafter(low, np.inf)
        assert 0.5 * (low + high) == high
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1], 30)
        features = np.column_stack([
            np.where(labels == 0, low, high),
            labels + rng.normal(scale=0.8, size=60),
            rng.choice([np.nan, np.inf, -np.inf, 0.0, 1.0], size=60),
        ])
        dataset = LabeledDataset(features, np.array([f"c{label}" for label in labels],
                                                    dtype=object))
        with np.errstate(invalid="ignore"):  # inf - inf between neighbours
            tree, reference = with_reference(
                lambda: fit_tree(dataset, 4, max_features=max_features))
        assert_same_tree(tree, reference)
        assert 0 not in tree.flat_tree.feature

    def test_sixty_tree_forest_matches_reference(self):
        dataset = synthetic_dataset(110, 7, 15, ties=False, seed=1)
        forest, reference = with_reference(
            lambda: RandomForestClassifier(n_trees=60, max_features=4,
                                           seed=3).fit(dataset))
        assert len(forest._trees) == len(reference._trees) == 60
        for tree, expected in zip(forest._trees, reference._trees):
            assert_same_tree(tree, expected)


class TestFitPaths:
    """The presort path and the small-node path pick bit-identical splits."""

    @pytest.mark.parametrize("n", (256, 260, 600))
    @pytest.mark.parametrize("ties", (False, True), ids=("noties", "ties"))
    @pytest.mark.parametrize("max_features", (None, 2, 4))
    def test_cutoff_does_not_change_the_tree(self, monkeypatch, n, ties,
                                             max_features):
        dataset = synthetic_dataset(n, 5, 6, ties, seed=2)
        trees = []
        for cutoff in (2, 256, 10 ** 9):
            monkeypatch.setattr(DecisionTreeClassifier, "_PRESORT_CUTOFF", cutoff)
            trees.append(fit_tree(dataset, n, max_features=max_features))
        for tree in trees[1:]:
            assert_same_tree(tree, trees[0])
