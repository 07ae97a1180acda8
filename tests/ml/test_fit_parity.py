"""Fit parity: the lockstep tree grower against the per-tree reference.

:func:`repro.ml.decision_tree.fit_trees` grows every tree of a forest in
lockstep and scores each step's nodes in batched split searches;
``DecisionTreeClassifier.fit`` is a forest of one. The reference below is
the grower it replaced, one tree at a time on linked nodes: one
``evaluate`` pass per candidate feature, with a per-feature ``pick_best``
loop over the results. Both must grow the same trees byte for byte (all six
``FlatTree`` arrays and the class list) and draw the same random feature
subspaces (the rng end state), so every downstream model, vote and report
stays identical. Forest rows build the reference forest tree by tree,
drawing bootstraps and tree seeds from the forest rng in the order
``RandomForestClassifier.fit`` does, and check each tree's ``depth()`` and
``predict_one`` walk over its flat arrays against the linked reference tree.

``TestFitPaths`` pins the claim that the batch cap never changes a tree.
``TestLockstepWork`` is the exact gate on the batching: it counts the
batched searches and the subspace draws of one 60-tree fit.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from repro.ml import decision_tree, random_forest
from repro.ml.dataset import LabeledDataset
from repro.ml.decision_tree import DecisionTreeClassifier, FlatTree, fit_trees
from repro.ml.random_forest import RandomForestClassifier

FLAT_FIELDS = ("feature", "threshold", "left", "right", "prediction",
               "leaf_class_counts")


@dataclass
class _Node:
    """A reference tree node; leaves carry class counts, internal nodes a split."""

    prediction: int
    class_counts: np.ndarray
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None


def flatten(root: _Node) -> FlatTree:
    """The preorder arrays of a linked tree, left child first."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    prediction: list[int] = []
    counts: list[np.ndarray] = []
    # Iterative preorder flatten; children indices are patched once known.
    stack: list[tuple[_Node, int, bool]] = [(root, -1, False)]
    while stack:
        node, parent, is_right = stack.pop()
        index = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = index
            else:
                left[parent] = index
        feature.append(-1 if node.feature is None else int(node.feature))
        threshold.append(float(node.threshold))
        left.append(-1)
        right.append(-1)
        prediction.append(int(node.prediction))
        counts.append(np.asarray(node.class_counts, dtype=np.int64))
        if node.feature is not None:
            # Push right first so the left child lands at index + 1.
            stack.append((node.right, index, True))
            stack.append((node.left, index, False))
    return FlatTree(feature=np.array(feature, dtype=np.intp),
                    threshold=np.array(threshold, dtype=np.float64),
                    left=np.array(left, dtype=np.intp),
                    right=np.array(right, dtype=np.intp),
                    prediction=np.array(prediction, dtype=np.intp),
                    leaf_class_counts=np.vstack(counts))


def node_depth(node: _Node) -> int:
    """Split levels on the longest path below ``node``."""
    if node.feature is None:
        return 0
    return 1 + max(node_depth(node.left), node_depth(node.right))


def walk(node: _Node, vector: np.ndarray) -> int:
    """The class index of the leaf ``vector`` reaches (``<=`` goes left)."""
    while node.feature is not None:
        node = node.left if vector[node.feature] <= node.threshold else node.right
    return node.prediction


def reference_grow_root(tree: DecisionTreeClassifier, features: np.ndarray,
                        labels: np.ndarray) -> _Node:
    """The per-feature grower: one ``evaluate`` pass per candidate feature."""
    n, n_features = features.shape
    n_classes = len(tree._classes)
    one_hot = np.zeros((n, n_classes), dtype=np.float64)
    one_hot[np.arange(n), labels] = 1.0

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

    return grow_indices(np.arange(n, dtype=np.intp), depth=0)


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
    assert actual.classes() == expected.classes()
    # One subspace draw per splittable node, in preorder, on both sides.
    assert actual.rng.bit_generator.state == expected.rng.bit_generator.state


def reference_fit(tree: DecisionTreeClassifier, dataset: LabeledDataset) -> _Node:
    """``tree.fit(dataset)`` through the per-feature reference grower.

    Returns:
        The linked tree the reference grew; ``tree`` holds its flat arrays.
    """
    tree._classes = dataset.classes()
    class_index = {label: i for i, label in enumerate(tree._classes)}
    encoded = np.array([class_index[str(label)] for label in dataset.labels],
                       dtype=np.int64)
    root = reference_grow_root(tree, np.asarray(dataset.features, dtype=float), encoded)
    tree._flat = flatten(root)
    return root


def fit_tree(dataset: LabeledDataset, seed: int, **knobs) -> DecisionTreeClassifier:
    return DecisionTreeClassifier(rng=np.random.default_rng(seed), **knobs).fit(dataset)


def reference_tree(dataset: LabeledDataset, seed: int, **knobs) -> DecisionTreeClassifier:
    tree = DecisionTreeClassifier(rng=np.random.default_rng(seed), **knobs)
    reference_fit(tree, dataset)
    return tree


def reference_forest(dataset: LabeledDataset, n_trees: int, max_features: int,
                     seed: int, min_samples_split: int = 2, max_depth: int | None = None
                     ) -> list[tuple[DecisionTreeClassifier, _Node]]:
    """The trees ``RandomForestClassifier.fit`` grows, grown one at a time
    (each tree's bootstrap, then its seed, from the forest rng), each with
    the linked tree the reference grew."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        sample = dataset.bootstrap(rng)
        tree = DecisionTreeClassifier(
            max_features=min(max_features, dataset.n_features),
            min_samples_split=min_samples_split, max_depth=max_depth,
            rng=np.random.default_rng(rng.integers(0, 2 ** 63 - 1)))
        trees.append((tree, reference_fit(tree, sample)))
    return trees


def assert_same_forest(dataset: LabeledDataset, **knobs) -> RandomForestClassifier:
    forest = RandomForestClassifier(**knobs).fit(dataset)
    expected = reference_forest(dataset, **knobs)
    assert len(forest._trees) == len(expected) == knobs["n_trees"]
    classes = dataset.classes()
    for tree, (reference, root), class_map in zip(forest._trees, expected,
                                                  forest._tree_class_maps):
        assert_same_tree(tree, reference)
        assert [classes[i] for i in class_map] == reference.classes()
        # The walks over the flat arrays agree with the linked tree.
        assert tree.depth() == node_depth(root)
        assert [tree.predict_one(row) for row in dataset.features] == [
            reference.classes()[walk(root, row)] for row in dataset.features]
    return forest


def edge_value_dataset() -> LabeledDataset:
    """Feature 0 separates the classes perfectly, but the midpoint of its two
    adjacent values rounds onto the upper one, so every row would go left:
    the guard must skip that cut. Feature 2 mixes NaN and infinities, which
    never sit next to a cut."""
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
    return LabeledDataset(features, np.array([f"c{label}" for label in labels],
                                             dtype=object))


def rounded_cut_dataset() -> LabeledDataset:
    """One cut, whose midpoint rounds onto its upper value ``-2**13``: the
    rows at that value go left too, and the next rows, less than 1e-12
    above it, go right though no cut separates them from it."""
    low = -(2.0 ** 13 + 2.0 ** -39)
    high = -2.0 ** 13
    above = np.nextafter(high, 0.0)
    assert 0.5 * (low + high) == high and above - high < 1e-12
    features = np.repeat([low, high, above], [20, 10, 10])[:, None]
    labels = np.repeat(["x", "y", "y"], [20, 10, 10])
    return LabeledDataset(features, labels.astype(object))


def extreme_value_dataset() -> LabeledDataset:
    """The edge-value set plus a column of infinities only, whose one cut
    has a NaN midpoint, and one of values near the float range, whose
    differences and midpoints overflow."""
    dataset = edge_value_dataset()
    rng = np.random.default_rng(6)
    features = np.column_stack([
        dataset.features,
        rng.choice([-np.inf, np.inf], size=len(dataset)),
        rng.choice([-1.7e308, -1e308, 1e308, 1.7e308], size=len(dataset)),
    ])
    return LabeledDataset(features, dataset.labels)


GRID = list(itertools.product(
    (2, 5, 40, 300, 700),      # rows: 300 and 700 grow large nodes
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
        assert_same_tree(fit_tree(dataset, n, **knobs),
                         reference_tree(dataset, n, **knobs))

    @pytest.mark.parametrize("max_features", (None, 1, 2))
    def test_edge_values_match_reference(self, max_features):
        dataset = edge_value_dataset()
        tree = fit_tree(dataset, 4, max_features=max_features)
        with np.errstate(invalid="ignore"):  # the reference's inf - inf
            reference = reference_tree(dataset, 4, max_features=max_features)
        assert_same_tree(tree, reference)
        assert 0 not in tree.flat_tree.feature

    def test_rows_past_a_rounded_cut_go_left_with_their_counts(self):
        dataset = rounded_cut_dataset()
        tree = fit_tree(dataset, 4)
        assert_same_tree(tree, reference_tree(dataset, 4))
        assert tree.flat_tree.leaf_class_counts[1].tolist() == [20, 10]

    @pytest.mark.parametrize("make", (edge_value_dataset, extreme_value_dataset))
    def test_fits_without_warnings(self, make):
        dataset = make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = fit_tree(dataset, 4, max_features=2)
            RandomForestClassifier(n_trees=4, max_features=2, seed=1).fit(dataset)
        with np.errstate(invalid="ignore", over="ignore"):  # the reference's
            assert_same_tree(tree, reference_tree(dataset, 4, max_features=2))

    def test_sixty_tree_forest_matches_reference(self):
        dataset = synthetic_dataset(110, 7, 15, ties=False, seed=1)
        assert_same_forest(dataset, n_trees=60, max_features=4, seed=3)


def rare_class_dataset() -> LabeledDataset:
    """Forty rows, one of them the only ``c9`` row: most bootstraps miss it."""
    dataset = synthetic_dataset(40, 4, 3, ties=True, seed=4)
    labels = dataset.labels.copy()
    labels[7] = "c9"
    return LabeledDataset(dataset.features, labels)


def edge_forest_dataset() -> LabeledDataset:
    """The edge-value set, its NaN/inf column tiled into two more columns."""
    dataset = edge_value_dataset()
    features = np.column_stack([dataset.features, dataset.features[::-1, 2],
                                -dataset.features[:, 2]])
    return LabeledDataset(features, dataset.labels)


FOREST_ROWS = {
    "missing-class": (rare_class_dataset, dict(n_trees=12, max_features=2, seed=5)),
    "nan-inf": (edge_forest_dataset, dict(n_trees=12, max_features=2, seed=6)),
    "depth-split": (lambda: synthetic_dataset(110, 7, 15, ties=True, seed=2),
                    dict(n_trees=12, max_features=3, seed=7, max_depth=3,
                         min_samples_split=5)),
    "all-features": (lambda: synthetic_dataset(60, 3, 4, ties=True, seed=3),
                     dict(n_trees=8, max_features=5, seed=8)),
    # Large roots and children: each step's nodes fill several batches.
    "rows-300": (lambda: synthetic_dataset(300, 5, 6, ties=False, seed=4),
                 dict(n_trees=8, max_features=2, seed=11)),
    "rows-700": (lambda: synthetic_dataset(700, 7, 15, ties=True, seed=5),
                 dict(n_trees=6, max_features=4, seed=10)),
}


class TestForestParity:
    @pytest.mark.parametrize("row", list(FOREST_ROWS))
    def test_forest_matches_reference(self, row):
        make, knobs = FOREST_ROWS[row]
        dataset = make()
        with np.errstate(invalid="ignore"):  # the reference's inf - inf
            forest = assert_same_forest(dataset, **knobs)
        if row == "missing-class":
            assert any(len(tree.classes()) < 4 for tree in forest._trees)

    def test_plain_cart_trees_grow_in_lockstep(self):
        # ``max_features=None`` trees on bootstrap rows: no subspace draws.
        dataset = synthetic_dataset(120, 4, 5, ties=True, seed=6)
        rng = np.random.default_rng(11)
        samples = [dataset.bootstrap_indices(rng) for _ in range(5)]
        trees = [DecisionTreeClassifier(rng=np.random.default_rng(i)) for i in range(5)]
        fit_trees(trees, dataset, samples)
        for i, (tree, rows) in enumerate(zip(trees, samples)):
            assert_same_tree(tree, reference_tree(dataset.subset(rows), i))

    def test_one_tree_forest_equals_tree_fit(self):
        dataset = synthetic_dataset(300, 5, 6, ties=True, seed=7)
        forest = RandomForestClassifier(n_trees=1, max_features=3, seed=12).fit(dataset)
        rng = np.random.default_rng(12)
        sample = dataset.bootstrap(rng)
        tree = DecisionTreeClassifier(max_features=3,
                                      rng=np.random.default_rng(rng.integers(0, 2 ** 63 - 1)))
        assert_same_tree(forest._trees[0], tree.fit(sample))


class TestFitPaths:
    """The batch cap never changes a tree."""

    @pytest.mark.parametrize("knob, values", (
        ("_SEARCH_ELEMENTS", (1, 4096, 10 ** 9)),
    ))
    def test_forest_knobs_do_not_change_the_trees(self, monkeypatch, knob, values):
        dataset = synthetic_dataset(300, 5, 6, ties=True, seed=8)
        forests = []
        for value in values:
            monkeypatch.setattr(DecisionTreeClassifier, knob, value)
            forests.append(RandomForestClassifier(n_trees=6, max_features=2,
                                                  seed=13).fit(dataset))
        for forest in forests[1:]:
            for tree, expected in zip(forest._trees, forests[0]._trees):
                assert_same_tree(tree, expected)


def count_fit_work(monkeypatch, fit) -> dict[str, int]:
    """Batched split searches and subspace draws made by ``fit()``."""
    calls = {"searches": 0, "draws": 0}
    search = decision_tree._split_search
    draw = DecisionTreeClassifier._candidate_features

    def counted_search(*args):
        calls["searches"] += 1
        return search(*args)

    def counted_draw(tree, n_features):
        calls["draws"] += 1
        return draw(tree, n_features)

    monkeypatch.setattr(decision_tree, "_split_search", counted_search)
    monkeypatch.setattr(DecisionTreeClassifier, "_candidate_features", counted_draw)
    fit()
    return calls


def sixty_tree_fit() -> RandomForestClassifier:
    return RandomForestClassifier(n_trees=60, max_features=4, seed=3).fit(
        synthetic_dataset(110, 7, 15, ties=False, seed=1))


class TestLockstepWork:
    """The 60-tree fit of the parity forest row has 1,837 splittable nodes,
    one subspace draw each. Grown in lockstep, 80 batched searches score them
    (each step's small nodes in batches of at most ``_SEARCH_ELEMENTS``
    values); grown one tree at a time, every node is a search of its own. A
    change that lowers the search count updates the pin; one that raises it
    is a regression."""

    def test_sixty_tree_fit_batches_its_searches(self, monkeypatch):
        assert count_fit_work(monkeypatch, sixty_tree_fit) == {
            "searches": 80, "draws": 1837}

    def test_one_tree_at_a_time_fails_the_gate(self, monkeypatch):
        grow = decision_tree.fit_trees

        def one_at_a_time(trees, dataset, samples):
            for tree, rows in zip(trees, samples):
                grow([tree], dataset, [rows])

        monkeypatch.setattr(random_forest, "fit_trees", one_at_a_time)
        assert count_fit_work(monkeypatch, sixty_tree_fit) == {
            "searches": 1837, "draws": 1837}
