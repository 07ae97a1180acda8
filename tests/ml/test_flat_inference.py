"""Parity tests: vectorised inference must exactly match the reference paths.

The vectorised engines (``FlatTree.apply``, the stacked forest, batch k-NN)
are pure performance work; every prediction, vote count and probability must
be byte-identical to the per-sample reference implementations, which walk a
tree's ``FlatTree`` arrays one sample and one node at a time.
"""

import collections

import numpy as np
import pytest

from repro.ml.dataset import LabeledDataset
from repro.ml.decision_tree import DecisionTreeClassifier, FlatTree
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.random_forest import RandomForestClassifier, _StackedForest


def random_dataset(seed: int, n: int = 120, n_features: int = 5,
                   n_classes: int = 4, duplicate_fraction: float = 0.25) -> LabeledDataset:
    """A random labelled dataset with deliberate duplicate feature values."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    features = rng.normal(size=(n, n_features)) + labels[:, None] * rng.uniform(0.2, 1.5)
    # Duplicate values stress the tie handling of the split search.
    features[rng.random(size=features.shape) < duplicate_fraction] = 1.0
    return LabeledDataset(features, np.array([f"class-{i}" for i in labels], dtype=object))


def query_matrix(seed: int, n: int = 200, n_features: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed + 1000)
    return rng.normal(size=(n, n_features)) * 2.0


def threshold_queries(flat: FlatTree, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """One query per internal node that reaches the node and equals its
    threshold on its split feature, so ``<=`` must send it left.

    Returns:
        The queries and, per query, the internal node it lands on.
    """
    queries, nodes = [], []

    def walk(node: int, low: np.ndarray, high: np.ndarray) -> None:
        # Every feature on the path so far satisfies low < x <= high.
        if flat.feature[node] < 0:
            return
        feature, threshold = flat.feature[node], flat.threshold[node]
        query = np.where(np.isfinite(high), high,
                         np.where(np.isfinite(low), low + 1.0, 0.0))
        query[feature] = threshold
        queries.append(query)
        nodes.append(node)
        left_high, right_low = high.copy(), low.copy()
        left_high[feature] = min(high[feature], threshold)
        right_low[feature] = max(low[feature], threshold)
        walk(flat.left[node], low, left_high)
        walk(flat.right[node], right_low, high)

    walk(0, np.full(n_features, -np.inf), np.full(n_features, np.inf))
    return np.array(queries), np.array(nodes)


class TestFlatTreeParity:
    @pytest.mark.parametrize("max_features", [None, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_queries_on_a_threshold_go_left(self, seed, max_features):
        dataset = random_dataset(seed)
        tree = DecisionTreeClassifier(max_features=max_features,
                                      rng=np.random.default_rng(seed)).fit(dataset)
        flat = tree.flat_tree
        queries, nodes = threshold_queries(flat, dataset.features.shape[1])
        assert len(queries) == np.count_nonzero(flat.feature >= 0)
        # Preorder: the left subtree of node i spans [i + 1, right[i]).
        leaves = flat.apply(queries)
        assert np.all((leaves > nodes) & (leaves < flat.right[nodes]))
        assert list(tree.predict(queries)) == list(tree.predict_reference(queries))

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_predict_matches_recursive_reference(self, seed):
        dataset = random_dataset(seed)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(seed)).fit(dataset)
        queries = query_matrix(seed)
        assert list(tree.predict(queries)) == list(tree.predict_reference(queries))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_subspace_tree_parity(self, seed):
        dataset = random_dataset(seed, n=90)
        tree = DecisionTreeClassifier(max_features=2,
                                      rng=np.random.default_rng(seed)).fit(dataset)
        queries = query_matrix(seed, n=150)
        assert list(tree.predict(queries)) == list(tree.predict_reference(queries))

    def test_flat_layout_is_consistent(self):
        dataset = random_dataset(7)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(7)).fit(dataset)
        flat = tree.flat_tree
        assert flat.n_nodes == tree.node_count()
        leaves = flat.feature < 0
        internal = ~leaves
        # Internal nodes reference in-range children; leaves reference none.
        assert np.all(flat.left[internal] > 0) and np.all(flat.left[internal] < flat.n_nodes)
        assert np.all(flat.right[internal] > 0) and np.all(flat.right[internal] < flat.n_nodes)
        assert np.all(flat.left[leaves] == -1) and np.all(flat.right[leaves] == -1)
        # Node histograms carry the majority class.
        assert np.array_equal(np.argmax(flat.leaf_class_counts, axis=1), flat.prediction)


class TestFlatTreeChecks:
    """A tree is its ``FlatTree``: an unfitted tree has none to walk, and a
    rebuilt one needs a layout and classes."""

    def test_from_flat_tree_rejects_an_empty_layout(self):
        tree = DecisionTreeClassifier(rng=np.random.default_rng(3)).fit(
            random_dataset(3, n=60))
        flat = tree.flat_tree
        empty = FlatTree(feature=flat.feature[:0], threshold=flat.threshold[:0],
                         left=flat.left[:0], right=flat.right[:0],
                         prediction=flat.prediction[:0],
                         leaf_class_counts=flat.leaf_class_counts[:0])
        with pytest.raises(ValueError, match="empty FlatTree"):
            DecisionTreeClassifier.from_flat_tree(empty, tree.classes())

    def test_from_flat_tree_rejects_an_empty_class_list(self):
        tree = DecisionTreeClassifier(rng=np.random.default_rng(3)).fit(
            random_dataset(3, n=60))
        with pytest.raises(ValueError, match="class label"):
            DecisionTreeClassifier.from_flat_tree(tree.flat_tree, [])

    @pytest.mark.parametrize("call", [
        lambda tree: tree.predict_one(np.zeros(5)),
        lambda tree: tree.depth(),
    ], ids=["predict_one", "depth"])
    def test_unfitted_tree_raises(self, call):
        with pytest.raises(RuntimeError, match="not been fitted"):
            call(DecisionTreeClassifier())


class TestForestParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_vote_many_matches_reference(self, seed):
        dataset = random_dataset(seed, n=100, n_classes=5)
        forest = RandomForestClassifier(n_trees=17, max_features=2, seed=seed).fit(dataset)
        queries = query_matrix(seed, n=120)
        fast = forest.vote_many(queries)
        for row, result in zip(queries, fast):
            reference = forest.vote_one_reference(row)
            assert result.label == reference.label
            assert result.confidence == reference.confidence
            assert result.votes == reference.votes

    @pytest.mark.parametrize("seed", range(4))
    def test_predict_proba_matches_vote_fractions(self, seed):
        dataset = random_dataset(seed, n=80)
        forest = RandomForestClassifier(n_trees=12, max_features=2, seed=seed).fit(dataset)
        queries = query_matrix(seed, n=60)
        probabilities = forest.predict_proba(queries)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        index = {label: i for i, label in enumerate(forest.classes())}
        for row, probs in zip(queries, probabilities):
            reference = forest.vote_one_reference(row)
            expected = np.zeros(len(index))
            for label, count in reference.votes.items():
                expected[index[label]] = count / forest.n_trees
            assert np.array_equal(probs, expected)

    def test_vote_one_equals_reference_on_single_vector(self):
        dataset = random_dataset(9)
        forest = RandomForestClassifier(n_trees=9, max_features=2, seed=9).fit(dataset)
        vector = query_matrix(9, n=1)[0]
        assert forest.vote_one(vector) == forest.vote_one_reference(vector)

    def test_nan_features_route_like_the_reference(self):
        # NaN fails both `<=` and `>`; every path must send it right.
        dataset = random_dataset(6, n=80, n_features=4)
        forest = RandomForestClassifier(n_trees=15, max_features=2, seed=6).fit(dataset)
        queries = query_matrix(6, n=30, n_features=4)
        queries[::3] = np.nan
        queries[1::3, :2] = np.nan
        assert list(forest.predict(queries)) == [
            forest.vote_one_reference(row).label for row in queries]

    def test_tie_break_prefers_largest_label(self):
        # One tree per class vote makes every class tie; the reference breaks
        # ties toward the lexicographically largest label.
        dataset = random_dataset(2, n=100, n_classes=3)
        forest = RandomForestClassifier(n_trees=3, max_features=1, seed=4).fit(dataset)
        queries = query_matrix(2, n=300)
        assert list(forest.predict(queries)) == [
            forest.vote_one_reference(row).label for row in queries]


class TestBatchInferenceWork:
    """A batch is one stacked-forest pass, however many rows it holds.

    The gate counts calls instead of timing them: a batch path that
    degenerates toward the per-sample loop (a vote per row, a walk per tree)
    makes more than one ``_StackedForest.apply`` call or reaches one of the
    per-sample entry points.
    """

    COUNTED = [(_StackedForest, "apply"),
               (DecisionTreeClassifier, "predict_one"),
               (RandomForestClassifier, "vote_one_reference"),
               (FlatTree, "apply")]

    @pytest.mark.parametrize("entry", ["vote_matrix", "classify_vectors"])
    def test_one_stacked_pass_per_batch(self, trained_classifier, monkeypatch,
                                        entry):
        calls = collections.Counter()
        for owner, name in self.COUNTED:
            def counting(*args, call=getattr(owner, name),
                         key=f"{owner.__name__}.{name}", **kwargs):
                calls[key] += 1
                return call(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)
        assert trained_classifier.forest.n_trees == 60
        queries = np.random.default_rng(0).normal(size=(1_000, 7))
        if entry == "vote_matrix":
            trained_classifier.forest.vote_matrix(queries)
        else:
            trained_classifier.classify_vectors(queries, 512)
        assert calls == {"_StackedForest.apply": 1}


class TestKnnParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_predict_matches_reference(self, seed):
        dataset = random_dataset(seed, n=70, n_features=4)
        knn = KNearestNeighborsClassifier(k=5).fit(dataset)
        queries = query_matrix(seed, n=90, n_features=4)
        assert list(knn.predict(queries)) == list(knn.predict_reference(queries))

    def test_chunked_batches_are_consistent(self):
        dataset = random_dataset(11, n=40, n_features=3)
        knn = KNearestNeighborsClassifier(k=3).fit(dataset)
        queries = query_matrix(11, n=35, n_features=3)
        whole = knn.predict(queries)
        pieces = np.concatenate([knn.predict(queries[:10]), knn.predict(queries[10:])])
        assert list(whole) == list(pieces)
