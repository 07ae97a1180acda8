"""CART-style decision tree with per-node random feature subspaces.

This is the tree grower random forests need (Breiman 2001, the algorithm the
paper uses through Weka): at every node a random subset of ``max_features``
feature indices is drawn, the best Gini split among them is taken, and the
tree is grown without pruning until nodes are pure or too small.

The tree also works as a stand-alone classifier (``max_features=None`` uses
all features at every node), which is one of the baselines of the paper's
model-selection study. Labels are encoded to integers once at fit time so the
split search is fully vectorised.

Two implementation notes for the hot paths:

* **Fitting** makes one split search per node over all its candidate
  features at once: their rows in stable sorted order form one
  ``(candidates, rows)`` matrix, one difference pass finds every cut between
  distinct consecutive values, one cumulative sum of the one-hot labels
  gives every cut's class counts, and the Gini arithmetic runs on the cut
  rows only. Every gain goes through the same floating-point operations as
  a per-feature search (each Gini sum reduces one contiguous row of class
  shares) and ties break the same way: the first best cut within a feature,
  and a later candidate wins only with a strictly larger gain. Nodes of
  ``_PRESORT_CUTOFF`` (256) rows or more read that order from index lists
  sorted once at the root and partitioned on the way down; smaller nodes,
  which are all nodes of a training set under 256 rows, sort their
  candidate subcolumns directly. Both paths pick bit-identical splits
  (stable mergesort of a subset equals the stably-sorted full column
  restricted to that subset).
* **Prediction** routes whole sample matrices through a flattened array
  representation of the tree (:class:`FlatTree`) with no per-sample Python
  loop. The linked :class:`_Node` structure is kept as the reference
  implementation (``predict_one`` / ``predict_reference``) that parity tests
  compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.dataset import LabeledDataset


@dataclass
class _Node:
    """A tree node; leaves carry class counts, internal nodes carry a split."""

    prediction: int
    class_counts: np.ndarray
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree flattened into contiguous arrays (preorder layout).

    ``feature[i] == -1`` marks node ``i`` as a leaf; internal nodes route a
    sample left when ``x[feature[i]] <= threshold[i]``. ``leaf_class_counts``
    carries the training class histogram of every node so vote fractions can
    be recovered without the linked structure.
    """

    feature: np.ndarray          # (n_nodes,) intp, -1 for leaves
    threshold: np.ndarray        # (n_nodes,) float64
    left: np.ndarray             # (n_nodes,) intp
    right: np.ndarray            # (n_nodes,) intp
    prediction: np.ndarray       # (n_nodes,) intp, majority class index
    leaf_class_counts: np.ndarray  # (n_nodes, n_classes) int64

    @classmethod
    def from_root(cls, root: _Node, n_classes: int) -> "FlatTree":
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
                assert node.left is not None and node.right is not None
                # Push right first so the left child lands at index + 1.
                stack.append((node.right, index, True))
                stack.append((node.left, index, False))
        return cls(feature=np.array(feature, dtype=np.intp),
                   threshold=np.array(threshold, dtype=np.float64),
                   left=np.array(left, dtype=np.intp),
                   right=np.array(right, dtype=np.intp),
                   prediction=np.array(prediction, dtype=np.intp),
                   leaf_class_counts=np.vstack(counts) if counts else
                   np.zeros((0, n_classes), dtype=np.int64))

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def rebuild_nodes(self) -> _Node:
        """Reconstruct the linked ``_Node`` tree this layout was built from.

        The preorder flatten is lossless (``leaf_class_counts`` keeps every
        node's class histogram), so the rebuilt tree is fully equivalent to
        the fitted original — including the reference ``predict_one`` walk.

        Returns:
            The root of the reconstructed node tree.

        Raises:
            ValueError: If the layout is empty (never produced by ``fit``).
        """
        if self.n_nodes == 0:
            raise ValueError("cannot rebuild a tree from an empty FlatTree")
        nodes = [_Node(prediction=int(self.prediction[i]),
                       class_counts=np.asarray(self.leaf_class_counts[i],
                                               dtype=np.int64),
                       feature=(None if self.feature[i] < 0
                                else int(self.feature[i])),
                       threshold=float(self.threshold[i]))
                 for i in range(self.n_nodes)]
        for i, node in enumerate(nodes):
            if node.feature is not None:
                node.left = nodes[int(self.left[i])]
                node.right = nodes[int(self.right[i])]
        return nodes[0]

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of ``features`` (vectorised)."""
        features = np.ascontiguousarray(features, dtype=np.float64)
        nodes = np.zeros(len(features), dtype=np.intp)
        active = np.nonzero(self.feature[nodes] >= 0)[0]
        while active.size:
            current = nodes[active]
            split_feature = self.feature[current]
            go_left = (features[active, split_feature]
                       <= self.threshold[current])
            nodes[active] = np.where(go_left, self.left[current],
                                     self.right[current])
            active = active[self.feature[nodes[active]] >= 0]
        return nodes

    def predict_indices(self, features: np.ndarray) -> np.ndarray:
        """Majority-class index for every row of ``features``."""
        return self.prediction[self.apply(features)]


@dataclass
class DecisionTreeClassifier:
    """Gini-impurity decision tree classifier.

    Attributes:
        max_features: number of features examined at each node; ``None`` uses
            all of them (plain CART), an integer enables the random-subspace
            behaviour required inside a random forest.
        min_samples_split: nodes smaller than this become leaves.
        max_depth: optional depth cap (``None`` = unlimited, as in the paper).
        rng: random generator used for the feature subspace draws.
    """

    max_features: int | None = None
    min_samples_split: int = 2
    max_depth: int | None = None
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    _root: _Node | None = field(default=None, init=False, repr=False)
    _flat: FlatTree | None = field(default=None, init=False, repr=False)
    _classes: list[str] = field(default_factory=list, init=False, repr=False)

    @classmethod
    def from_flat_tree(cls, flat: FlatTree, classes: list[str], *,
                       max_features: int | None = None,
                       min_samples_split: int = 2,
                       max_depth: int | None = None) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from its flattened-array form.

        This is the deserialisation path of the model-artifact layer
        (:mod:`repro.serving.artifact`): the returned tree is fully fitted —
        linked reference nodes included — without ever touching training
        data, and predicts bit-identically to the tree ``flat`` came from.

        Args:
            flat: The :class:`FlatTree` of a previously fitted tree.
            classes: The tree's class labels, in fitted (sorted) order.
            max_features: The original ``max_features`` knob (metadata only;
                prediction never consults it).
            min_samples_split: The original ``min_samples_split`` knob.
            max_depth: The original ``max_depth`` knob.

        Returns:
            A fitted :class:`DecisionTreeClassifier` equivalent to the
            original.

        Raises:
            ValueError: If ``flat`` is empty or ``classes`` is empty.
        """
        if not classes:
            raise ValueError("a fitted tree needs at least one class label")
        tree = cls(max_features=max_features,
                   min_samples_split=min_samples_split, max_depth=max_depth)
        tree._root = flat.rebuild_nodes()
        tree._flat = flat
        tree._classes = [str(label) for label in classes]
        return tree

    # ------------------------------------------------------------------ fit
    def fit(self, dataset: LabeledDataset) -> "DecisionTreeClassifier":
        """Grow the tree on ``dataset`` until nodes are pure or too small.

        Labels are encoded to indices of the sorted class list. Every
        splittable node, in preorder, draws ``max_features`` candidate
        features from ``rng`` (all features, and no draw, when
        ``max_features`` is ``None`` or not below the feature count) and
        takes the best Gini split among them from one search over all
        candidates. The tree is kept both as linked nodes and as a
        :class:`FlatTree`.

        Args:
            dataset: The labelled training set.

        Returns:
            ``self``, for chaining.

        Raises:
            ValueError: If ``dataset`` is empty or ``max_features`` is below
                one.
        """
        if len(dataset) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be at least 1")
        self._classes = dataset.classes()
        class_index = {label: i for i, label in enumerate(self._classes)}
        encoded = np.array([class_index[str(label)] for label in dataset.labels],
                           dtype=np.int64)
        self._root = self._grow_root(np.asarray(dataset.features, dtype=float), encoded)
        self._flat = FlatTree.from_root(self._root, len(self._classes))
        return self

    #: Nodes smaller than this give up the pre-sorted index lists and sort
    #: their (tiny) subcolumns directly; both paths pick bit-identical splits
    #: because candidate cuts sit between distinct values, making every split
    #: statistic a function of the row *set* only, never of row order
    #: (``tests/ml/test_fit_parity.py`` fits the same sets at three cutoffs).
    _PRESORT_CUTOFF = 256

    def _grow_root(self, features: np.ndarray, labels: np.ndarray) -> _Node:
        n, n_features = features.shape
        n_classes = len(self._classes)
        one_hot = np.zeros((n, n_classes), dtype=np.float64)
        one_hot[np.arange(n), labels] = 1.0
        # Feature-major copy: row ``f`` is feature ``f`` over every sample,
        # so a node's candidate columns gather and sort as contiguous rows.
        columns = np.ascontiguousarray(features.T)
        scratch = np.zeros(n, dtype=bool)
        cutoff = self._PRESORT_CUTOFF

        def make_node(rows_any_order: np.ndarray, depth: int):
            counts = np.bincount(labels[rows_any_order], minlength=n_classes)
            node = _Node(prediction=int(np.argmax(counts)), class_counts=counts)
            splittable = not (len(rows_any_order) < self.min_samples_split
                              or int(np.count_nonzero(counts)) == 1
                              or (self.max_depth is not None and depth >= self.max_depth))
            return node, counts, splittable

        def pick_best(candidates: np.ndarray, sorted_rows: np.ndarray,
                      parent_counts: np.ndarray):
            """Best Gini split over every candidate feature in one search.

            Row ``j`` of ``sorted_rows`` holds the node's rows in the stable
            sorted order of feature ``candidates[j]``.
            """
            n_node = sorted_rows.shape[1]
            values = columns[candidates[:, None], sorted_rows]
            # Candidate cuts sit between distinct consecutive values; nonzero
            # lists them feature-major, cuts ascending within a feature.
            column, cut = np.nonzero(values[:, 1:] - values[:, :-1] > 1e-12)
            if len(cut) == 0:
                return None
            # The Gini arithmetic runs on the cut rows only, and every sum
            # reduces one contiguous (cut, class) row, as a per-feature
            # search would: the gains match it to the last bit.
            left_counts = one_hot[sorted_rows].cumsum(axis=1)[column, cut]
            right_counts = parent_counts - left_counts
            n_left = cut + 1.0
            n_right = n_node - n_left
            gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
            gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
            weighted = (n_left * gini_left + n_right * gini_right) / n_node
            gains = _gini(parent_counts.astype(float), n_node) - weighted
            cuts_per_feature = np.bincount(column, minlength=len(candidates))
            ends = cuts_per_feature.cumsum()
            starts = ends - cuts_per_feature
            scored = np.flatnonzero(cuts_per_feature)
            tops = np.maximum.reduceat(gains, starts[scored])
            starts, ends = starts.tolist(), ends.tolist()
            # A feature takes over only with a strictly larger gain, in
            # candidate order; within a feature the first (lowest) cut wins.
            best_gain = 1e-12
            best = None
            for j, top in zip(scored.tolist(), tops.tolist()):
                if top <= best_gain:
                    continue
                start = starts[j]
                at = int(cut[start + int(gains[start:ends[j]].argmax())])
                threshold = 0.5 * (values.item(j, at) + values.item(j, at + 1))
                # The ``mask.all() or not mask.any()`` guard, read off the
                # sorted values: no row goes left iff the first does not,
                # every row does iff the last does (NaNs sort last).
                if not values.item(j, 0) <= threshold or values.item(j, -1) <= threshold:
                    continue
                best_gain = top
                best = j, threshold
            if best is None:
                return None
            j, threshold = best
            return (int(candidates[j]), threshold, sorted_rows[j],
                    values[j] <= threshold)

        def grow_indices(indices: np.ndarray, depth: int) -> _Node:
            """Small-node path: sort the candidate subcolumns directly."""
            node, counts, splittable = make_node(indices, depth)
            if not splittable:
                return node
            candidates = self._candidate_features(n_features)
            positions = columns[candidates[:, None], indices].argsort(
                axis=1, kind="mergesort")
            split = pick_best(candidates, indices[positions], counts)
            if split is None:
                return node
            node.feature, node.threshold, sorted_rows, mask = split
            node.left = grow_indices(sorted_rows[mask], depth + 1)
            node.right = grow_indices(sorted_rows[~mask], depth + 1)
            return node

        def grow_sorted(order: np.ndarray, depth: int) -> _Node:
            """Large-node path: every row of ``order`` is already sorted."""
            node, counts, splittable = make_node(order[0], depth)
            if not splittable:
                return node
            candidates = self._candidate_features(n_features)
            split = pick_best(candidates, order[candidates], counts)
            if split is None:
                return node
            node.feature, node.threshold, sorted_rows, mask = split
            left_rows = sorted_rows[mask]
            right_rows = sorted_rows[~mask]
            keep_left = len(left_rows) >= cutoff
            keep_right = len(right_rows) >= cutoff
            left_order = right_order = None
            if keep_left or keep_right:
                # Partition the pre-sorted rows instead of re-sorting them.
                scratch[left_rows] = True
                member = scratch[order]
                scratch[left_rows] = False
                if keep_left:
                    left_order = order[member].reshape(n_features, len(left_rows))
                if keep_right:
                    right_order = order[~member].reshape(n_features, len(right_rows))
            node.left = (grow_sorted(left_order, depth + 1) if keep_left
                         else grow_indices(left_rows, depth + 1))
            node.right = (grow_sorted(right_order, depth + 1) if keep_right
                          else grow_indices(right_rows, depth + 1))
            return node

        if n < cutoff:
            return grow_indices(np.arange(n, dtype=np.intp), depth=0)
        # Every feature stably sorted exactly once at the root.
        return grow_sorted(columns.argsort(axis=1, kind="mergesort"), depth=0)

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=self.max_features, replace=False)

    # -------------------------------------------------------------- predict
    def predict_one(self, vector: np.ndarray) -> str:
        """Reference prediction walking the linked nodes (kept for parity).

        Args:
            vector: One feature vector.

        Returns:
            The class label of the leaf the vector reaches.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        node = self._require_fitted()
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            if vector[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return self._classes[node.prediction]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Vectorised batch prediction through the flattened arrays.

        Args:
            features: ``(n_samples, n_features)`` matrix (a single vector is
                promoted to one row).

        Returns:
            An object array of class labels, one per row.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        flat = self.flat_tree
        classes = np.array(self._classes, dtype=object)
        return classes[flat.predict_indices(features)]

    def predict_reference(self, features: np.ndarray) -> np.ndarray:
        """Per-sample prediction through the linked nodes (reference path).

        Args:
            features: ``(n_samples, n_features)`` matrix (a single vector is
                promoted to one row).

        Returns:
            An object array of class labels, identical to :meth:`predict`.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        return np.array([self.predict_one(row) for row in features], dtype=object)

    @property
    def flat_tree(self) -> FlatTree:
        """The fitted tree as contiguous preorder arrays (raises if unfitted)."""
        self._require_fitted()
        assert self._flat is not None
        return self._flat

    def _require_fitted(self) -> _Node:
        if self._root is None:
            raise RuntimeError("classifier has not been fitted")
        return self._root

    # ------------------------------------------------------------ inspection
    def classes(self) -> list[str]:
        """The class labels in fitted (sorted) order.

        Returns:
            A copy of the label list; index ``i`` is class index ``i`` of
            :attr:`FlatTree.prediction`.
        """
        return list(self._classes)

    def depth(self) -> int:
        """Number of split levels on the longest root-to-leaf path.

        Returns:
            ``0`` for a single-leaf tree.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self._require_fitted())

    def node_count(self) -> int:
        """Number of nodes, internal and leaves.

        Returns:
            The node count of the fitted tree.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        if self._flat is not None:
            return self._flat.n_nodes
        def walk(node: _Node | None) -> int:
            if node is None:
                return 0
            return 1 + walk(node.left) + walk(node.right)
        return walk(self._require_fitted())


def _gini(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions ** 2))
