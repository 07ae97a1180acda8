"""Random forest classifier (Breiman 2001).

The classifier CAAI uses (Section VI): ``n_trees`` decision trees, each grown
on a bootstrap resample of the training set with a random subspace of
``max_features`` features considered at every node and no pruning. Prediction
is by majority vote; the fraction of trees voting for the winner is reported
as the classification confidence, which CAAI thresholds at 40 % before
accepting an identification.

Batch prediction is fully vectorised: every tree is applied to the whole
sample matrix through its flattened-array form (:class:`~repro.ml.decision_tree.FlatTree`)
and votes are accumulated in one ``(n_samples, n_classes)`` integer matrix.
``vote_one_reference`` keeps the original per-sample tree walk as the
reference implementation that parity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.dataset import LabeledDataset
from repro.ml.decision_tree import DecisionTreeClassifier

#: Parameter values the paper selects through cross validation (Fig. 12):
#: 80 trees and 4 randomly selected features per node.
PAPER_N_TREES = 80
PAPER_MAX_FEATURES = 4


@dataclass(frozen=True)
class VoteResult:
    """Outcome of a forest vote for one feature vector."""

    label: str
    confidence: float
    votes: dict[str, int]


@dataclass
class _StackedForest:
    """All trees of a forest concatenated into one node-array set.

    Child indices are rebased to the concatenated layout, and every node's
    majority class is pre-mapped to the *forest* class order, so one routing
    loop classifies every (sample, tree) pair without per-tree dispatch.

    Routing descends **two** tree levels per iteration through precomputed
    quad tables: node ``i`` stores its own test (``feature1``/``threshold1``),
    the tests of both children (``feature2``/``threshold2``, indexed
    ``2 * i + first_branch``) and all four grandchildren (``grandchildren``,
    indexed ``4 * i + 2 * first_branch + second_branch``). A leaf child is
    padded with an always-false test (feature 0 against ``+inf``) whose
    "grandchildren" are the leaf itself, so landing on a leaf at an odd depth
    routes to the same place as the plain one-level walk.
    """

    is_leaf: np.ndarray      # (total_nodes,) bool
    feature1: np.ndarray     # (total_nodes,) intp (0 for leaves, never used)
    threshold1: np.ndarray   # (total_nodes,) float64 (+inf for leaves)
    feature2: np.ndarray     # (2 * total_nodes,) intp
    threshold2: np.ndarray   # (2 * total_nodes,) float64
    grandchildren: np.ndarray  # (4 * total_nodes,) intp (global indices)
    prediction: np.ndarray   # (total_nodes,) intp, forest class index
    roots: np.ndarray        # (n_trees,) intp, root node of every tree
    #: Cached (state template, row bases, sample rows) for the last batch
    #: size; repeated equally-sized batches skip the index scaffolding.
    _scaffold: tuple | None = field(default=None, repr=False, compare=False)

    @classmethod
    def build(cls, trees: list["DecisionTreeClassifier"],
              class_maps: list[np.ndarray]) -> "_StackedForest":
        features, thresholds, lefts, rights, predictions, roots = [], [], [], [], [], []
        offset = 0
        for tree, class_map in zip(trees, class_maps):
            flat = tree.flat_tree
            roots.append(offset)
            features.append(flat.feature)
            thresholds.append(flat.threshold)
            # Leaf children (-1) are never followed; clamp them to 0 so the
            # rebased indices stay in range.
            lefts.append(np.where(flat.left >= 0, flat.left + offset, 0))
            rights.append(np.where(flat.right >= 0, flat.right + offset, 0))
            predictions.append(class_map[flat.prediction])
            offset += flat.n_nodes
        feature = np.concatenate(features)
        threshold = np.concatenate(thresholds)
        children = np.stack([np.concatenate(lefts), np.concatenate(rights)], axis=1)
        n_nodes = len(feature)
        is_leaf = feature < 0
        feature1 = np.where(is_leaf, 0, feature)
        threshold1 = np.where(is_leaf, np.inf, threshold)
        feature2 = np.zeros((n_nodes, 2), dtype=np.intp)
        threshold2 = np.full((n_nodes, 2), np.inf)
        grandchildren = np.zeros((n_nodes, 2, 2), dtype=np.intp)
        for branch in (0, 1):
            child = children[:, branch]
            child_is_leaf = is_leaf[child]
            feature2[:, branch] = np.where(child_is_leaf, 0, feature1[child])
            threshold2[:, branch] = np.where(child_is_leaf, np.inf, threshold1[child])
            for second in (0, 1):
                grandchildren[:, branch, second] = np.where(
                    child_is_leaf, child, children[child, second])
        # Rows of leaf nodes are never consulted (leaves never enter the
        # routing loop), but keep them self-referential for safety.
        leaf_index = np.nonzero(is_leaf)[0]
        grandchildren[leaf_index] = leaf_index[:, None, None]
        return cls(is_leaf=is_leaf,
                   feature1=feature1,
                   threshold1=threshold1,
                   feature2=feature2.ravel(),
                   threshold2=threshold2.ravel(),
                   grandchildren=grandchildren.reshape(-1),
                   prediction=np.concatenate(predictions),
                   roots=np.array(roots, dtype=np.intp))

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Leaf reached by every (tree, sample) pair; shape ``(n_trees * n_samples,)``.

        The routing loop runs once per two tree levels over the still-active
        (tree, sample) slots; feature lookups go through the flattened sample
        matrix (1-D gathers are markedly faster than 2-D fancy indexing).
        """
        n, n_features = features.shape
        flat_samples = features.ravel()
        # The still-routing slots travel as compressed (slot, node, row) arrays;
        # slots are written back to ``state`` only when they reach their leaf.
        _, state, active, active_base, current, _ = self._batch_scaffold(
            n, n_features)
        state = state.copy()
        while active.size:
            # Route with the same `<=` comparison as the reference node walk,
            # so non-finite feature values (NaN fails both `<=` and `>`) take
            # the right branch on every path.
            go_left = (flat_samples[active_base + self.feature1[current]]
                       <= self.threshold1[current])
            half = (2 * current + 1) - go_left
            go_left_2 = (flat_samples[active_base + self.feature2[half]]
                         <= self.threshold2[half])
            advanced = self.grandchildren[(2 * half + 1) - go_left_2]
            landed = self.is_leaf[advanced]
            if landed.any():
                state[active[landed]] = advanced[landed]
                routing = ~landed
                active = active[routing]
                active_base = active_base[routing]
                current = advanced[routing]
            else:
                current = advanced
        return state

    def _batch_scaffold(self, n: int, n_features: int) -> tuple:
        """Size-dependent index arrays, cached for the previous batch size.

        The cached arrays are read, never written: ``apply`` copies the state
        template before scattering leaves into it and rebinds (rather than
        mutates) the compressed routing arrays. The cache slot itself is read
        into a local before validation, so concurrent classifying threads
        (``CensusService.classify_batch`` callers) can interleave safely — a
        thread that loses the publication race simply rebuilds its own
        scaffold.
        """
        scaffold = self._scaffold
        if scaffold is None or scaffold[0] != (n, n_features):
            state = np.repeat(self.roots, n)
            row_base = np.tile(np.arange(0, n * n_features, n_features),
                               len(self.roots))
            active = np.nonzero(~self.is_leaf[state])[0]
            rows = np.tile(np.arange(n), len(self.roots))
            scaffold = ((n, n_features), state, active,
                        row_base[active], state[active], rows)
            self._scaffold = scaffold
        return scaffold

    def sample_rows(self, n: int, n_features: int) -> np.ndarray:
        """Sample-row index per (tree, sample) slot (cached with the scaffold)."""
        return self._batch_scaffold(n, n_features)[5]


@dataclass
class RandomForestClassifier:
    """Bagged random-subspace decision forest."""

    n_trees: int = PAPER_N_TREES
    max_features: int = PAPER_MAX_FEATURES
    min_samples_split: int = 2
    max_depth: int | None = None
    seed: int = 0
    _trees: list[DecisionTreeClassifier] = field(default_factory=list, init=False, repr=False)
    _classes: list[str] = field(default_factory=list, init=False, repr=False)
    #: Per tree, the mapping from tree-local class index to forest class index.
    _tree_class_maps: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _stacked: _StackedForest | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_fitted_trees(cls, trees: list[DecisionTreeClassifier],
                          classes: list[str], *,
                          max_features: int = PAPER_MAX_FEATURES,
                          min_samples_split: int = 2,
                          max_depth: int | None = None,
                          seed: int = 0) -> "RandomForestClassifier":
        """Assemble a fitted forest from already-fitted member trees.

        This is the deserialisation path of the model-artifact layer: the
        trees come back from :meth:`DecisionTreeClassifier.from_flat_tree`
        and the forest is reassembled around them without retraining. The
        per-tree class maps are recomputed from each tree's own class list,
        so the forest votes bit-identically to the one it was saved from.

        Args:
            trees: The fitted member trees, in original fitting order.
            classes: The forest's class labels, in fitted (sorted) order.
            max_features: The original ``max_features`` knob (metadata only).
            min_samples_split: The original ``min_samples_split`` knob.
            max_depth: The original ``max_depth`` knob.
            seed: The original forest seed (metadata only).

        Returns:
            A fitted :class:`RandomForestClassifier` equivalent to the
            original.

        Raises:
            ValueError: If ``trees`` is empty, or a tree knows a class label
                the forest's class list does not contain.
        """
        if not trees:
            raise ValueError("a forest needs at least one fitted tree")
        forest = cls(n_trees=len(trees), max_features=max_features,
                     min_samples_split=min_samples_split,
                     max_depth=max_depth, seed=seed)
        forest._classes = [str(label) for label in classes]
        forest_index = {label: i for i, label in enumerate(forest._classes)}
        maps = []
        for position, tree in enumerate(trees):
            try:
                maps.append(np.array(
                    [forest_index[label] for label in tree.classes()],
                    dtype=np.intp))
            except KeyError as error:
                raise ValueError(
                    f"tree {position} predicts class {error.args[0]!r}, "
                    "which the forest's class list does not contain"
                ) from error
        forest._trees = list(trees)
        forest._tree_class_maps = maps
        return forest

    def fit(self, dataset: LabeledDataset) -> "RandomForestClassifier":
        """Grow the forest on bootstrap resamples of ``dataset``.

        Args:
            dataset: The labelled training set.

        Returns:
            ``self``, for chaining.

        Raises:
            ValueError: If ``n_trees`` or ``max_features`` is below one.
        """
        if self.n_trees < 1:
            raise ValueError("a forest needs at least one tree")
        if self.max_features < 1:
            raise ValueError("max_features must be at least 1")
        rng = np.random.default_rng(self.seed)
        self._classes = dataset.classes()
        self._trees = []
        self._tree_class_maps = []
        self._stacked = None
        forest_index = {label: i for i, label in enumerate(self._classes)}
        max_features = min(self.max_features, dataset.n_features)
        for _ in range(self.n_trees):
            sample = dataset.bootstrap(rng)
            tree = DecisionTreeClassifier(
                max_features=max_features,
                min_samples_split=self.min_samples_split,
                max_depth=self.max_depth,
                rng=np.random.default_rng(rng.integers(0, 2 ** 63 - 1)),
            )
            tree.fit(sample)
            self._trees.append(tree)
            # A bootstrap sample can miss classes, so every tree's local class
            # indices are mapped into the forest's class order.
            self._tree_class_maps.append(np.array(
                [forest_index[label] for label in tree.classes()], dtype=np.intp))
        return self

    # -------------------------------------------------------------- predict
    def vote_matrix(self, features: np.ndarray) -> np.ndarray:
        """Count every tree's vote for a whole sample matrix in one pass.

        Args:
            features: ``(n_samples, n_features)`` matrix (a single vector
                is promoted to one row).

        Returns:
            Integer vote counts, shape ``(n_samples, n_classes)``, columns
            in :meth:`classes` order.

        Raises:
            RuntimeError: If the forest has not been fitted.
        """
        if not self._trees:
            raise RuntimeError("classifier has not been fitted")
        features = np.atleast_2d(np.ascontiguousarray(features, dtype=float))
        if self._stacked is None:
            self._stacked = _StackedForest.build(self._trees, self._tree_class_maps)
        stacked = self._stacked
        n = len(features)
        n_classes = len(self._classes)
        predicted = stacked.prediction[stacked.apply(features)]
        rows = stacked.sample_rows(n, features.shape[1])
        return np.bincount(rows * n_classes + predicted,
                           minlength=n * n_classes).reshape(n, n_classes)

    def vote_many(self, features: np.ndarray) -> list[VoteResult]:
        """Classify a whole matrix, returning one :class:`VoteResult` per row.

        Args:
            features: ``(n_samples, n_features)`` matrix.

        Returns:
            One :class:`VoteResult` (winner, confidence, vote dict) per
            row, in input order.
        """
        votes = self.vote_matrix(features)
        winners = _winning_columns(votes)
        results: list[VoteResult] = []
        for row, winner in zip(votes, winners):
            nonzero = np.nonzero(row)[0]
            vote_dict = {self._classes[i]: int(row[i]) for i in nonzero}
            results.append(VoteResult(label=self._classes[winner],
                                      confidence=int(row[winner]) / len(self._trees),
                                      votes=vote_dict))
        return results

    def vote_one(self, vector: np.ndarray) -> VoteResult:
        """Classify one vector, returning the winner and its vote fraction.

        Args:
            vector: One feature vector.

        Returns:
            The :class:`VoteResult` of the forest vote.
        """
        return self.vote_many(np.atleast_2d(np.asarray(vector, dtype=float)))[0]

    def vote_one_reference(self, vector: np.ndarray) -> VoteResult:
        """Reference vote walking every tree per sample (kept for parity tests).

        Args:
            vector: One feature vector.

        Returns:
            The :class:`VoteResult`, identical to :meth:`vote_one`.

        Raises:
            RuntimeError: If the forest has not been fitted.
        """
        if not self._trees:
            raise RuntimeError("classifier has not been fitted")
        votes: dict[str, int] = {}
        for tree in self._trees:
            label = tree.predict_one(np.asarray(vector, dtype=float))
            votes[label] = votes.get(label, 0) + 1
        winner = max(votes.items(), key=lambda item: (item[1], item[0]))[0]
        confidence = votes[winner] / len(self._trees)
        return VoteResult(label=winner, confidence=confidence, votes=votes)

    def predict_one(self, vector: np.ndarray) -> str:
        """Predicted class label of one vector.

        Args:
            vector: One feature vector.

        Returns:
            The majority-vote class label.
        """
        return self.vote_one(vector).label

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class labels for a whole sample matrix.

        Args:
            features: ``(n_samples, n_features)`` matrix.

        Returns:
            An object array of class labels, one per row.
        """
        votes = self.vote_matrix(features)
        classes = np.array(self._classes, dtype=object)
        return classes[_winning_columns(votes)]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class vote fractions for a whole sample matrix.

        Args:
            features: ``(n_samples, n_features)`` matrix.

        Returns:
            Float matrix of vote fractions, columns in :meth:`classes`
            order; rows sum to one.
        """
        return self.vote_matrix(features) / len(self._trees)

    def classes(self) -> list[str]:
        """The fitted class labels, sorted.

        Returns:
            A copy of the forest's class-label list.
        """
        return list(self._classes)

    @property
    def trees(self) -> list[DecisionTreeClassifier]:
        """The fitted member trees (a copy of the internal list)."""
        return list(self._trees)


def _winning_columns(votes: np.ndarray) -> np.ndarray:
    """Winner per row; ties go to the lexicographically largest class label.

    Columns are in sorted class order, so the tie-break used by the reference
    implementation (``max`` over ``(count, label)``) is the right-most column
    holding the row maximum.
    """
    n_classes = votes.shape[1]
    return (n_classes - 1) - np.argmax(votes[:, ::-1], axis=1)
