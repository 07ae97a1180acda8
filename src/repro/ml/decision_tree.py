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

* **Fitting** grows every tree of a forest in lockstep (:func:`fit_trees`;
  a lone tree is a forest of one). At each step every unfinished tree pops
  its next splittable node from its own preorder stack and draws that
  node's candidate features from its own rng, so each tree draws exactly
  the subspaces it would draw alone. The step's nodes, grouped by class
  count and capped at ``_SEARCH_ELEMENTS`` sorted values per batch, are
  scored by one batched split search (:func:`_split_search`): every
  (node, candidate) pair is one segment of sorted values, one difference
  pass finds every cut between distinct consecutive values, one count of
  the labels per run of equal values, summed over the runs, gives every
  cut's class counts, and the Gini arithmetic runs on the cuts only.
  Every gain goes through the same floating-point operations as a
  per-feature search (each Gini sum reduces one contiguous row of a tree's
  own class count) and ties break the same way: the first best cut within
  a feature, and a later candidate wins only with a strictly larger gain.
  Nodes sort by each feature's rank, taken once per fit, and a node larger
  than the cap is a batch of its own. Tied values may sort in any order,
  because cuts only sit between distinct values.
* **Prediction** routes whole sample matrices through the tree's preorder
  arrays (:class:`FlatTree`, the only representation of a fitted tree) with
  no per-sample Python loop. ``predict_one`` / ``predict_reference`` walk
  the same arrays one sample at a time as the reference that parity tests
  compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.dataset import LabeledDataset


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree flattened into contiguous arrays (preorder layout).

    ``feature[i] == -1`` marks node ``i`` as a leaf; internal nodes route a
    sample left when ``x[feature[i]] <= threshold[i]``, and the left child
    of node ``i`` is ``i + 1``. ``leaf_class_counts`` carries the training
    class histogram of every node.
    """

    feature: np.ndarray          # (n_nodes,) intp, -1 for leaves
    threshold: np.ndarray        # (n_nodes,) float64
    left: np.ndarray             # (n_nodes,) intp
    right: np.ndarray            # (n_nodes,) intp
    prediction: np.ndarray       # (n_nodes,) intp, majority class index
    leaf_class_counts: np.ndarray  # (n_nodes, n_classes) int64

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

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
    _flat: FlatTree | None = field(default=None, init=False, repr=False)
    _classes: list[str] = field(default_factory=list, init=False, repr=False)

    @classmethod
    def from_flat_tree(cls, flat: FlatTree, classes: list[str], *,
                       max_features: int | None = None,
                       min_samples_split: int = 2,
                       max_depth: int | None = None) -> "DecisionTreeClassifier":
        """Rebuild a fitted tree from its flattened-array form.

        This is the deserialisation path of the model-artifact layer
        (:mod:`repro.serving.artifact`): the returned tree is fully fitted
        without ever touching training data, and predicts bit-identically to
        the tree ``flat`` came from.

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
        if flat.n_nodes == 0:
            raise ValueError("cannot rebuild a tree from an empty FlatTree")
        if not classes:
            raise ValueError("a fitted tree needs at least one class label")
        tree = cls(max_features=max_features,
                   min_samples_split=min_samples_split, max_depth=max_depth)
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
        candidates. The tree is kept as a :class:`FlatTree`.

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
        fit_trees([self], dataset, [np.arange(len(dataset))])
        return self

    #: Most sorted values one batched split search scores. A step's nodes
    #: are split into batches of at most this many (a node larger than this
    #: is a batch of its own), which bounds the search's scratch arrays.
    _SEARCH_ELEMENTS = 4096

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=self.max_features, replace=False)

    # -------------------------------------------------------------- predict
    def predict_one(self, vector: np.ndarray) -> str:
        """Reference prediction walking the flat arrays (kept for parity).

        Args:
            vector: One feature vector.

        Returns:
            The class label of the leaf the vector reaches.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        flat = self.flat_tree
        node = 0
        while flat.feature[node] >= 0:
            if vector[flat.feature[node]] <= flat.threshold[node]:
                node = flat.left[node]
            else:
                node = flat.right[node]
        return self._classes[flat.prediction[node]]

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
        """Per-sample prediction through :meth:`predict_one` (reference path).

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
        if self._flat is None:
            raise RuntimeError("classifier has not been fitted")
        return self._flat

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
        flat = self.flat_tree
        level = np.zeros(1, dtype=np.intp)
        depth = 0
        while True:
            level = level[flat.feature[level] >= 0]
            if not level.size:
                return depth
            level = np.concatenate([flat.left[level], flat.right[level]])
            depth += 1

    def node_count(self) -> int:
        """Number of nodes, internal and leaves.

        Returns:
            The node count of the fitted tree.

        Raises:
            RuntimeError: If the tree has not been fitted.
        """
        return self.flat_tree.n_nodes


def fit_trees(trees: list[DecisionTreeClassifier], dataset: LabeledDataset,
              samples: list[np.ndarray]) -> None:
    """Fit every tree of ``trees``, growing them in lockstep.

    Tree ``t`` grows on the rows ``samples[t]`` of ``dataset`` (row indices,
    repeats allowed, as a bootstrap draws them); its classes are the labels
    those rows hold, and its rows are never copied. Each tree ends exactly
    as :meth:`DecisionTreeClassifier.fit` on a copy of its rows would leave
    it: the same :class:`FlatTree`, classes and rng state. At each step
    every unfinished tree records its next nodes in preorder up to a
    splittable one and draws that node's candidates; the step's nodes
    share one split search per class count and batch of at most
    ``_SEARCH_ELEMENTS`` sorted values (a larger node is a batch of one).

    Args:
        trees: The trees to fit; their knobs and rngs are read, and their
            fitted state is replaced.
        dataset: The training set every sample indexes.
        samples: One row-index array per tree.
    """
    fit = _Fit(dataset)
    growths = [_Growth(tree, rows, fit) for tree, rows in zip(trees, samples)]
    cap = DecisionTreeClassifier._SEARCH_ELEMENTS
    pending = growths
    while pending:
        groups: dict[tuple[int, int], list[tuple]] = {}
        growing = []
        for growth in pending:
            node = growth.next_node(fit.n_features)
            if node is None:
                continue
            growing.append(growth)
            groups.setdefault((growth.n_classes, len(node[5])), []).append(node)
        pending = growing
        for (n_classes, n_candidates), nodes in groups.items():
            batch: list[tuple] = []
            elements = 0
            for node in nodes:
                size = n_candidates * len(node[2])
                if batch and elements + size > cap:
                    fit.search(batch, n_classes, n_candidates)
                    batch, elements = [], 0
                batch.append(node)
                elements += size
            fit.search(batch, n_classes, n_candidates)
    for growth in growths:
        growth.finish()


class _Growth:
    """One tree's growth: its preorder stack of pending nodes and its arrays.

    A stack entry is ``(rows, counts, depth, right_of)``: the node's row
    indices (``None`` for a node that cannot split), its class histogram,
    its depth, and its parent's index when it is a right child (-1
    otherwise).
    """

    def __init__(self, tree: DecisionTreeClassifier, rows: np.ndarray,
                 fit: "_Fit") -> None:
        counts = np.bincount(fit.labels[rows], minlength=len(fit.classes))
        present = np.flatnonzero(counts)
        self.tree = tree
        self.n_classes = len(present)
        # A bootstrap can miss a class: a tree counts only the classes its
        # rows hold, and ``local`` maps the fit's class indices onto them.
        self.local = None
        if self.n_classes < len(fit.classes):
            self.local = np.zeros(len(fit.classes), dtype=np.intp)
            self.local[present] = np.arange(self.n_classes)
        tree._classes = [fit.classes[i] for i in present]
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.counts: list[np.ndarray] = []
        splittable = self.splittable(len(rows), self.n_classes, 0)
        self.stack = [(rows if splittable else None, counts[present], 0, -1)]

    def splittable(self, n_rows: int, n_present: int, depth: int) -> bool:
        tree = self.tree
        return (n_rows >= tree.min_samples_split and n_present > 1
                and (tree.max_depth is None or depth < tree.max_depth))

    def next_node(self, n_features: int) -> tuple | None:
        """Record nodes in preorder up to the next splittable one.

        Returns:
            ``(growth, index, rows, counts, depth, candidates)`` for that
            node, its candidates drawn from the tree's rng, or ``None`` once
            the tree is complete.
        """
        stack = self.stack
        while stack:
            rows, counts, depth, right_of = stack.pop()
            index = len(self.feature)
            if right_of >= 0:
                self.right[right_of] = index
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.counts.append(counts)
            if rows is not None:
                return (self, index, rows, counts, depth,
                        self.tree._candidate_features(n_features))
        return None

    def split(self, index: int, feature: int, threshold: float, depth: int,
              left: tuple, right: tuple) -> None:
        """Record node ``index``'s split and push its ``(rows, counts)``
        children, the right one first so the left pops next (preorder)."""
        self.feature[index] = feature
        self.threshold[index] = threshold
        self.left[index] = index + 1
        self.stack.append((right[0], right[1], depth + 1, index))
        self.stack.append((left[0], left[1], depth + 1, -1))

    def finish(self) -> None:
        counts = np.vstack(self.counts)
        tree = self.tree
        tree._flat = FlatTree(feature=np.array(self.feature, dtype=np.intp),
                              threshold=np.array(self.threshold, dtype=np.float64),
                              left=np.array(self.left, dtype=np.intp),
                              right=np.array(self.right, dtype=np.intp),
                              prediction=counts.argmax(axis=1),
                              leaf_class_counts=counts)


class _Fit:
    """Tables one :func:`fit_trees` call shares across its trees and steps."""

    def __init__(self, dataset: LabeledDataset) -> None:
        self.classes = dataset.classes()
        class_index = {label: i for i, label in enumerate(self.classes)}
        self.labels = np.array([class_index[str(label)] for label in dataset.labels],
                               dtype=np.intp)
        # Feature-major copy: row ``f`` is feature ``f`` over every sample.
        columns = np.ascontiguousarray(np.asarray(dataset.features, dtype=float).T)
        self.n_features, self.n_rows = columns.shape
        # Every feature sorted once (NaNs last, ties in any order). Row
        # indices are int32: a node's rows are copied out of these tables,
        # and lockstep keeps every tree's pending nodes alive at once.
        order = columns.argsort(axis=1).astype(np.int32)
        self.sorted_rows = order.ravel()
        self.sorted_values = np.take_along_axis(columns, order, axis=1).ravel()
        self.sorted_labels = self.labels[self.sorted_rows]
        # ``position[f * n_rows + row]``: where ``row`` sits in feature
        # ``f``'s order, as an index into the flattened sorted tables.
        position = np.empty(columns.shape, dtype=np.intp)
        np.put_along_axis(position, order,
                          np.arange(position.size).reshape(position.shape), axis=1)
        self.position = position.ravel()

    def search(self, batch: list[tuple], n_classes: int,
               n_candidates: int) -> None:
        """Score a batch of nodes in one search and split them."""
        n_nodes = len(batch)
        sizes = np.array([len(node[2]) for node in batch])
        rows = np.concatenate([node[2] for node in batch])
        node_of_row = np.repeat(np.arange(n_nodes), sizes)
        candidates = np.array([node[5] for node in batch])
        # Segment ``j * n_nodes + i`` is node ``i``'s rows by its ``j``-th
        # candidate; one sort of (segment, rank) keys orders every segment.
        offset = candidates.T * self.n_rows
        base = (np.arange(n_candidates)[:, None] * n_nodes + node_of_row) * self.position.size
        keys = (base + self.position[offset[:, node_of_row] + rows]).ravel()
        keys.sort()
        where = keys - base.ravel()
        labels = self.sorted_labels[where]
        if n_classes < len(self.classes):
            local = np.array([node[0].local for node in batch])
            labels = local[np.tile(node_of_row, n_candidates), labels]
        starts = (np.arange(n_candidates)[:, None] * len(rows)
                  + (np.cumsum(sizes) - sizes)).ravel()
        counts = np.array([node[3] for node in batch])
        slots, thresholds, n_left, left_counts = _split_search(
            self.sorted_values[where], labels, starts, counts)
        right_counts = counts - left_counts
        present_left = np.count_nonzero(left_counts, axis=1).tolist()
        present_right = np.count_nonzero(right_counts, axis=1).tolist()
        starts, sizes = starts.tolist(), sizes.tolist()
        for i, (slot, threshold, going) in enumerate(
                zip(slots.tolist(), thresholds.tolist(), n_left.tolist())):
            if slot < 0:
                continue
            growth, index, _, _, depth, node_candidates = batch[i]
            start = starts[slot * n_nodes + i]
            middle = start + going
            left = right = None
            if growth.splittable(going, present_left[i], depth + 1):
                left = self.sorted_rows[where[start:middle]]
            if growth.splittable(sizes[i] - going, present_right[i], depth + 1):
                right = self.sorted_rows[where[middle:start + sizes[i]]]
            growth.split(index, int(node_candidates[slot]), threshold, depth,
                         (left, left_counts[i]), (right, right_counts[i]))


def _split_search(values: np.ndarray, labels: np.ndarray, starts: np.ndarray,
                  node_counts: np.ndarray):
    """Best Gini split of every node of one batch, in one vectorised pass.

    The batch holds the same number of candidate segments for each of its
    ``n_nodes`` nodes, candidate-major: segment ``j * n_nodes + i`` is node
    ``i``'s rows sorted by its ``j``-th candidate feature, from
    ``starts[j * n_nodes + i]`` up to the next start, with the sorted
    feature values in ``values`` and the rows' class indices in ``labels``.
    ``node_counts[i]`` is node ``i``'s class histogram; every node of a
    batch counts the same number of classes.

    Returns:
        ``(slot, threshold, n_left, left_counts)``, one entry per node: the
        winning candidate's index (-1 when no cut gains more than 1e-12),
        its threshold, how many rows go left, and their class histogram.
    """
    n_nodes, n_classes = node_counts.shape
    n_segments = len(starts)
    sizes = np.diff(starts, append=len(values))
    # Candidate cuts sit between distinct consecutive values of a segment.
    # inf - inf between neighbouring values is NaN, which is no cut, and a
    # difference or midpoint past the float range is inf, as in Python
    # float arithmetic: neither is worth a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        distinct = values[1:] - values[:-1] > 1e-12
    distinct[starts[1:] - 1] = False
    cut = np.flatnonzero(distinct)
    if len(cut) == 0:
        return (np.full(n_nodes, -1), np.zeros(n_nodes),
                np.zeros(n_nodes, dtype=np.intp), np.zeros_like(node_counts))
    segment = np.searchsorted(starts, cut, side="right") - 1
    node = segment % n_nodes
    n_node = sizes[segment]
    n_left = cut - starts[segment] + 1.0
    n_right = n_node - n_left
    # Class counts are exact integers, counted per run of equal values of
    # a segment (one bincount of (run, class) pairs) and summed over runs.
    # Each segment's first run takes away the previous segment's totals
    # (its node's class counts), so the running count restarts at every
    # segment. A cut and the last row that goes left both end a run: the
    # value after either differs from it.
    change = np.empty(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=change[1:])
    change[starts] = True
    run = np.cumsum(change) - 1
    running = np.bincount(run * n_classes + labels,
                          minlength=(run[-1] + 1) * n_classes).reshape(-1, n_classes)
    running[run[starts[1:]]] -= node_counts[np.arange(n_segments - 1) % n_nodes]
    np.cumsum(running, axis=0, out=running)
    at_cut = running[run[cut]]
    # Every Gini sum reduces one contiguous row of the tree's own classes,
    # as a per-feature search does, so the gains match it to the last bit.
    # One (cuts, classes) float array at a time bounds the search's memory.
    shares = at_cut.astype(np.float64)
    np.divide(shares, n_left[:, None], out=shares)
    gini_left = 1.0 - np.square(shares, out=shares).sum(axis=1)
    shares = node_counts.astype(np.float64)[node]
    shares -= at_cut
    np.divide(shares, n_right[:, None], out=shares)
    gini_right = 1.0 - np.square(shares, out=shares).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n_node
    parent = 1.0 - ((node_counts / sizes[:n_nodes, None]) ** 2).sum(axis=1)
    gains = parent[node] - weighted
    per_segment = np.bincount(segment, minlength=n_segments)
    scored = np.flatnonzero(per_segment)
    first = np.cumsum(per_segment)[scored] - per_segment[scored]
    top = np.maximum.reduceat(gains, first)
    # Within a segment the first (lowest) cut with the top gain wins.
    hits = np.flatnonzero(gains == np.repeat(top, per_segment[scored]))
    at = cut[hits[np.searchsorted(hits, first)]]
    with np.errstate(invalid="ignore", over="ignore"):
        threshold = 0.5 * (values[at] + values[at + 1])
    # The ``mask.all() or not mask.any()`` guard, read off the sorted values:
    # no row goes left iff the first does not, every row does iff the last
    # does (NaNs sort last).
    low = starts[scored]
    valid = (values[low] <= threshold) & ~(values[low + sizes[scored] - 1] <= threshold)
    score = np.full(n_segments, -np.inf)
    score[scored[valid]] = top[valid]
    # The first candidate with the largest gain wins, as in a loop where a
    # later candidate takes over only with a strictly larger gain.
    score = score.reshape(-1, n_nodes)
    slot = score.argmax(axis=0)
    chosen = slot * n_nodes + np.arange(n_nodes)
    slot[score.max(axis=0) <= 1e-12] = -1
    cut_value = np.full(n_segments, np.nan)
    cut_value[scored] = threshold
    # Rows going left are the values up to the threshold: a segment prefix.
    going = np.add.reduceat(values <= np.repeat(cut_value, sizes), starts,
                            dtype=np.intp)[chosen]
    # A split sends rows both ways; a child as large as its parent would be
    # split again forever.
    assert np.all((slot < 0) | ((going > 0) & (going < sizes[chosen])))
    return (slot, cut_value[chosen], going,
            running[run[starts[chosen] + going - 1]])
