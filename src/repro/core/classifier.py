"""CAAI step 3: algorithm classification (Section VI of the paper).

A random forest trained on testbed feature vectors assigns each measured
feature vector to one of the TCP algorithm classes. The forest's vote fraction
is reported as a confidence; identifications below a 40 % confidence are
reported as "unsure" rather than forced into a class (Section VII-B3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FeatureExtractor, FeatureVector
from repro.core.labels import UNSURE
from repro.core.trace import ProbeTrace
from repro.ml.dataset import LabeledDataset
from repro.ml.random_forest import (
    PAPER_MAX_FEATURES,
    PAPER_N_TREES,
    RandomForestClassifier,
)

#: Minimum vote fraction for an identification to be reported (Section VII-B3).
CONFIDENCE_THRESHOLD = 0.40


@dataclass(frozen=True)
class Identification:
    """The outcome of classifying one probe."""

    label: str
    confidence: float
    vector: FeatureVector
    w_timeout: int
    unsure: bool

    @property
    def reported_label(self) -> str:
        return UNSURE if self.unsure else self.label


@dataclass
class CaaiClassifier:
    """The CAAI classification pipeline: feature extraction plus random forest."""

    n_trees: int = PAPER_N_TREES
    max_features: int = PAPER_MAX_FEATURES
    confidence_threshold: float = CONFIDENCE_THRESHOLD
    seed: int = 0
    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)
    _forest: RandomForestClassifier | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_trained_forest(cls, forest: RandomForestClassifier, *,
                            confidence_threshold: float = CONFIDENCE_THRESHOLD,
                            extractor: FeatureExtractor | None = None
                            ) -> "CaaiClassifier":
        """Assemble a classifier around an already-fitted forest.

        This is the artifact-loading path (:mod:`repro.serving.artifact`):
        the forest comes back from disk via
        :meth:`~repro.ml.random_forest.RandomForestClassifier.from_fitted_trees`
        and the pipeline is rebuilt around it without retraining. The
        classifier's knobs are copied from the forest so its fingerprint
        (:func:`repro.core.checkpoint.classifier_fingerprint`) matches the
        classifier it was saved from.

        Args:
            forest: A fitted random forest.
            confidence_threshold: The unsure-cutoff to classify with.
            extractor: The feature extractor (defaults to a fresh one with
                paper parameters).

        Returns:
            A trained :class:`CaaiClassifier` that classifies every vector
            exactly like the classifier the forest came from.

        Raises:
            ValueError: If the forest has not been fitted.
        """
        if not forest.trees:
            raise ValueError("the forest has not been fitted; a serving "
                             "classifier needs fitted trees")
        classifier = cls(n_trees=forest.n_trees,
                         max_features=forest.max_features,
                         confidence_threshold=confidence_threshold,
                         seed=forest.seed,
                         extractor=extractor or FeatureExtractor())
        classifier._forest = forest
        return classifier

    # ------------------------------------------------------------------ train
    def train(self, training_set: LabeledDataset) -> "CaaiClassifier":
        """Fit the random forest on a labelled training set.

        Args:
            training_set: Feature vectors labelled with training labels
                (:func:`repro.core.labels.training_label`).

        Returns:
            ``self``, for chaining (``CaaiClassifier(...).train(...)``).
        """
        forest = RandomForestClassifier(n_trees=self.n_trees,
                                        max_features=self.max_features,
                                        seed=self.seed)
        forest.fit(training_set)
        self._forest = forest
        return self

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has fitted a forest yet."""
        return self._forest is not None

    def classes(self) -> list[str]:
        """The class labels the trained forest can assign, sorted.

        Returns:
            The label list of the fitted forest.

        Raises:
            RuntimeError: If the classifier has not been trained.
        """
        return self._require_forest().classes()

    # --------------------------------------------------------------- classify
    def classify_vector(self, vector: FeatureVector, w_timeout: int) -> Identification:
        """Classify an already-extracted feature vector.

        Args:
            vector: The seven-element CAAI feature vector.
            w_timeout: The ``w_timeout`` the probe was gathered at.

        Returns:
            The :class:`Identification` (label, confidence, unsure flag).
        """
        return self.classify_vectors([vector], w_timeout)[0]

    def classify_probe(self, probe: ProbeTrace) -> Identification:
        """Extract features from a probe and classify them.

        Args:
            probe: A usable probe (``probe.usable_for_features`` true).

        Returns:
            The :class:`Identification` of the probed server.

        Raises:
            ValueError: If the probe is not usable for feature extraction.
        """
        if not probe.usable_for_features:
            raise ValueError("probe is not usable for classification; check "
                             "probe.usable_for_features before calling")
        vector = self.extractor.extract(probe)
        return self.classify_vector(vector, probe.w_timeout)

    def classify_vectors(self, vectors, w_timeout) -> list[Identification]:
        """Classify a whole batch through the forest in one vectorised pass.

        Args:
            vectors: A sequence of :class:`FeatureVector` or a
                ``(n_samples, n_features)`` matrix.
            w_timeout: One value for the whole batch, or one per vector.

        Returns:
            One :class:`Identification` per vector, in input order.
        """
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            feature_vectors = [FeatureVector.from_array(row) for row in vectors]
            matrix = np.asarray(vectors, dtype=float)
        else:
            feature_vectors = list(vectors)
            if not feature_vectors:
                return []
            matrix = np.vstack([v.as_array() for v in feature_vectors])
        if np.ndim(w_timeout) == 0:
            w_timeouts = [int(w_timeout)] * len(feature_vectors)
        else:
            w_timeouts = [int(w) for w in w_timeout]
            if len(w_timeouts) != len(feature_vectors):
                raise ValueError("w_timeout must be scalar or one value per vector")
        results = self._require_forest().vote_many(matrix)
        return [Identification(label=result.label, confidence=result.confidence,
                               vector=vector, w_timeout=w,
                               unsure=result.confidence < self.confidence_threshold)
                for vector, w, result in zip(feature_vectors, w_timeouts, results)]

    # ------------------------------------------------------------- internals
    def _require_forest(self) -> RandomForestClassifier:
        if self._forest is None:
            raise RuntimeError("the classifier has not been trained; call train() first")
        return self._forest

    @property
    def forest(self) -> RandomForestClassifier:
        """The fitted forest (raises ``RuntimeError`` when untrained)."""
        return self._require_forest()
