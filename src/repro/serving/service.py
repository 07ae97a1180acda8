"""The batched classification service riding a persisted model artifact.

:class:`CensusService` is the serving-side face of the classifier: load a
trained model from an artifact file (milliseconds, no retraining), then
answer batched classification requests through the forest's vectorised
``classify_vectors`` path. ``python -m repro.census run --artifact``
serves a whole census from the same artifact through the work-stealing
orchestrator.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.classifier import CaaiClassifier, Identification
from repro.serving.artifact import timed_load


class CensusService:
    """Batched classification over a loaded (not retrained) classifier."""

    def __init__(self, classifier: CaaiClassifier):
        """Wrap a trained classifier for serving.

        Args:
            classifier: A trained :class:`~repro.core.classifier.CaaiClassifier`.

        Raises:
            ValueError: If the classifier is not trained.
        """
        if not classifier.is_trained:
            raise ValueError("CensusService needs a trained classifier; "
                             "load one from an artifact or train first")
        self._classifier = classifier

    @classmethod
    def from_artifact(cls, path: str | Path) -> "CensusService":
        """Load a service straight from a model artifact file.

        Args:
            path: The artifact written by :func:`repro.serving.artifact.save_model`.

        Returns:
            A ready service over the loaded classifier.

        Raises:
            repro.serving.artifact.ModelArtifactError: If the artifact is
                missing, corrupt, tampered with, or version-skewed.
        """
        classifier, _ = timed_load(path)
        return cls(classifier)

    # ------------------------------------------------------------ properties
    @property
    def classifier(self) -> CaaiClassifier:
        """The wrapped trained classifier."""
        return self._classifier

    # ------------------------------------------------------------- endpoints
    def classify_batch(self, vectors, w_timeout) -> list[Identification]:
        """Classify a batch of feature vectors in one vectorised pass.

        Args:
            vectors: A sequence of :class:`~repro.core.features.FeatureVector`
                or an ``(n_samples, n_features)`` matrix.
            w_timeout: One value for the whole batch, or one per vector.

        Returns:
            One :class:`~repro.core.classifier.Identification` per vector,
            in request order — identical to what the census pipeline's
            classify step would produce for the same inputs.
        """
        return self._classifier.classify_vectors(vectors, w_timeout)
