"""The batched classification service riding a persisted model artifact.

:class:`CensusService` is the serving-side face of the classifier: load a
trained model from an artifact file (milliseconds, no retraining), then
answer batched classification requests through the forest's vectorised
``classify_vectors`` path and emit responses in the stable JSON schema
(:mod:`repro.serving.schema`). ``python -m repro.census run --artifact``
serves a whole census from the same artifact through the work-stealing
orchestrator.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.classifier import CaaiClassifier, Identification
from repro.core.checkpoint import classifier_fingerprint
from repro.serving.artifact import timed_load
from repro.serving.schema import classify_batch_payload


class CensusService:
    """Batched classification over a loaded (not retrained) classifier."""

    def __init__(self, classifier: CaaiClassifier, *,
                 source: dict | None = None):
        """Wrap a trained classifier for serving.

        Args:
            classifier: A trained :class:`~repro.core.classifier.CaaiClassifier`.
            source: Optional provenance dict echoed into every response
                payload (artifact path, fingerprint, ...).

        Raises:
            ValueError: If the classifier is not trained.
        """
        if not classifier.is_trained:
            raise ValueError("CensusService needs a trained classifier; "
                             "load one from an artifact or train first")
        self._classifier = classifier
        self._source = source
        self._load_seconds: float | None = None

    @classmethod
    def from_artifact(cls, path: str | Path) -> "CensusService":
        """Load a service straight from a model artifact file.

        Args:
            path: The artifact written by :func:`repro.serving.artifact.save_model`.

        Returns:
            A ready service whose responses carry the artifact path and
            fingerprint as provenance.

        Raises:
            repro.serving.artifact.ModelArtifactError: If the artifact is
                missing, corrupt, tampered with, or version-skewed.
        """
        classifier, seconds = timed_load(path)
        service = cls(classifier, source={
            "artifact": str(path),
            "fingerprint": classifier_fingerprint(classifier),
        })
        service._load_seconds = seconds
        return service

    # ------------------------------------------------------------ properties
    @property
    def classifier(self) -> CaaiClassifier:
        """The wrapped trained classifier."""
        return self._classifier

    @property
    def source(self) -> dict | None:
        """Provenance echoed into response payloads (``None`` if unset)."""
        return self._source

    @property
    def load_seconds(self) -> float | None:
        """Artifact load time when built via :meth:`from_artifact`."""
        return self._load_seconds

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

    def classify_batch_payload(self, vectors, w_timeout) -> dict:
        """Classify a batch and wrap it in the stable response schema.

        Args:
            vectors: As for :meth:`classify_batch`.
            w_timeout: As for :meth:`classify_batch`.

        Returns:
            The ``caai-classify-batch`` payload
            (:func:`repro.serving.schema.classify_batch_payload`) with this
            service's provenance attached.
        """
        return classify_batch_payload(self.classify_batch(vectors, w_timeout),
                                      source=self._source)
