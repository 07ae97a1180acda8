"""Tests of the batched classification service over persisted artifacts."""

import sys
import threading

import numpy as np
import pytest

from repro.core.checkpoint import classifier_fingerprint
from repro.core.classifier import CaaiClassifier
from repro.core.gather import TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.serving.artifact import ModelArtifactError, load_model, save_model
from repro.serving.service import CensusService


@pytest.fixture(scope="module")
def artifact(trained_classifier, tmp_path_factory):
    path = tmp_path_factory.mktemp("svc") / "model.caai"
    save_model(trained_classifier, path)
    return path


class TestCensusService:
    def test_rejects_an_untrained_classifier(self):
        with pytest.raises(ValueError, match="trained"):
            CensusService(CaaiClassifier(n_trees=3))

    def test_load_neither_refits_nor_reprobes(self, trained_classifier,
                                              artifact, monkeypatch):
        """Loading rebuilds the saved trees; it never trains or probes."""
        def forbidden(*args, **kwargs):
            raise AssertionError("an artifact load must not train or probe")

        for owner, name in [(RandomForestClassifier, "fit"),
                            (DecisionTreeClassifier, "fit"),
                            (TrainingSetBuilder, "build_examples"),
                            (TraceGatherer, "gather_probe")]:
            monkeypatch.setattr(owner, name, forbidden)
        expected = classifier_fingerprint(trained_classifier)
        assert classifier_fingerprint(load_model(artifact)) == expected
        service = CensusService.from_artifact(artifact)
        assert classifier_fingerprint(service.classifier) == expected

    def test_concurrent_callers_match_serial(self, artifact):
        """Two threads share one loaded model; batch sizes alternate, so
        the stacked forest's cached scaffold is replaced while the other
        thread routes, and every answer equals the serial one."""
        service = CensusService.from_artifact(artifact)
        rng = np.random.default_rng(29)
        batches = [rng.normal(size=(size, 7)) for size in (40, 75)]

        def answers(vectors):
            return [(i.label, i.confidence, i.unsure)
                    for i in service.classify_batch(vectors, 64)]

        serial = [answers(vectors) for vectors in batches]
        rounds = 30
        start = threading.Barrier(2, timeout=10.0)
        results = [[], []]

        def caller(worker):
            start.wait()
            for round_ in range(rounds):
                which = (round_ + worker) % 2
                results[worker].append((which, answers(batches[which])))

        threads = [threading.Thread(target=caller, args=(worker,))
                   for worker in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for worker in (0, 1):
            assert len(results[worker]) == rounds
            for which, got in results[worker]:
                assert got == serial[which]

    def test_classify_batch_matches_the_census_pipeline(
            self, trained_classifier, artifact):
        """Artifact-served answers are identical to direct classification."""
        service = CensusService.from_artifact(artifact)
        vectors = np.random.default_rng(17).normal(size=(30, 7))
        served = service.classify_batch(vectors, 64)
        direct = trained_classifier.classify_vectors(vectors, 64)
        assert [(s.label, s.confidence, s.unsure) for s in served] \
            == [(d.label, d.confidence, d.unsure) for d in direct]

    def test_per_vector_w_timeouts(self, trained_classifier, artifact):
        service = CensusService.from_artifact(artifact)
        vectors = np.random.default_rng(19).normal(size=(4, 7))
        w_timeouts = [64, 128, 256, 64]
        served = service.classify_batch(vectors, w_timeouts)
        assert [s.w_timeout for s in served] == w_timeouts

    def test_corrupt_artifact_surfaces_the_structured_error(self, tmp_path):
        missing = tmp_path / "absent.caai"
        with pytest.raises(ModelArtifactError) as excinfo:
            CensusService.from_artifact(missing)
        assert excinfo.value.path == missing
        assert excinfo.value.hint
