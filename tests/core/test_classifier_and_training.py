"""Tests for the training-set builder and the CAAI classifier."""

import numpy as np
import pytest

from repro.core.classifier import CaaiClassifier
from repro.core.labels import RC_SMALL
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import default_condition_database
from tests.conftest import make_synthetic_server


class TestTrainingSetBuilder:
    def test_small_training_set_structure(self, small_training_set):
        # 14 algorithms x 2 w_timeouts x 4 conditions (a handful of probes may
        # be dropped when an emulated condition is too hostile, as on the
        # paper's testbed).
        assert 100 <= len(small_training_set) <= 112
        assert small_training_set.n_features == 7
        classes = set(small_training_set.classes())
        assert RC_SMALL in classes
        assert "westwood" in classes and "cubic-b" in classes

    def test_labels_follow_rc_small_rule(self):
        builder = TrainingSetBuilder(conditions_per_pair=1, w_timeouts=(64,),
                                     algorithms=("reno", "ctcp-a", "bic"),
                                     condition_database=default_condition_database(100, 1),
                                     seed=2)
        examples = builder.build_examples()
        labels = {example.algorithm: example.label for example in examples}
        assert labels["reno"] == RC_SMALL
        assert labels["ctcp-a"] == RC_SMALL
        assert labels["bic"] == "bic"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingSetBuilder(conditions_per_pair=0)


class TestCaaiClassifier:
    def test_requires_training(self):
        classifier = CaaiClassifier()
        assert not classifier.is_trained
        with pytest.raises(RuntimeError):
            classifier.classes()

    def test_training_exposes_classes(self, trained_classifier):
        assert trained_classifier.is_trained
        assert RC_SMALL in trained_classifier.classes()

    def test_classify_probe_returns_identification(self, trained_classifier,
                                                   gatherer_512, ideal_condition, rng):
        probe = gatherer_512.gather_probe(make_synthetic_server("cubic-b"),
                                          ideal_condition, rng)
        identification = trained_classifier.classify_probe(probe)
        assert identification.label in trained_classifier.classes()
        assert 0.0 < identification.confidence <= 1.0
        assert identification.w_timeout == 512

    def test_confident_identifications_are_not_unsure(self, trained_classifier,
                                                      gatherer_512, ideal_condition, rng):
        probe = gatherer_512.gather_probe(make_synthetic_server("westwood"),
                                          ideal_condition, rng)
        identification = trained_classifier.classify_probe(probe)
        assert identification.reported_label == identification.label or identification.unsure

    def test_unusable_probe_rejected(self, trained_classifier, ideal_condition, rng,
                                     gatherer_512):
        from repro.core.gather import SyntheticServer
        from repro.tcp.connection import SenderConfig

        server = SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                 available_bytes=2_000)
        probe = gatherer_512.gather_probe(server, ideal_condition, rng)
        with pytest.raises(ValueError):
            trained_classifier.classify_probe(probe)

    def test_clean_probes_identified_correctly(self, trained_classifier, gatherer_512,
                                                ideal_condition, rng):
        # Under clean conditions the distinctive algorithms must be identified.
        for algorithm in ("cubic-b", "bic", "stcp", "westwood", "vegas", "htcp"):
            probe = gatherer_512.gather_probe(make_synthetic_server(algorithm),
                                              ideal_condition, rng)
            identification = trained_classifier.classify_probe(probe)
            assert identification.label == algorithm, (
                f"{algorithm} identified as {identification.label}")
