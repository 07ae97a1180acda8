"""Tests for label conventions (RC-small merge, presentation labels)."""

from repro.core.labels import (
    RC_SMALL,
    UNSURE,
    presentation_label,
    training_label,
)
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS


class TestTrainingLabels:
    def test_rc_small_merge_at_small_w_timeout(self):
        for algorithm in ("reno", "ctcp-a", "ctcp-b"):
            assert training_label(algorithm, 64) == RC_SMALL
            assert training_label(algorithm, 128) == RC_SMALL

    def test_no_merge_at_large_w_timeout(self):
        for algorithm in ("reno", "ctcp-a", "ctcp-b"):
            assert training_label(algorithm, 256) == algorithm
            assert training_label(algorithm, 512) == algorithm

    def test_other_algorithms_never_merged(self):
        for algorithm in ("bic", "cubic-b", "vegas", "westwood"):
            for w_timeout in (64, 128, 256, 512):
                assert training_label(algorithm, w_timeout) == algorithm


def class_set(w_timeout):
    """The labels a probe at ``w_timeout`` can be assigned."""
    return {training_label(algorithm, w_timeout)
            for algorithm in IDENTIFIABLE_ALGORITHMS}


class TestClassSets:
    def test_small_w_timeout_has_12_classes(self):
        classes = class_set(64)
        assert len(classes) == 12
        assert RC_SMALL in classes
        assert "reno" not in classes

    def test_large_w_timeout_has_14_classes(self):
        classes = class_set(512)
        assert len(classes) == 14
        assert RC_SMALL not in classes


class TestPresentation:
    def test_big_suffix(self):
        assert presentation_label("reno") == "RENO-big"
        assert presentation_label("ctcp-a") == "CTCP-A-big"

    def test_special_labels(self):
        assert presentation_label(RC_SMALL) == "RC-small"
        assert presentation_label(UNSURE) == "Unsure TCP"

    def test_plain_algorithms_uppercased(self):
        assert presentation_label("cubic-b") == "CUBIC-B"
