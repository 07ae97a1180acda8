"""Model-artifact round-trip and corruption matrix.

Mirrors the checkpoint layer's corruption philosophy: any artifact a load
cannot fully verify — wrong magic, version skew, torn header, short or
tampered payload, inconsistent fingerprint — fails loudly with a structured
:class:`ModelArtifactError` (path + hint), never with a silently wrong
classifier. A successful load is *proven* equivalent: the reconstructed
classifier's fingerprint must equal the one recorded at save time, which
hashes the raw node tables.
"""

import json
import os
import stat

import numpy as np
import pytest

from repro.core.checkpoint import classifier_fingerprint
from repro.core.classifier import CaaiClassifier
from repro.ml.dataset import LabeledDataset
from repro.serving.artifact import (
    MODEL_ARTIFACT_VERSION,
    ModelArtifactError,
    inspect_model,
    load_model,
    save_model,
    timed_load,
)


@pytest.fixture(scope="module")
def classifier() -> CaaiClassifier:
    """A small trained classifier (synthetic features: fast, deterministic)."""
    rng = np.random.default_rng(7)
    features = rng.normal(size=(160, 7))
    labels = np.array([f"algo-{i % 4}" for i in range(160)], dtype=object)
    return CaaiClassifier(n_trees=12, seed=3).train(
        LabeledDataset(features, labels))


@pytest.fixture
def artifact(classifier, tmp_path):
    """A freshly saved artifact of the module classifier."""
    path = tmp_path / "model.caai"
    save_model(classifier, path, metadata={"note": "test"})
    return path


class TestRoundTrip:
    def test_fingerprint_survives_the_round_trip(self, classifier, artifact):
        loaded = load_model(artifact)
        assert (classifier_fingerprint(loaded)
                == classifier_fingerprint(classifier))

    def test_classification_is_bit_identical(self, classifier, artifact):
        loaded = load_model(artifact)
        queries = np.random.default_rng(11).normal(size=(60, 7))
        for original, reloaded in zip(classifier.classify_vectors(queries, 64),
                                      loaded.classify_vectors(queries, 64)):
            assert reloaded.label == original.label
            assert reloaded.confidence == original.confidence
            assert reloaded.unsure == original.unsure

    def test_tree_predictions_match_reference_path(self, classifier, artifact):
        """Reconstructed linked nodes agree with the flat-table router."""
        loaded = load_model(artifact)
        queries = np.random.default_rng(13).normal(size=(40, 7))
        for tree in loaded.forest.trees:
            assert np.array_equal(tree.predict(queries),
                                  tree.predict_reference(queries))

    def test_saved_header_matches_inspect(self, classifier, artifact):
        info = inspect_model(artifact)
        assert info["fingerprint"] == classifier_fingerprint(classifier)
        assert info["n_trees"] == classifier.n_trees
        assert info["classes"] == classifier.classes()
        assert info["metadata"] == {"note": "test"}
        assert info["format"] == MODEL_ARTIFACT_VERSION
        assert info["total_nodes"] > 0

    def test_timed_load_reports_duration(self, artifact):
        loaded, seconds = timed_load(artifact)
        assert loaded.is_trained
        assert seconds > 0

    def test_save_syncs_the_file_and_its_directory(self, classifier, tmp_path,
                                                   monkeypatch):
        """A crash right after ``save_model`` returns cannot tear the file."""
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        path = tmp_path / "model.caai"
        save_model(classifier, path)
        assert sorted(synced) == [(False, path.stat().st_ino),
                                  (True, tmp_path.stat().st_ino)]

    def test_save_requires_a_trained_classifier(self, tmp_path):
        with pytest.raises(ModelArtifactError, match="untrained"):
            save_model(CaaiClassifier(n_trees=3), tmp_path / "nope.caai")


def _expect_error(path, match) -> ModelArtifactError:
    with pytest.raises(ModelArtifactError, match=match) as excinfo:
        load_model(path)
    error = excinfo.value
    assert error.path == path
    assert error.hint
    return error


class TestCorruptionMatrix:
    """Every tampering mode fails loudly with path + hint attached."""

    def test_missing_file(self, tmp_path):
        _expect_error(tmp_path / "absent.caai", match="no model artifact")

    def test_wrong_magic(self, artifact):
        artifact.write_bytes(b"NOT-A-MODEL v1\n" + b"x" * 50)
        _expect_error(artifact, match="not a CAAI model artifact")

    def test_version_skew(self, artifact):
        raw = artifact.read_bytes()
        artifact.write_bytes(raw.replace(
            f"v{MODEL_ARTIFACT_VERSION}\n".encode(), b"v999\n", 1))
        _expect_error(artifact, match="format version")

    def test_corrupt_header_length_line(self, artifact):
        raw = artifact.read_bytes()
        magic_end = raw.find(b"\n")
        length_end = raw.find(b"\n", magic_end + 1)
        artifact.write_bytes(raw[:magic_end + 1] + b"banana\n"
                             + raw[length_end + 1:])
        _expect_error(artifact, match="corrupt header-length line")

    def test_truncated_inside_header(self, artifact):
        raw = artifact.read_bytes()
        magic_end = raw.find(b"\n")
        length_end = raw.find(b"\n", magic_end + 1)
        artifact.write_bytes(raw[:length_end + 20])
        _expect_error(artifact, match="truncated inside its header")

    def test_unparsable_header(self, artifact):
        raw = artifact.read_bytes()
        magic_end = raw.find(b"\n")
        length_end = raw.find(b"\n", magic_end + 1)
        length = int(raw[magic_end + 1:length_end])
        garbage = b"{" * length
        artifact.write_bytes(raw[:length_end + 1] + garbage
                             + raw[length_end + 1 + length:])
        _expect_error(artifact, match="unparsable header")

    def test_truncated_payload(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:-100])
        _expect_error(artifact, match="truncated")

    def test_trailing_garbage(self, artifact):
        artifact.write_bytes(artifact.read_bytes() + b"\x00" * 16)
        _expect_error(artifact, match="trailing garbage")

    def test_tampered_payload_byte(self, artifact):
        raw = bytearray(artifact.read_bytes())
        raw[-1] ^= 0xFF
        artifact.write_bytes(bytes(raw))
        _expect_error(artifact, match="checksum mismatch")

    def test_tampered_fingerprint_record(self, artifact):
        """A consistent container whose recorded fingerprint lies is still
        rejected: the reconstructed classifier re-fingerprints itself."""
        raw = artifact.read_bytes()
        magic_end = raw.find(b"\n")
        length_end = raw.find(b"\n", magic_end + 1)
        length = int(raw[magic_end + 1:length_end])
        header = json.loads(raw[length_end + 1:length_end + 1 + length])
        header["fingerprint"] = "0" * len(header["fingerprint"])
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        artifact.write_bytes(raw[:magic_end + 1]
                             + f"{len(header_bytes)}\n".encode("ascii")
                             + header_bytes
                             + raw[length_end + 1 + length:])
        _expect_error(artifact, match="internally inconsistent")

    def test_missing_header_fields(self, artifact):
        raw = artifact.read_bytes()
        magic_end = raw.find(b"\n")
        length_end = raw.find(b"\n", magic_end + 1)
        length = int(raw[magic_end + 1:length_end])
        header = json.loads(raw[length_end + 1:length_end + 1 + length])
        del header["trees"]
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        artifact.write_bytes(raw[:magic_end + 1]
                             + f"{len(header_bytes)}\n".encode("ascii")
                             + header_bytes
                             + raw[length_end + 1 + length:])
        _expect_error(artifact, match="missing required fields")
