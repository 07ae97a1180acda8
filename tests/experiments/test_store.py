"""Tests for the fingerprinted JSONL artifact store."""

import json

import pytest

from repro.experiments.store import ArtifactError, ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "smoke", "smoke")


PAYLOAD = {"rows": [[1, 2], [3, 4]], "metrics": {"accuracy": 0.5}}


class TestRoundTrip:
    def test_write_then_load_returns_equal_payload(self, store):
        store.write("exp", "fp1", PAYLOAD, elapsed_seconds=1.25)
        assert store.load("exp") == PAYLOAD

    def test_load_validates_fingerprint(self, store):
        store.write("exp", "fp1", PAYLOAD)
        assert store.load("exp", "fp1") == PAYLOAD
        with pytest.raises(ArtifactError, match="stale"):
            store.load("exp", "other-fingerprint")

    def test_is_current_tracks_fingerprint(self, store):
        assert not store.is_current("exp", "fp1")
        store.write("exp", "fp1", PAYLOAD)
        assert store.is_current("exp", "fp1")
        assert not store.is_current("exp", "fp2")

    def test_is_current_requires_file_on_disk(self, store):
        store.write("exp", "fp1", PAYLOAD)
        store.artifact_path("exp").unlink()
        assert not store.is_current("exp", "fp1")

    def test_truncated_artifact_is_not_current(self, store):
        # A matching manifest fingerprint must not mask a torn JSONL file —
        # otherwise `run` reports a cache hit while `render` keeps failing.
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        path.write_text(path.read_text()[:-20])
        assert not store.is_current("exp", "fp1")

    def test_overwrite_replaces_artifact(self, store):
        store.write("exp", "fp1", PAYLOAD)
        store.write("exp", "fp2", {"only": 1})
        assert store.recorded_fingerprint("exp") == "fp2"
        assert store.load("exp") == {"only": 1}

    def test_manifest_survives_reopen(self, store, tmp_path):
        store.write("exp", "fp1", PAYLOAD, elapsed_seconds=2.0)
        reopened = ArtifactStore(tmp_path / "smoke", "smoke")
        assert reopened.recorded_fingerprint("exp") == "fp1"
        status = reopened.status()
        assert status["experiments"]["exp"]["entries"] == 2
        assert status["experiments"]["exp"]["elapsed_seconds"] == 2.0

    def test_float_payloads_round_trip_exactly(self, store):
        payload = {"values": [0.1 + 0.2, 1e-17, 123456.789]}
        store.write("exp", "fp", payload)
        assert store.load("exp") == payload


class TestCorruption:
    def test_missing_artifact(self, store):
        with pytest.raises(ArtifactError, match="no artifact"):
            store.load("never-ran")

    def test_truncated_line(self, store):
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        path.write_text(path.read_text()[:-3])
        with pytest.raises(ArtifactError, match="truncated"):
            store.load("exp")

    def test_invalid_json_line(self, store):
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            store.load("exp")

    def test_missing_complete_marker(self, store):
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ArtifactError, match="never finished"):
            store.load("exp")

    def test_entry_count_mismatch(self, store):
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        lines = path.read_text().splitlines()
        del lines[1]  # drop one entry, keep the marker
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="lost lines"):
            store.load("exp")

    def test_duplicate_entry_key(self, store):
        store.write("exp", "fp1", {"a": 1})
        path = store.artifact_path("exp")
        lines = path.read_text().splitlines()
        lines.insert(2, lines[1])
        lines[-1] = json.dumps({"kind": "complete", "entries": 2})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="duplicate entry key"):
            store.load("exp")

    def test_unknown_record_kind(self, store):
        store.write("exp", "fp1", {"a": 1})
        path = store.artifact_path("exp")
        lines = path.read_text().splitlines()
        lines.insert(1, json.dumps({"kind": "mystery"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError, match="unknown record kind"):
            store.load("exp")

    def test_malformed_complete_marker(self, store):
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        lines = path.read_text().splitlines()
        lines[-1] = json.dumps({"kind": "complete", "entries": None})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError,
                           match="structurally invalid") as excinfo:
            store.load("exp")
        assert excinfo.value.path == path
        assert excinfo.value.hint
        assert not store.is_current("exp", "fp1")

    def test_artifact_that_is_not_utf8(self, store):
        store.write("exp", "fp1", PAYLOAD)
        path = store.artifact_path("exp")
        path.write_bytes(path.read_bytes().replace(b"accuracy", b"\xff"))
        with pytest.raises(ArtifactError, match="not UTF-8") as excinfo:
            store.load("exp")
        assert excinfo.value.path == path
        assert not store.is_current("exp", "fp1")

    def test_manifest_that_is_not_an_object(self, store):
        store.directory.mkdir(parents=True)
        store.manifest_path.write_text("[1, 2]")
        with pytest.raises(ArtifactError, match="not an object") as excinfo:
            store.manifest()
        assert excinfo.value.path == store.manifest_path
        assert excinfo.value.hint

    def test_corrupt_manifest(self, store, tmp_path):
        store.write("exp", "fp1", PAYLOAD)
        store.manifest_path.write_text("{broken")
        reopened = ArtifactStore(tmp_path / "smoke", "smoke")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            reopened.manifest()

    def test_profile_mismatch(self, store, tmp_path):
        store.write("exp", "fp1", PAYLOAD)
        other = ArtifactStore(tmp_path / "smoke", "paper")
        with pytest.raises(ArtifactError, match="profile"):
            other.manifest()

    def test_format_version_mismatch(self, store, tmp_path):
        store.write("exp", "fp1", PAYLOAD)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["format"] = 999
        store.manifest_path.write_text(json.dumps(manifest))
        reopened = ArtifactStore(tmp_path / "smoke", "smoke")
        with pytest.raises(ArtifactError, match="format version"):
            reopened.manifest()
