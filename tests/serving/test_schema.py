"""Snapshot tests pinning the one stable serving/CLI JSON schema.

The exact top-level key sets of both payloads are asserted verbatim: adding,
removing or renaming a key is an intentional schema change and must bump the
envelope version (and these snapshots) in the same commit.
"""

import json

import numpy as np
import pytest

from repro.cli.census import main as census_main
from repro.cli.serve import main as serve_main
from repro.core.census import CensusConfig, CensusRunner
from repro.serving.artifact import save_model
from repro.serving.schema import (
    CENSUS_REPORT_SCHEMA,
    CLASSIFY_SCHEMA,
    census_report_payload,
    classify_batch_payload,
    identification_payload,
)
from repro.web.population import PopulationConfig, ServerPopulation

#: The documented key set of a ``caai-census-report`` v1 payload.
REPORT_KEYS = {
    "schema", "servers", "valid_count", "valid_fraction",
    "category_percentages", "invalid_reason_shares", "status_counts",
    "retry_total", "resilience", "source", "outcomes",
}

#: The documented key set of a ``caai-classify-batch`` v1 payload.
CLASSIFY_KEYS = {"schema", "count", "source", "results"}

#: The documented key set of one classify result.
RESULT_KEYS = {"label", "raw_label", "confidence", "unsure", "w_timeout"}


@pytest.fixture(scope="module")
def report(trained_classifier):
    population = ServerPopulation(PopulationConfig(size=8, seed=55))
    population.generate()
    runner = CensusRunner(trained_classifier, CensusConfig(seed=13))
    return runner.run(population)


class TestCensusReportPayload:
    def test_top_level_key_snapshot(self, report):
        payload = census_report_payload(report)
        assert set(payload) == REPORT_KEYS
        assert payload["schema"] == {"name": "caai-census-report",
                                     "version": 1}
        assert payload["schema"] == CENSUS_REPORT_SCHEMA

    def test_values_mirror_the_report(self, report):
        payload = census_report_payload(report)
        assert payload["servers"] == len(report)
        assert payload["valid_count"] == len(report.valid_outcomes)
        assert payload["valid_fraction"] == report.valid_fraction()
        assert payload["outcomes"] == [outcome.to_json_dict()
                                       for outcome in report.outcomes]
        assert payload["resilience"] is None  # no fault accounting here
        assert payload["source"] is None

    def test_status_counts_always_present(self, report):
        # The legacy payload omitted status_counts on fault-free runs; the
        # stable schema always carries them.
        payload = census_report_payload(report)
        assert sum(payload["status_counts"].values()) == len(report)

    def test_source_is_stored_verbatim(self, report):
        source = {"artifact": "model.caai", "fingerprint": "abc"}
        assert census_report_payload(report, source=source)["source"] == source

    def test_payload_serialises_deterministically(self, report):
        payload = census_report_payload(report)
        blob = json.dumps(payload, indent=2, sort_keys=True)
        assert json.loads(blob) == payload
        assert blob == json.dumps(census_report_payload(report), indent=2,
                                  sort_keys=True)


class TestClassifyPayload:
    def test_key_snapshots(self, trained_classifier):
        vectors = np.random.default_rng(3).normal(size=(5, 7))
        identifications = trained_classifier.classify_vectors(vectors, 64)
        payload = classify_batch_payload(identifications)
        assert set(payload) == CLASSIFY_KEYS
        assert payload["schema"] == {"name": "caai-classify-batch",
                                     "version": 1}
        assert payload["schema"] == CLASSIFY_SCHEMA
        assert payload["count"] == 5
        assert all(set(result) == RESULT_KEYS
                   for result in payload["results"])

    def test_result_fields_mirror_the_identification(self, trained_classifier):
        vectors = np.random.default_rng(3).normal(size=(5, 7))
        for identification in trained_classifier.classify_vectors(vectors, 64):
            result = identification_payload(identification)
            assert result["label"] == identification.reported_label
            assert result["raw_label"] == identification.label
            assert result["confidence"] == identification.confidence
            assert result["unsure"] == identification.unsure
            assert result["w_timeout"] == identification.w_timeout


class TestCensusCliJson:
    def test_run_json_uses_the_stable_schema(self, tmp_path):
        """``python -m repro.census run --json`` emits exactly the payload
        ``census_report_payload`` builds — the CLI and the serving endpoints
        share one schema."""
        out = tmp_path / "report.json"
        code = census_main([
            "run", "--checkpoint", str(tmp_path / "ckpt"),
            "--json", str(out),
            "--servers", "6", "--shards", "2", "--seed", "9",
            "--trees", "5", "--training-conditions", "1",
            "--condition-db-size", "40",
        ])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == REPORT_KEYS
        assert payload["schema"] == CENSUS_REPORT_SCHEMA
        assert payload["servers"] == 6
        assert len(payload["outcomes"]) == 6
        # The file bytes are the canonical serialisation (sorted, indented).
        assert out.read_text(encoding="utf-8") == json.dumps(
            payload, indent=2, sort_keys=True)


class TestJsonReportsAreAtomic:
    """A crash right after ``--json`` returns cannot leave a torn report."""

    def test_census_merge_syncs_the_file_and_its_directory(
            self, tmp_path, fsync_log):
        checkpoint = str(tmp_path / "ckpt")
        assert census_main([
            "run", "--checkpoint", checkpoint,
            "--servers", "4", "--shards", "1", "--seed", "9",
            "--trees", "5", "--training-conditions", "1",
            "--condition-db-size", "40",
        ]) == 0
        fsync_log.clear()  # only the merge's own syncs
        out = tmp_path / "report.json"
        assert census_main(["merge", "--checkpoint", checkpoint,
                            "--json", str(out)]) == 0
        assert sorted(fsync_log) == [(False, out.stat().st_ino),
                                     (True, tmp_path.stat().st_ino)]

    def test_serve_syncs_the_file_and_its_directory(
            self, trained_classifier, tmp_path, fsync_log):
        artifact = tmp_path / "model.caai"
        save_model(trained_classifier, artifact)
        out = tmp_path / "report.json"
        assert serve_main([
            "--artifact", str(artifact), "--checkpoint", str(tmp_path / "ckpt"),
            "--servers", "4", "--shards", "1", "--workers", "1",
            "--condition-db-size", "40", "--json", str(out),
        ]) == 0
        assert (False, out.stat().st_ino) in fsync_log
        assert (True, tmp_path.stat().st_ino) in fsync_log
