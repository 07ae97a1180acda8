"""Snapshot tests pinning the one stable census-report JSON schema.

The exact top-level key set of the payload is asserted verbatim: adding,
removing or renaming a key is an intentional schema change and must bump the
envelope version (and these snapshots) in the same commit.
"""

import json

import pytest

from repro.cli.census import main as census_main
from repro.cli.report import main as report_main
from repro.core.census import CensusConfig, CensusRunner
from repro.serving.artifact import save_model
from repro.serving.schema import CENSUS_REPORT_SCHEMA, census_report_payload
from repro.web.population import PopulationConfig, ServerPopulation

#: The documented key set of a ``caai-census-report`` v1 payload.
REPORT_KEYS = {
    "schema", "servers", "valid_count", "valid_fraction",
    "category_percentages", "invalid_reason_shares", "status_counts",
    "retry_total", "resilience", "source", "outcomes",
}


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

    def test_census_run_artifact_syncs_the_file_and_its_directory(
            self, trained_classifier, tmp_path, fsync_log):
        artifact = tmp_path / "model.caai"
        save_model(trained_classifier, artifact)
        out = tmp_path / "report.json"
        assert census_main([
            "run", "--artifact", str(artifact),
            "--checkpoint", str(tmp_path / "ckpt"),
            "--servers", "4", "--shards", "1", "--workers", "1",
            "--condition-db-size", "40", "--json", str(out),
        ]) == 0
        assert (False, out.stat().st_ino) in fsync_log
        assert (True, tmp_path.stat().st_ino) in fsync_log


class TestReproductionReportsAreAtomic:
    """``python -m repro.report`` replaces its outputs the same way."""

    def test_run_json_syncs_the_file_and_its_directory(self, tmp_path,
                                                        fsync_log):
        out = tmp_path / "run.json"
        assert report_main(["run", "--only", "table1",
                            "--artifacts", str(tmp_path / "artifacts"),
                            "--json", str(out)]) == 0
        assert (False, out.stat().st_ino) in fsync_log
        assert (True, tmp_path.stat().st_ino) in fsync_log

    def test_render_syncs_the_file_and_its_directory(self, tmp_path,
                                                      fsync_log):
        artifacts = str(tmp_path / "artifacts")
        assert report_main(["run", "--only", "table1",
                            "--artifacts", artifacts]) == 0
        fsync_log.clear()  # only the render's own syncs
        out = tmp_path / "RESULTS.md"
        assert report_main(["render", "--only", "table1",
                            "--artifacts", artifacts,
                            "--output", str(out)]) == 0
        assert sorted(fsync_log) == [(False, out.stat().st_ino),
                                     (True, tmp_path.stat().st_ino)]
