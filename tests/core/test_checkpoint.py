"""Tests for the sharded, checkpointed census (resume parity + corruption).

The headline guarantee: a census interrupted at any point and resumed — any
shard count, serial or process backend — merges into a report bit-identical
to the uninterrupted monolithic run. The corruption tests pin down that a
damaged checkpoint fails loudly with an actionable message instead of
silently merging bad data.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import (
    CensusCheckpoint,
    CheckpointError,
    TornWriteError,
    census_fingerprint,
    classifier_fingerprint,
    shard_assignments,
    shard_of,
)
from repro.core.results import CensusReport, ServerOutcome
from repro.core.special_cases import SpecialCase
from repro.core.trace import InvalidReason
from repro.web.population import PopulationConfig, ServerPopulation

POPULATION_SIZE = 18
POPULATION_SEED = 23
CENSUS_SEED = 7


def make_population() -> ServerPopulation:
    """A fresh small population (probing mutates server state, so each run
    gets its own copy)."""
    population = ServerPopulation(
        PopulationConfig(size=POPULATION_SIZE, seed=POPULATION_SEED))
    population.generate()
    return population


@pytest.fixture(scope="module")
def monolithic_report(request) -> CensusReport:
    trained = request.getfixturevalue("trained_classifier")
    runner = CensusRunner(trained, CensusConfig(seed=CENSUS_SEED))
    return runner.run(make_population())


@pytest.fixture(scope="module")
def completed_checkpoint(request, tmp_path_factory):
    """A fully completed 3-shard checkpoint (copied per corruption test)."""
    trained = request.getfixturevalue("trained_classifier")
    directory = tmp_path_factory.mktemp("census") / "ckpt"
    runner = CensusRunner(trained, CensusConfig(seed=CENSUS_SEED))
    report = runner.run_sharded(make_population(), directory, num_shards=3)
    assert report is not None
    return directory


class TestShardAssignment:
    def test_stable_and_seed_keyed(self):
        assert shard_of("server-000001", 7, 4) == shard_of("server-000001", 7, 4)
        spread = {shard_of(f"server-{i:06d}", 7, 4) for i in range(50)}
        assert spread == {0, 1, 2, 3}
        reshuffled = [shard_of(f"server-{i:06d}", 8, 4) for i in range(50)]
        original = [shard_of(f"server-{i:06d}", 7, 4) for i in range(50)]
        assert reshuffled != original

    def test_assignments_partition_the_population(self):
        ids = [f"server-{i:06d}" for i in range(37)]
        shards = shard_assignments(ids, seed=3, num_shards=5)
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(37))
        for shard in shards:
            assert shard == sorted(shard)

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_of("server-000001", 1, 0)


class TestOutcomeSerialization:
    def test_round_trip_preserves_everything(self):
        outcome = ServerOutcome(
            server_id="server-000042", valid=True, w_timeout=256, mss=100,
            category="cubic-b", confidence=0.7349999999999999,
            special_case=SpecialCase.BOUNDED,
            true_algorithm="cubic-b", software="nginx", region="europe")
        data = json.loads(json.dumps(outcome.to_json_dict()))
        assert ServerOutcome.from_json_dict(data) == outcome

    def test_round_trip_preserves_invalid_reason(self):
        outcome = ServerOutcome(server_id="s", valid=False,
                                invalid_reason=InvalidReason.MSS_REJECTED)
        data = json.loads(json.dumps(outcome.to_json_dict()))
        assert ServerOutcome.from_json_dict(data) == outcome


class TestShardedParity:
    @pytest.mark.parametrize("num_shards", [1, 3, 5])
    def test_uninterrupted_sharded_run_matches_monolithic(
            self, trained_classifier, monolithic_report, tmp_path, num_shards):
        runner = CensusRunner(trained_classifier, CensusConfig(seed=CENSUS_SEED))
        report = runner.run_sharded(make_population(), tmp_path / "ckpt",
                                    num_shards=num_shards)
        assert report.outcomes == monolithic_report.outcomes

    @pytest.mark.parametrize("stop_after", [1, 2])
    def test_interrupt_and_resume_matches_monolithic(
            self, trained_classifier, monolithic_report, tmp_path, stop_after):
        directory = tmp_path / "ckpt"
        runner = CensusRunner(trained_classifier, CensusConfig(seed=CENSUS_SEED))
        partial = runner.run_sharded(make_population(), directory,
                                     num_shards=3, stop_after_shards=stop_after)
        assert partial is None
        status = CensusRunner.checkpoint_status(directory)
        assert len(status["completed_shards"]) == stop_after
        resumer = CensusRunner(trained_classifier, CensusConfig(seed=CENSUS_SEED))
        report = resumer.resume(make_population(), directory)
        assert report is not None
        assert report.outcomes == monolithic_report.outcomes
        # Byte-level identity of the serialised reports, not just equality.
        merged = json.dumps([o.to_json_dict() for o in report.outcomes])
        mono = json.dumps([o.to_json_dict() for o in monolithic_report.outcomes])
        assert merged == mono

    def test_resume_on_process_backend_matches_monolithic(
            self, trained_classifier, monolithic_report, tmp_path):
        directory = tmp_path / "ckpt"
        serial = CensusRunner(trained_classifier, CensusConfig(seed=CENSUS_SEED))
        assert serial.run_sharded(make_population(), directory, num_shards=2,
                                  stop_after_shards=1) is None
        parallel = CensusRunner(trained_classifier, CensusConfig(
            seed=CENSUS_SEED, backend="process", max_workers=2))
        report = parallel.resume(make_population(), directory)
        assert report is not None
        assert report.outcomes == monolithic_report.outcomes

    def test_merge_without_classifier(self, completed_checkpoint,
                                      monolithic_report):
        report = CensusRunner.merge_checkpoint(completed_checkpoint)
        assert report.outcomes == monolithic_report.outcomes


class TestCheckpointLifecycle:
    def test_run_sharded_refuses_existing_checkpoint(
            self, trained_classifier, completed_checkpoint):
        runner = CensusRunner(trained_classifier, CensusConfig(seed=CENSUS_SEED))
        with pytest.raises(CheckpointError, match="already exists"):
            runner.run_sharded(make_population(), completed_checkpoint,
                               num_shards=3)

    def test_status_reports_progress(self, completed_checkpoint):
        status = CensusRunner.checkpoint_status(completed_checkpoint)
        assert status["complete"] is True
        assert status["completed_shards"] == [0, 1, 2]
        assert status["pending_shards"] == []
        assert status["population_size"] == POPULATION_SIZE

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            CensusCheckpoint.open(tmp_path / "nowhere")

    def test_fingerprint_excludes_execution_knobs(self, trained_classifier):
        fingerprint = classifier_fingerprint(trained_classifier)
        serial = census_fingerprint(CensusConfig(seed=1, backend="serial"),
                                    make_population(), fingerprint)
        process = census_fingerprint(
            CensusConfig(seed=1, backend="process", max_workers=4),
            make_population(), fingerprint)
        assert serial == process
        other_seed = census_fingerprint(CensusConfig(seed=2),
                                        make_population(), fingerprint)
        assert other_seed != serial


class TestErrorContext:
    """CheckpointError carries structured path + hint, not just a message."""

    def test_defaults_are_none(self):
        error = CheckpointError("something broke")
        assert error.path is None
        assert error.hint is None

    def test_path_is_coerced_and_hint_kept(self, tmp_path):
        error = CheckpointError("bad shard", path=str(tmp_path / "s.jsonl"),
                                hint="delete the file")
        assert error.path == tmp_path / "s.jsonl"
        assert error.hint == "delete the file"

    def test_torn_write_error_is_a_checkpoint_error(self):
        assert issubclass(TornWriteError, CheckpointError)

    def test_open_missing_manifest_carries_context(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            CensusCheckpoint.open(tmp_path / "nowhere")
        assert excinfo.value.path is not None
        assert excinfo.value.path.name == "manifest.json"
        assert "sharded census" in excinfo.value.hint

    def test_duplicate_completion_carries_context(self, completed_checkpoint,
                                                  tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        checkpoint = CensusCheckpoint.open(directory)
        with pytest.raises(CheckpointError) as excinfo:
            checkpoint.write_shard(1, [])
        assert excinfo.value.path.name == "shard-0001.jsonl"
        assert excinfo.value.hint


class TestTornWrites:
    def _fresh_checkpoint(self, tmp_path, num_shards=2):
        return CensusCheckpoint.create(
            tmp_path / "ckpt", seed=1, num_shards=num_shards,
            fingerprint="fp", population_size=4)

    def _outcomes(self, count):
        return [(i, ServerOutcome(server_id=f"server-{i:06d}", valid=False,
                                  invalid_reason=InvalidReason.CONNECTION_FAILED))
                for i in range(count)]

    def test_torn_write_leaves_shard_pending_and_file_truncated(self, tmp_path):
        checkpoint = self._fresh_checkpoint(tmp_path)
        with pytest.raises(TornWriteError) as excinfo:
            checkpoint.write_shard(0, self._outcomes(4), torn_after=2)
        assert excinfo.value.path == checkpoint.shard_path(0)
        assert "resume" in excinfo.value.hint
        # The manifest never flipped: the shard is still pending.
        assert 0 in checkpoint.pending_shards()
        # The file holds 2 whole records plus a torn half-line, no marker.
        text = checkpoint.shard_path(0).read_text()
        assert not text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 3
        for line in lines[:2]:
            assert json.loads(line)["kind"] == "outcome"
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[2])

    def test_rewrite_after_tear_is_self_healing(self, tmp_path):
        checkpoint = self._fresh_checkpoint(tmp_path)
        outcomes = self._outcomes(3)
        with pytest.raises(TornWriteError):
            checkpoint.write_shard(0, outcomes, torn_after=1)
        # Truncating rewrite: the healthy write fully replaces the torn file.
        checkpoint.write_shard(0, outcomes)
        assert checkpoint.shard_status(0) == "complete"
        lines = checkpoint.shard_path(0).read_text().splitlines()
        assert json.loads(lines[-1]) == {"kind": "shard-complete", "shard": 0,
                                         "count": 3}
        assert len(lines) == 4

    def test_torn_at_zero_writes_no_full_record(self, tmp_path):
        checkpoint = self._fresh_checkpoint(tmp_path)
        with pytest.raises(TornWriteError):
            checkpoint.write_shard(1, self._outcomes(2), torn_after=0)
        text = checkpoint.shard_path(1).read_text()
        assert text  # the torn half-line is there...
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)  # ...and is not parseable


def _copy_checkpoint(source, tmp_path):
    destination = tmp_path / "ckpt"
    shutil.copytree(source, destination)
    return destination


class TestCorruptionPaths:
    def test_truncated_jsonl_line_fails_loudly(self, completed_checkpoint,
                                               tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        shard = directory / "shard-0001.jsonl"
        raw = shard.read_bytes()
        shard.write_bytes(raw[:-25])  # chop mid-record, drop trailing newline
        with pytest.raises(CheckpointError, match="truncated line"):
            CensusRunner.merge_checkpoint(directory)

    def test_unparsable_jsonl_line_fails_loudly(self, completed_checkpoint,
                                                tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        shard = directory / "shard-0000.jsonl"
        lines = shard.read_text().splitlines()
        lines[0] = lines[0][:10]  # still newline-terminated, no longer JSON
        shard.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            CensusRunner.merge_checkpoint(directory)

    def test_fingerprint_mismatch_refuses_resume(self, trained_classifier,
                                                 completed_checkpoint,
                                                 tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        different = CensusRunner(trained_classifier,
                                 CensusConfig(seed=CENSUS_SEED + 1))
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            different.resume(make_population(), directory)

    def test_duplicate_shard_completion_rejected(self, completed_checkpoint,
                                                 tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        checkpoint = CensusCheckpoint.open(directory)
        with pytest.raises(CheckpointError, match="duplicate completion"):
            checkpoint.write_shard(1, [])

    def test_double_completion_marker_in_file_rejected(self,
                                                       completed_checkpoint,
                                                       tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        shard = directory / "shard-0002.jsonl"
        lines = shard.read_text().splitlines()
        shard.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(CheckpointError, match="two shard-complete"):
            CensusRunner.merge_checkpoint(directory)

    def test_record_missing_fields_rejected(self, completed_checkpoint,
                                            tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        shard = directory / "shard-0000.jsonl"
        lines = shard.read_text().splitlines()
        lines[0] = json.dumps({"kind": "outcome"})  # valid JSON, no payload
        shard.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="structurally invalid"):
            CensusRunner.merge_checkpoint(directory)

    def test_missing_completion_marker_rejected(self, completed_checkpoint,
                                                tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        shard = directory / "shard-0000.jsonl"
        lines = shard.read_text().splitlines()
        shard.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CheckpointError, match="no shard-complete marker"):
            CensusRunner.merge_checkpoint(directory)

    def test_manifest_that_is_not_an_object_rejected(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "manifest.json").write_text("[]")
        with pytest.raises(CheckpointError, match="not an object") as excinfo:
            CensusCheckpoint.open(directory)
        assert excinfo.value.path == directory / "manifest.json"
        assert excinfo.value.hint

    def test_missing_shard_file_rejected(self, completed_checkpoint, tmp_path):
        directory = _copy_checkpoint(completed_checkpoint, tmp_path)
        (directory / "shard-0001.jsonl").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            CensusRunner.merge_checkpoint(directory)

    def test_merge_with_pending_shards_rejected(self, trained_classifier,
                                                tmp_path):
        directory = tmp_path / "ckpt"
        runner = CensusRunner(trained_classifier, CensusConfig(seed=CENSUS_SEED))
        runner.run_sharded(make_population(), directory, num_shards=3,
                           stop_after_shards=1)
        with pytest.raises(CheckpointError, match="still.*pending"):
            CensusRunner.merge_checkpoint(directory)
