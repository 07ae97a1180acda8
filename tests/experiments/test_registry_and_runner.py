"""Tests for the experiment registry, fingerprints and the cached runner."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import registry
from repro.experiments.profiles import PROFILES, ScaleProfile, profile_by_name
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    experiment_fingerprint,
    experiment_names,
    get_experiment,
)
from repro.experiments.runner import CHECKED_PROFILE, ExperimentRunner
from repro.experiments.store import ArtifactStore

SMOKE = PROFILES["smoke"]
CHECKED = PROFILES[CHECKED_PROFILE]


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        names = experiment_names()
        for expected in ("table1", "fig3", "fig4_10_11", "fig6_7", "fig8",
                         "table2", "fig12", "table3", "ablation", "table4",
                         "sec7", "fig13_18"):
            assert expected in names

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="table4"):
            get_experiment("fig99")

    def test_entries_are_well_formed(self):
        for experiment in all_experiments():
            assert experiment.kind in ("figure", "table", "section")
            assert experiment.title
            assert experiment.description
            assert callable(experiment.compute)
            assert callable(experiment.render)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Experiment(name="x", title="x", kind="movie", description="x",
                       compute=lambda context: {}, render=lambda payload: "")

    def test_unknown_shared_resource_rejected(self):
        with pytest.raises(ValueError, match="shared resources"):
            Experiment(name="x", title="x", kind="table", description="x",
                       compute=lambda context: {}, render=lambda payload: "",
                       shared_resources=("flux_capacitor",))


class TestProfiles:
    def test_profile_lookup(self):
        assert profile_by_name("smoke") is SMOKE
        with pytest.raises(ValueError, match="smoke"):
            profile_by_name("gigantic")

    def test_profiles_scale_monotonically(self):
        smoke, small, paper = (PROFILES[name] for name in
                               ("smoke", "small", "paper"))
        assert smoke.census_size < small.census_size < paper.census_size
        assert (smoke.training_conditions_per_pair
                < small.training_conditions_per_pair
                < paper.training_conditions_per_pair)

    def test_small_profile_keeps_the_historic_benchmark_values(self):
        # The paper-shape checks' bounds were set at exactly these sizes and
        # seeds; changing them moves every checked payload.
        small = PROFILES["small"]
        assert (small.training_conditions_per_pair, small.census_size,
                small.condition_database_size, small.forest_trees,
                small.cross_validation_folds) == (6, 250, 1000, 60, 5)
        assert (small.condition_seed, small.training_seed, small.forest_seed,
                small.population_seed, small.census_seed) == (2010, 7, 3, 2011, 99)


# -------------------------------------------------------------- fingerprints
class TestFingerprint:
    def test_stable_within_configuration(self):
        experiment = get_experiment("table1")
        assert experiment_fingerprint(experiment, SMOKE) == \
            experiment_fingerprint(experiment, SMOKE)

    def test_profile_changes_fingerprint(self):
        experiment = get_experiment("table1")
        assert experiment_fingerprint(experiment, SMOKE) != \
            experiment_fingerprint(experiment, PROFILES["small"])

    def test_seed_changes_fingerprint(self):
        experiment = get_experiment("table1")
        reseeded = dataclasses.replace(SMOKE, census_seed=SMOKE.census_seed + 1)
        assert experiment_fingerprint(experiment, SMOKE) != \
            experiment_fingerprint(experiment, reseeded)

    def test_config_changes_fingerprint(self):
        experiment = get_experiment("fig8")
        tweaked = dataclasses.replace(experiment, name="fig8b",
                                      config={"w_timeout": 128})
        assert experiment_fingerprint(experiment, SMOKE) != \
            experiment_fingerprint(tweaked, SMOKE)

    def test_numpy_version_changes_fingerprint(self, monkeypatch):
        experiment = get_experiment("table1")
        current = experiment_fingerprint(experiment, SMOKE)
        monkeypatch.setattr(np, "__version__", "2.4.7")
        assert experiment_fingerprint(experiment, SMOKE) != current

    def test_experiments_fingerprint_differently(self):
        fingerprints = {experiment_fingerprint(experiment, SMOKE)
                        for experiment in all_experiments()}
        assert len(fingerprints) == len(all_experiments())

    def test_one_byte_in_any_module_changes_every_fingerprint(
            self, tmp_path, monkeypatch):
        """The code fingerprint covers the whole package, not only the
        experiments, and its data files as well as its modules: a warm
        cache must not pass a broken algorithm or an edited trace."""
        copy = tmp_path / "repro"
        shutil.copytree(registry.SOURCE_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(registry, "SOURCE_ROOT", copy)

        def fingerprints():
            return {experiment.name: experiment_fingerprint(experiment, SMOKE)
                    for experiment in all_experiments()}

        before = fingerprints()
        # Bytecode caches are not source: they leave every fingerprint alone.
        (copy / "tcp" / "__pycache__").mkdir()
        (copy / "tcp" / "__pycache__" / "stray.py").write_text("x = 1\n")
        (copy / "tcp" / "__pycache__" / "reno.cpython-311.pyc").write_bytes(
            b"\0")
        assert fingerprints() == before
        reno = copy / "tcp" / "algorithms" / "reno.py"
        source = bytearray(reno.read_bytes())
        source[-2] ^= 1
        reno.write_bytes(bytes(source))
        after = fingerprints()
        assert all(after[name] != before[name] for name in before)
        trace = copy / "scenarios" / "traces" / "cellular.jsonl"
        data = bytearray(trace.read_bytes())
        data[-2] ^= 1
        trace.write_bytes(bytes(data))
        edited = fingerprints()
        assert all(edited[name] != after[name] for name in after)

    def test_status_hashes_the_sources_once(self, tmp_path, monkeypatch):
        """``status`` over all 14 experiments computes one code digest: each
        file of the package is read once, not once per experiment."""
        reads = Counter()
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            if registry.SOURCE_ROOT in path.parents:
                reads[path] += 1
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        rows = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke")).status()
        assert len(rows) == len(all_experiments()) == 14
        files = [path for path in registry.SOURCE_ROOT.rglob("*")
                 if path.is_file() and "__pycache__" not in path.parts]
        assert any(path.suffix == ".jsonl" for path in files)
        assert set(reads) == set(files)
        assert set(reads.values()) == {1}

    def test_an_edit_between_two_calls_is_seen(self, tmp_path, monkeypatch):
        """The digest is not cached across calls: a long-lived process sees
        a source edit made after its first ``status``."""
        copy = tmp_path / "repro"
        shutil.copytree(registry.SOURCE_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(registry, "SOURCE_ROOT", copy)
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path / "a", "smoke"),
                                  experiments=_fake_experiments({"a": 0, "b": 0}))
        runner.run()
        assert [row["state"] for row in runner.status()] == ["current", "current"]
        reno = copy / "tcp" / "algorithms" / "reno.py"
        reno.write_bytes(reno.read_bytes() + b"\n")
        assert [row["state"] for row in runner.status()] == ["stale", "stale"]

    def test_fingerprints_survive_a_fresh_interpreter(self):
        """A re-run of ``repro.report`` is a 100 % cache hit only if every
        fingerprint is equal in a new process, whatever its hash seed."""
        script = textwrap.dedent("""
            import json
            from repro.experiments.profiles import PROFILES
            from repro.experiments.registry import (all_experiments,
                                                    experiment_fingerprint)
            print(json.dumps({experiment.name: experiment_fingerprint(
                experiment, PROFILES["smoke"])
                for experiment in all_experiments()}))
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONHASHSEED="random",
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert json.loads(result.stdout) == {
            experiment.name: experiment_fingerprint(experiment, SMOKE)
            for experiment in all_experiments()}


# -------------------------------------------------------------------- runner
def _fake_experiments(counter):
    """Two cheap fake experiments that count their compute invocations."""

    def compute_a(context):
        counter["a"] += 1
        return {"value": 1, "metrics": {"m": 1.0}}

    def compute_b(context):
        counter["b"] += 1
        return {"value": 2, "metrics": {"m": 2.0}}

    return [
        Experiment(name="fake_a", title="Fake A", kind="table",
                   description="d", compute=compute_a,
                   render=lambda payload: str(payload["value"])),
        Experiment(name="fake_b", title="Fake B", kind="table",
                   description="d", compute=compute_b,
                   render=lambda payload: str(payload["value"])),
    ]


class TestRunnerCaching:
    def test_second_run_is_a_full_cache_hit(self, tmp_path):
        counter = {"a": 0, "b": 0}
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke"),
                                  experiments=_fake_experiments(counter))
        first = runner.run()
        assert [result.status for result in first] == ["ran", "ran"]
        second = runner.run()
        assert [result.status for result in second] == ["cached", "cached"]
        assert counter == {"a": 1, "b": 1}

    def test_force_recomputes(self, tmp_path):
        counter = {"a": 0, "b": 0}
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke"),
                                  experiments=_fake_experiments(counter))
        runner.run()
        results = runner.run(force=True)
        assert [result.status for result in results] == ["ran", "ran"]
        assert counter == {"a": 2, "b": 2}

    def test_selection_runs_only_named_experiments(self, tmp_path):
        counter = {"a": 0, "b": 0}
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke"),
                                  experiments=_fake_experiments(counter))
        results = runner.run(["fake_b"])
        assert [result.name for result in results] == ["fake_b"]
        assert counter == {"a": 0, "b": 1}

    def test_unknown_selection_rejected(self, tmp_path):
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke"),
                                  experiments=_fake_experiments({"a": 0, "b": 0}))
        with pytest.raises(ValueError, match="fake_zzz"):
            runner.run(["fake_zzz"])

    def test_profile_change_invalidates_cache(self, tmp_path):
        counter = {"a": 0, "b": 0}
        experiments = _fake_experiments(counter)
        store = ArtifactStore(tmp_path, "smoke")
        ExperimentRunner(SMOKE, store, experiments=experiments).run()
        reseeded = dataclasses.replace(SMOKE, census_seed=12345)
        results = ExperimentRunner(reseeded, store,
                                   experiments=experiments).run()
        assert [result.status for result in results] == ["ran", "ran"]
        assert counter == {"a": 2, "b": 2}

    def test_status_reports_missing_current_and_stale(self, tmp_path):
        counter = {"a": 0, "b": 0}
        experiments = _fake_experiments(counter)
        store = ArtifactStore(tmp_path, "smoke")
        runner = ExperimentRunner(SMOKE, store, experiments=experiments)
        assert [row["state"] for row in runner.status()] == ["missing", "missing"]
        runner.run()
        assert [row["state"] for row in runner.status()] == ["current", "current"]
        reseeded = ExperimentRunner(dataclasses.replace(SMOKE, census_seed=1),
                                    store, experiments=experiments)
        assert [row["state"] for row in reseeded.status()] == ["stale", "stale"]


class TestShapeChecks:
    """The runner evaluates each experiment's checks at ``small`` only."""

    @staticmethod
    def _scored(checks):
        return [Experiment(name="scored", title="Scored", kind="table",
                           description="d",
                           compute=lambda context: {"metrics": {"score": 0.5}},
                           render=lambda payload: "", checks=checks)]

    def test_failing_check_is_reported_fresh_and_cached(self, tmp_path):
        experiments = self._scored({
            "score > 0.9": lambda payload: payload["metrics"]["score"] > 0.9,
            "score < 0.9": lambda payload: payload["metrics"]["score"] < 0.9})
        runner = ExperimentRunner(CHECKED,
                                  ArtifactStore(tmp_path, CHECKED_PROFILE),
                                  experiments=experiments)
        fresh, = runner.run()
        cached, = runner.run()
        assert (fresh.status, cached.status) == ("ran", "cached")
        assert fresh.failed_checks == cached.failed_checks == ("score > 0.9",)

    def test_no_check_is_evaluated_at_smoke(self, tmp_path):
        seen = []
        experiments = self._scored(
            {"never true": lambda payload: seen.append(payload) or False})
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke"),
                                  experiments=experiments)
        assert [result.failed_checks for result in runner.run()] == [()]
        assert [result.failed_checks for result in runner.run()] == [()]
        assert seen == []


class TestRunnerOnRealExperiments:
    """End-to-end over the two cheapest real registry entries."""

    def test_table1_and_fig8_run_and_cache(self, tmp_path):
        runner = ExperimentRunner(SMOKE, ArtifactStore(tmp_path, "smoke"))
        results = runner.run(["table1", "fig8"])
        assert [result.status for result in results] == ["ran", "ran"]
        payload = runner.store.load("table1")
        assert len(payload["rows"]) == 16
        fig8 = runner.store.load("fig8")
        assert fig8["metrics"]["post_timeout_rounds"] == 18
        again = runner.run(["table1", "fig8"])
        assert [result.status for result in again] == ["cached", "cached"]

    def test_payload_is_deterministic_across_runs(self, tmp_path):
        first = ExperimentRunner(SMOKE, ArtifactStore(tmp_path / "a", "smoke"))
        second = ExperimentRunner(SMOKE, ArtifactStore(tmp_path / "b", "smoke"))
        first.run(["fig8"])
        second.run(["fig8"])
        assert first.store.load("fig8") == second.store.load("fig8")
        assert (first.store.artifact_path("fig8").read_text()
                == second.store.artifact_path("fig8").read_text())
