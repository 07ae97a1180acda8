"""Tests for the report renderer and the ``python -m repro.report`` CLI."""

import dataclasses
import json

import pytest

from repro.cli.report import main
from repro.experiments import registry
from repro.experiments.profiles import PROFILES
from repro.experiments.registry import Experiment, experiment_fingerprint
from repro.experiments.render import render_markdown, render_to_file
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ArtifactError, ArtifactStore

SMOKE = PROFILES["smoke"]


def _experiments():
    return [
        Experiment(name="alpha", title="Alpha Result", kind="table",
                   description="The alpha experiment.",
                   compute=lambda context: {"value": 41,
                                            "metrics": {"score": 0.5}},
                   render=lambda payload: f"value={payload['value']}",
                   paper_values={"score": 0.47}),
        Experiment(name="beta", title="Beta Result", kind="figure",
                   description="The beta experiment.",
                   compute=lambda context: {"series": [1, 2, 3]},
                   render=lambda payload: f"series={payload['series']}"),
    ]


@pytest.fixture
def populated(tmp_path):
    experiments = _experiments()
    store = ArtifactStore(tmp_path, "smoke")
    ExperimentRunner(SMOKE, store, experiments=experiments).run()
    return store, experiments


class TestRenderer:
    def test_document_structure(self, populated):
        store, experiments = populated
        text = render_markdown(store, SMOKE, experiments=experiments)
        assert text.startswith("# Reproduction results")
        assert "## Contents" in text
        assert "## Alpha Result" in text and "value=41" in text
        assert "## Beta Result" in text and "series=[1, 2, 3]" in text
        # The delta table compares against the paper's published number.
        assert "Comparison with the paper" in text
        assert "| score | 0.47 | 0.5 | +0.03 |" in text

    def test_rendering_is_deterministic(self, populated):
        store, experiments = populated
        first = render_markdown(store, SMOKE, experiments=experiments)
        second = render_markdown(store, SMOKE, experiments=experiments)
        assert first == second

    def test_selection_limits_sections(self, populated):
        store, experiments = populated
        text = render_markdown(store, SMOKE, names=["beta"],
                               experiments=experiments)
        assert "Beta Result" in text
        assert "Alpha Result" not in text

    def test_missing_artifact_fails_loudly(self, tmp_path):
        store = ArtifactStore(tmp_path, "smoke")
        with pytest.raises(ArtifactError, match="no artifact"):
            render_markdown(store, SMOKE, experiments=_experiments())

    def test_stale_artifact_fails_loudly(self, populated):
        store, experiments = populated
        reseeded = dataclasses.replace(SMOKE, census_seed=777)
        with pytest.raises(ArtifactError, match="stale"):
            render_markdown(store, reseeded, experiments=experiments)

    def test_unknown_name_rejected(self, populated):
        store, experiments = populated
        with pytest.raises(ValueError, match="gamma"):
            render_markdown(store, SMOKE, names=["gamma"],
                            experiments=experiments)

    def test_render_to_file_writes_document(self, populated, tmp_path):
        store, experiments = populated
        output = tmp_path / "out" / "RESULTS.md"
        written = render_to_file(store, SMOKE, output, experiments=experiments)
        assert written == output
        assert output.read_text().startswith("# Reproduction results")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "fig3" in out

    def test_run_render_status_cycle(self, tmp_path, capsys):
        artifacts = str(tmp_path / "artifacts")
        output = str(tmp_path / "RESULTS.md")
        summary = str(tmp_path / "run.json")
        assert main(["run", "--only", "table1,fig8",
                     "--artifacts", artifacts, "--json", summary]) == 0
        first = json.loads((tmp_path / "run.json").read_text())
        assert {result["status"] for result in first["results"]} == {"ran"}

        # Second run: 100% cache hits.
        assert main(["run", "--only", "table1,fig8",
                     "--artifacts", artifacts, "--json", summary]) == 0
        second = json.loads((tmp_path / "run.json").read_text())
        assert {result["status"] for result in second["results"]} == {"cached"}

        assert main(["render", "--only", "table1,fig8",
                     "--artifacts", artifacts, "--output", output]) == 0
        text = (tmp_path / "RESULTS.md").read_text()
        assert "Table I" in text and "Figure 8" in text

        capsys.readouterr()
        assert main(["status", "--only", "table1,fig8",
                     "--artifacts", artifacts]) == 0
        out = capsys.readouterr().out
        assert "current" in out

    def test_status_json(self, tmp_path, capsys):
        artifacts = str(tmp_path / "artifacts")
        main(["run", "--only", "table1", "--artifacts", artifacts])
        capsys.readouterr()
        assert main(["status", "--only", "table1", "--artifacts", artifacts,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiments"][0]["state"] == "current"

    def test_render_without_artifacts_is_an_error(self, tmp_path, capsys):
        assert main(["render", "--only", "table1",
                     "--artifacts", str(tmp_path / "empty"),
                     "--output", str(tmp_path / "out.md")]) == 2
        assert "no artifact" in capsys.readouterr().err

    def test_unknown_experiment_is_an_error(self, tmp_path, capsys):
        assert main(["run", "--only", "fig99",
                     "--artifacts", str(tmp_path / "a")]) == 2
        assert "fig99" in capsys.readouterr().err


@pytest.fixture
def failing_table1(monkeypatch):
    """Give ``table1`` one check that no payload passes."""
    monkeypatch.setitem(registry._REGISTRY, "table1", dataclasses.replace(
        registry.get_experiment("table1"),
        checks={"an impossible shape": lambda payload: False}))


class TestShapeCheckCli:
    def test_profile_independent_experiments_pass_their_checks(
            self, tmp_path, capsys):
        """Fig. 3's RENO ≈ CTCP-a and the special-case verdicts of
        Figs. 13-18 need no training set, so tier-1 holds them too."""
        assert main(["run", "--profile", "small",
                     "--only", "table1,fig3,fig8,fig13_18",
                     "--artifacts", str(tmp_path)]) == 0
        assert "paper-shape checks: 10 of 10 passed" in capsys.readouterr().out

    def test_failed_check_exits_1_and_is_named(self, tmp_path, capsys,
                                               failing_table1):
        arguments = ["run", "--profile", "small", "--only", "table1",
                     "--artifacts", str(tmp_path),
                     "--json", str(tmp_path / "run.json")]
        assert main(arguments) == 1
        assert "FAILED CHECK table1: an impossible shape" in \
            capsys.readouterr().out
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["results"][0]["failed_checks"] == ["an impossible shape"]
        # A cached re-run fails the same way.
        assert main(arguments) == 1

    def test_smoke_run_evaluates_no_check(self, tmp_path, capsys,
                                          failing_table1):
        assert main(["run", "--only", "table1",
                     "--artifacts", str(tmp_path)]) == 0
        assert "not evaluated" in capsys.readouterr().out


class TestFingerprintStability:
    def test_cli_and_library_agree_on_fingerprints(self, tmp_path):
        """A run through the CLI must be a cache hit for the library runner."""
        artifacts = tmp_path / "artifacts"
        assert main(["run", "--only", "table1",
                     "--artifacts", str(artifacts)]) == 0
        store = ArtifactStore(artifacts / "smoke", "smoke")
        runner = ExperimentRunner(SMOKE, store)
        results = runner.run(["table1"])
        assert results[0].status == "cached"
        from repro.experiments.registry import get_experiment
        fingerprint = experiment_fingerprint(get_experiment("table1"), SMOKE)
        assert store.is_current("table1", fingerprint)
