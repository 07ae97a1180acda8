"""The census command line, end to end in real processes.

``python -m repro.census`` is killed after its first shard, inspected,
resumed on two worker processes in a separate process, and merged in a
third; the merged report must equal an uninterrupted in-process census
built from the same settings. A census served from a model artifact
resumes by reloading it, and a ``worker_death`` spec in its fault plan
kills a worker without stopping the run. A bad execution argument, a fault
plan naming an unknown kind, a reused checkpoint directory or an output
path in a missing directory is rejected before any training, so it leaves
no checkpoint behind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.census import main as census_main
from repro.cli.settings import build_population, train_classifier
from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import CensusCheckpoint, classifier_fingerprint
from repro.serving.artifact import save_model

SRC = Path(__file__).resolve().parents[1] / "src"

SETTINGS = {
    "servers": 24,
    "shards": 3,
    "seed": 17,
    "population_seed": 424,
    "conditions": "paper",
    "condition_db_size": 200,
    "condition_seed": 9,
    "training_conditions": 2,
    "training_seed": 31,
    "trees": 20,
    "forest_seed": 5,
}


def census_cli(*arguments: str) -> int:
    """Run ``python -m repro.census`` in a new process; its exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "repro.census", *arguments],
                          env=env, stdout=subprocess.DEVNULL,
                          timeout=300).returncode


def test_killed_census_resumes_on_processes_to_the_monolithic_report(tmp_path):
    checkpoint = str(tmp_path / "ckpt")
    report = tmp_path / "report.json"
    options = [f"--{key.replace('_', '-')}={value}"
               for key, value in SETTINGS.items()]
    # Exit 1: stopped with shards pending, as a kill between shards leaves it.
    assert census_cli("run", "--checkpoint", checkpoint, *options,
                      "--stop-after-shards", "1") == 1
    # The manifest stores exactly the settings that rebuild the census.
    assert CensusCheckpoint.open(checkpoint).settings == SETTINGS
    assert census_cli("status", "--checkpoint", checkpoint) == 0
    assert census_cli("resume", "--checkpoint", checkpoint,
                      "--workers", "2") == 0
    assert census_cli("merge", "--checkpoint", checkpoint,
                      "--json", str(report)) == 0

    reference = CensusRunner(
        train_classifier(SETTINGS),
        CensusConfig(seed=SETTINGS["seed"])).run(build_population(SETTINGS))
    merged = json.loads(report.read_text(encoding="utf-8"))
    assert merged["outcomes"] == [outcome.to_json_dict()
                                  for outcome in reference.outcomes]


#: A census small enough to train and run in-process in about a second.
TINY = ["--servers", "4", "--shards", "2", "--seed", "9", "--trees", "5",
        "--training-conditions", "1", "--condition-db-size", "40"]

#: Fault plans the CLI refuses: ``link_outage`` is not a fault kind, and a
#: ``worker_death`` that never clears would kill every holder of shard 0.
BAD_PLANS = {
    "link-outage-plan.json": {"specs": [{"kind": "link_outage"}]},
    "permanent-worker-death-plan.json": {"specs": [
        {"kind": "worker_death", "scope": "0", "persist_attempts": None}]},
}


@pytest.mark.parametrize("argument", [
    ["--workers", "0"],
    ["--max-probe-attempts", "0"],
    ["--probe-deadline", "-1"],
    ["--stop-after-shards", "0"],
    ["--lease-timeout", "0"],
    ["--json", "missing-dir/report.json"],
    ["--results", "missing-dir/results.jsonl"],
    ["--fault-plan", "link-outage-plan.json"],
    ["--fault-plan", "permanent-worker-death-plan.json"],
], ids=["workers", "max-probe-attempts", "probe-deadline", "stop-after-shards",
        "lease-timeout", "json-in-missing-dir", "results-in-missing-dir",
        "link-outage-fault-plan", "permanent-worker-death-fault-plan"])
def test_run_rejects_a_bad_execution_argument_before_training(
        tmp_path, capsys, monkeypatch, argument):
    monkeypatch.chdir(tmp_path)
    for name, plan in BAD_PLANS.items():
        (tmp_path / name).write_text(json.dumps(plan))
    checkpoint = tmp_path / "ckpt"
    assert census_main(["run", "--checkpoint", str(checkpoint),
                        *TINY, *argument]) == 2
    assert "training classifier" not in capsys.readouterr().out
    assert not (checkpoint / "manifest.json").exists()


def test_resume_rejects_a_bad_execution_argument_before_training(
        tmp_path, capsys):
    checkpoint = str(tmp_path / "ckpt")
    assert census_main(["run", "--checkpoint", checkpoint, *TINY,
                        "--stop-after-shards", "1"]) == 1
    manifest = (tmp_path / "ckpt" / "manifest.json").read_bytes()
    capsys.readouterr()
    for argument in (["--workers", "0"], ["--stop-after-shards", "0"],
                     ["--lease-timeout", "0"],
                     ["--json", str(tmp_path / "missing-dir" / "r.json")]):
        assert census_main(["resume", "--checkpoint", checkpoint,
                            *argument]) == 2
        assert "training classifier" not in capsys.readouterr().out
    assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == manifest


def test_run_refuses_an_existing_checkpoint_before_training(tmp_path, capsys):
    checkpoint = str(tmp_path / "ckpt")
    assert census_main(["run", "--checkpoint", checkpoint, *TINY,
                        "--stop-after-shards", "1"]) == 1
    manifest = (tmp_path / "ckpt" / "manifest.json").read_bytes()
    capsys.readouterr()
    assert census_main(["run", "--checkpoint", checkpoint, *TINY]) == 2
    captured = capsys.readouterr()
    assert "already exists" in captured.err
    assert "training classifier" not in captured.out
    assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == manifest


def test_resume_finishes_an_artifact_served_checkpoint(
        trained_classifier, tmp_path, capsys):
    artifact = tmp_path / "model.caai"
    save_model(trained_classifier, artifact)
    checkpoint = tmp_path / "ckpt"
    report = tmp_path / "report.json"
    assert census_main(["run", "--checkpoint", str(checkpoint),
                        "--artifact", str(artifact), "--servers", "6",
                        "--shards", "2", "--seed", "9",
                        "--condition-db-size", "40",
                        "--stop-after-shards", "1"]) == 1
    fingerprint = classifier_fingerprint(trained_classifier)
    settings = CensusCheckpoint.open(checkpoint).settings
    assert settings == {
        "servers": 6, "population_seed": 2011, "conditions": "paper",
        "condition_db_size": 40, "condition_seed": 2010, "seed": 9,
        "shards": 2,
        "artifact": {"path": str(artifact), "fingerprint": fingerprint}}
    assert census_main(["resume", "--checkpoint", str(checkpoint),
                        "--json", str(report)]) == 0
    assert "training classifier" not in capsys.readouterr().out
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["source"] == {"artifact": str(artifact),
                                 "fingerprint": fingerprint,
                                 "checkpoint": str(checkpoint)}
    reference = CensusRunner(trained_classifier, CensusConfig(seed=9)).run(
        build_population(settings))
    assert payload["outcomes"] == [outcome.to_json_dict()
                                   for outcome in reference.outcomes]


def test_a_worker_death_in_the_fault_plan_kills_a_lease_holder(
        trained_classifier, tmp_path, capsys):
    """``--fault-plan`` reaches the orchestrator: the one worker dies
    holding shard 0's first lease, the next worker reclaims and replays
    it, and this invocation finishes with the plan-free outcomes."""
    artifact = tmp_path / "model.caai"
    save_model(trained_classifier, artifact)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"specs": [{"kind": "worker_death", "scope": "0"}]}))
    checkpoint = tmp_path / "ckpt"
    report = tmp_path / "report.json"
    assert census_main(["run", "--checkpoint", str(checkpoint),
                        "--artifact", str(artifact), "--servers", "6",
                        "--shards", "2", "--seed", "9",
                        "--condition-db-size", "40", "--workers", "1",
                        "--fault-plan", str(plan),
                        "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "worker-0: completed shards [] (died)" in out
    assert "worker-1: completed shards [0, 1] (stole [0])" in out
    reference = CensusRunner(trained_classifier, CensusConfig(seed=9)).run(
        build_population(CensusCheckpoint.open(checkpoint).settings))
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["outcomes"] == [outcome.to_json_dict()
                                   for outcome in reference.outcomes]
