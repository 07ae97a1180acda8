"""The census command line, end to end in real processes.

``python -m repro.census`` is killed after its first shard, inspected,
resumed on the ``process`` backend in a separate process, and merged in a
third; the merged report must equal an uninterrupted in-process census
built from the same settings. A bad execution argument is rejected before
any training, so it leaves no checkpoint behind.
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
    assert census_cli("status", "--checkpoint", checkpoint) == 0
    assert census_cli("resume", "--checkpoint", checkpoint,
                      "--backend", "process", "--workers", "2") == 0
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


@pytest.mark.parametrize("argument", [
    ["--workers", "0"],
    ["--max-probe-attempts", "0"],
    ["--probe-deadline", "-1"],
    ["--stop-after-shards", "0"],
], ids=["workers", "max-probe-attempts", "probe-deadline", "stop-after-shards"])
def test_run_rejects_a_bad_execution_argument_before_training(
        tmp_path, capsys, argument):
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
    for argument in (["--workers", "0"], ["--stop-after-shards", "0"]):
        assert census_main(["resume", "--checkpoint", checkpoint,
                            *argument]) == 2
        assert "training classifier" not in capsys.readouterr().out
    assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == manifest
