"""Shared fixtures for the test suite.

The expensive artefacts (a small training set and a classifier trained on it)
are session-scoped so the many tests that need them build them exactly once.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import stat

import numpy as np
import pytest

from repro.core.classifier import CaaiClassifier
from repro.core.features import FeatureExtractor
from repro.core.gather import GatherConfig, SyntheticServer, TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import NetworkCondition, default_condition_database
from repro.tcp.connection import SenderConfig, TcpSender


@contextlib.contextmanager
def scalar_engine():
    """Run every ``TcpSender`` on the scalar per-ACK reference engine.

    Inside the block no ACK ladder takes a batched step: ``_run_eligible``
    refuses every clean prefix, so each ACK reaches ``on_ack_packet``. This
    is the only way to select the reference; outside the block the batched
    engine runs as in production. Plain ``with`` use, so the differential
    harness's ``--regenerate`` runs it outside pytest too.
    """
    eligible = TcpSender._run_eligible
    TcpSender._run_eligible = lambda self: False
    try:
        yield
    finally:
        TcpSender._run_eligible = eligible


#: The committed constraints file CI installs NumPy through.
CONSTRAINTS = pathlib.Path(__file__).resolve().parents[1] / "constraints.txt"


def numpy_versions() -> str:
    """The NumPy version the pins were verified under, and the running one.

    Returns:
        A phrase for a failure message; a generator's stream is only
        promised within one NumPy version.
    """
    pinned = next(line.partition("==")[2].strip()
                  for line in CONSTRAINTS.read_text().splitlines()
                  if line.startswith("numpy=="))
    return (f"the pins were verified under NumPy {pinned}; "
            f"this is NumPy {np.__version__}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def ideal_condition() -> NetworkCondition:
    return NetworkCondition.ideal()


@pytest.fixture
def extractor() -> FeatureExtractor:
    return FeatureExtractor()


@pytest.fixture
def condition_database():
    return default_condition_database(size=500, seed=1)


def make_synthetic_server(algorithm: str, initial_window: int = 3,
                          **sender_kwargs) -> SyntheticServer:
    """Helper used across test modules to build a probeable server."""

    def factory(mss: int) -> SenderConfig:
        return SenderConfig(mss=mss, initial_window=initial_window, **sender_kwargs)

    return SyntheticServer(algorithm_name=algorithm, sender_config_factory=factory)


#: (label, ``SenderConfig`` kwargs) of the freeze and ceiling quirk servers
#: the batch/scalar parity tests probe, sized for a ``w_timeout`` of 64:
#: a window frozen in avoidance; a ceiling below ``w_timeout`` that
#: avoidance grows into; a ceiling under an ``initial_ssthresh`` above it,
#: so slow start hits the cap; and both quirks, the ceiling capping slow
#: start above ``w_timeout`` before the timeout.
QUIRK_CONFIGS = [
    ("freeze", dict(freeze_in_avoidance=True)),
    ("ceiling", dict(initial_ssthresh=24.0, approach_ceiling=40.0)),
    ("ceiling-in-slow-start", dict(initial_ssthresh=100.0, approach_ceiling=40.0)),
    ("freeze-ceiling", dict(freeze_in_avoidance=True, approach_ceiling=100.0)),
]


def expand(blocks) -> list:
    """The per-packet ``Segment`` objects a sender's emitted blocks cover."""
    return [segment for block in blocks for segment in block.segments()]


def expand_runs(runs) -> list[int]:
    """The ACK values a ``(first, count, step)`` ladder encodes, in order."""
    return [first + index * step
            for first, count, step in runs for index in range(count)]


@pytest.fixture
def fsync_log(monkeypatch) -> list:
    """``(is_directory, inode)`` of every ``os.fsync`` the test makes."""
    synced = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        info = os.fstat(fd)
        synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return synced


@pytest.fixture
def server_factory():
    return make_synthetic_server


@pytest.fixture
def gatherer_512() -> TraceGatherer:
    return TraceGatherer(GatherConfig(w_timeout=512, mss=100))


@pytest.fixture
def gatherer_64() -> TraceGatherer:
    return TraceGatherer(GatherConfig(w_timeout=64, mss=100))


@pytest.fixture(scope="session")
def small_training_set():
    """A small but complete training set shared by classifier tests."""
    builder = TrainingSetBuilder(
        conditions_per_pair=4,
        seed=11,
        w_timeouts=(512, 64),
        condition_database=default_condition_database(size=300, seed=4),
    )
    return builder.build_dataset()


@pytest.fixture(scope="session")
def trained_classifier(small_training_set) -> CaaiClassifier:
    classifier = CaaiClassifier(n_trees=60, seed=5)
    classifier.train(small_training_set)
    return classifier
