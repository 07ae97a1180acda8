"""Training-set generation (Section VII-A of the paper).

The paper collects training feature vectors on a lab testbed: for every pair
of (TCP algorithm, ``w_timeout``) it emulates 100 network conditions drawn
from its measured condition database and records the resulting feature
vectors, giving 14 x 4 x 100 = 5600 vectors. This module reproduces that
process against the simulated substrate: each training "server" is a
:class:`~repro.core.gather.SyntheticServer` running the algorithm under test,
probed through a randomly drawn network condition.

The number of conditions per pair is configurable so the full paper-scale set
(which takes a while in pure Python) and a quick small-scale set can both be
produced; percentages and accuracies are stable across scales because every
condition is an independent draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.environments import W_TIMEOUT_LADDER
from repro.core.features import FeatureExtractor, FeatureVector
from repro.core.gather import GatherConfig, SyntheticServer, TraceGatherer
from repro.core.labels import training_label
from repro.net.conditions import ConditionDatabase, default_condition_database
from repro.ml.dataset import LabeledDataset
from repro.parallel import ParallelExecutor, task_seeds
from repro.tcp.connection import SenderConfig
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS

#: Number of emulated conditions per (algorithm, w_timeout) pair in the paper.
PAPER_CONDITIONS_PER_PAIR = 100


@dataclass
class TrainingExample:
    """One training vector with its provenance."""

    algorithm: str
    w_timeout: int
    label: str
    vector: FeatureVector
    condition_index: int


@dataclass
class TrainingSetBuilder:
    """Builds labelled CAAI training sets on the simulated testbed."""

    conditions_per_pair: int = PAPER_CONDITIONS_PER_PAIR
    algorithms: tuple[str, ...] = IDENTIFIABLE_ALGORITHMS
    w_timeouts: tuple[int, ...] = W_TIMEOUT_LADDER
    mss: int = 100
    seed: int = 7
    condition_database: ConditionDatabase | None = None
    #: Initial congestion windows sampled for the emulated servers, making the
    #: training set insensitive to the server's initial window (design goal 2).
    initial_windows: tuple[int, ...] = (2, 3, 4, 10)
    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)
    #: Optional ``wrapper(server, pair_id)`` applied to every training server
    #: (e.g. a scenario pack's ``wrap_server``, so the classifier trains
    #: under the same adversity it is evaluated under). Must be picklable
    #: for the process backend. ``None`` keeps the historic behaviour.
    server_wrapper: "callable | None" = None

    def __post_init__(self) -> None:
        if self.conditions_per_pair < 1:
            raise ValueError("conditions_per_pair must be at least 1")
        if self.condition_database is None:
            self.condition_database = default_condition_database()

    # ------------------------------------------------------------------ API
    def build_examples(self, executor: ParallelExecutor | None = None) -> list[TrainingExample]:
        """Generate the full list of training examples.

        Every (algorithm, ``w_timeout``) pair draws from its own seed-derived
        random stream and the pairs fan out over ``executor`` (serial by
        default), so the examples are identical for every backend and worker
        count.

        Args:
            executor: Optional :class:`ParallelExecutor` to fan the pairs
                out over (defaults to in-process serial execution).

        Returns:
            Every :class:`TrainingExample`, grouped by pair, in pair order.
        """
        pairs = [(algorithm, w_timeout)
                 for algorithm in self.algorithms
                 for w_timeout in self.w_timeouts]
        executor = executor or ParallelExecutor()
        tasks = list(zip(pairs, task_seeds(self.seed, len(pairs))))
        per_pair = executor.map(_pair_task, tasks,
                                initializer=_init_training_worker, initargs=(self,))
        return [example for pair_examples in per_pair for example in pair_examples]

    def build_dataset(self, executor: ParallelExecutor | None = None) -> LabeledDataset:
        """Generate the training set as a :class:`LabeledDataset`.

        Args:
            executor: Optional :class:`ParallelExecutor`, as for
                :meth:`build_examples`.

        Returns:
            The examples packed into a :class:`LabeledDataset` with CAAI's
            feature names.
        """
        examples = self.build_examples(executor=executor)
        rows = [(example.vector.as_array(), example.label) for example in examples]
        return LabeledDataset.from_rows(rows, feature_names=FeatureVector.ELEMENT_NAMES)

    # ------------------------------------------------------------- internals
    def _examples_for_pair(self, algorithm: str, w_timeout: int,
                           rng: np.random.Generator) -> list[TrainingExample]:
        assert self.condition_database is not None
        label = training_label(algorithm, w_timeout)
        gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=self.mss))
        examples: list[TrainingExample] = []
        attempts = 0
        max_attempts = self.conditions_per_pair * 4
        while len(examples) < self.conditions_per_pair and attempts < max_attempts:
            attempts += 1
            condition = self.condition_database.sample(rng)
            server = self._make_server(algorithm, rng)
            if self.server_wrapper is not None:
                # The attempt index diversifies per-server perturbation
                # streams (e.g. evasion rngs) across a pair's conditions.
                server = self.server_wrapper(
                    server, f"{algorithm}/{w_timeout}/{attempts - 1}")
            probe = gatherer.gather_probe(server, condition, rng)
            if not probe.usable_for_features:
                # The emulated condition was too hostile (e.g. an extreme loss
                # draw); the paper simply gathers another trace.
                continue
            vector = self.extractor.extract(probe)
            examples.append(TrainingExample(
                algorithm=algorithm, w_timeout=w_timeout, label=label,
                vector=vector, condition_index=attempts - 1))
        return examples

    def _make_server(self, algorithm: str, rng: np.random.Generator) -> SyntheticServer:
        initial_window = int(rng.choice(self.initial_windows))

        def config_factory(mss: int, _iw: int = initial_window) -> SenderConfig:
            return SenderConfig(mss=mss, initial_window=_iw)

        return SyntheticServer(algorithm_name=algorithm,
                               sender_config_factory=config_factory)


# Per-worker state for the training fan-out; the builder is pickled once per
# worker by the executor's initializer, so tasks only carry the pair and seed.
_TRAINING_WORKER: dict = {}


def _init_training_worker(builder: TrainingSetBuilder) -> None:
    _TRAINING_WORKER["builder"] = builder


def _pair_task(task: tuple[tuple[str, int], np.random.SeedSequence]
               ) -> list[TrainingExample]:
    (algorithm, w_timeout), seed = task
    builder: TrainingSetBuilder = _TRAINING_WORKER["builder"]
    return builder._examples_for_pair(algorithm, w_timeout, np.random.default_rng(seed))
