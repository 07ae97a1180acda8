"""The Internet measurement campaign (Section VII-B of the paper).

For every server in the (synthetic) population the census:

1. runs the Web-page searching tool to find a long page on the server;
2. negotiates the smallest MSS the server accepts from CAAI's ladder;
3. probes the server, walking the ``w_timeout`` ladder 512 / 256 / 128 / 64
   until a usable pair of traces is gathered;
4. if no usable trace exists, records the reason (Section VII-B2);
5. otherwise checks for the special trace cases of Section VII-B3 and, when
   none applies, classifies the feature vector with the trained random
   forest, reporting "unsure" when fewer than 40 % of the trees agree.

The aggregated :class:`~repro.core.results.CensusReport` is the reproduction
of Table IV plus the server-information summaries of Section VII-B1.

Execution is organised in two phases so both hot paths scale:

* the **probe phase** (steps 1-4) is embarrassingly parallel; every server
  gets its own deterministic random stream (:func:`repro.parallel.task_seeds`)
  and the work fans out, one task per server, over a
  :class:`~repro.parallel.ParallelExecutor` (serial or multiprocessing --
  bit-identical reports either way);
* the **classification phase** (steps 5-6) routes every pending feature
  vector through the forest in one vectorised batch
  (:meth:`~repro.core.classifier.CaaiClassifier.classify_vectors`).

A sharded, checkpointed census that survives interruption runs the same
pipeline shard by shard through
:class:`repro.serving.orchestrator.CensusOrchestrator`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import census_fingerprint, classifier_fingerprint
from repro.core.classifier import CaaiClassifier
from repro.core.gather import negotiate_probe_mss, probe_with_w_timeout_ladder
from repro.core.labels import UNSURE
from repro.core.results import CensusReport, ServerOutcome
from repro.core.special_cases import detect_shape_case, detect_stalled_case
from repro.core.trace import InvalidReason, ProbeTrace
from repro.faults import FaultInjected, FaultPlan, FaultyServer
from repro.parallel import ParallelExecutor, task_seeds
from repro.web.crawler import PageSearchTool
from repro.web.population import ServerPopulation, ServerRecord


@dataclass
class CensusConfig:
    """Parameters of a census run."""

    seed: int = 42
    #: Seconds CAAI waits between environments (slow start threshold caches).
    wait_between_environments: float = 600.0
    #: Crawl budget of the page searching tool.
    crawler_page_budget: int = 120
    #: Skip the crawler and request the default page directly (ablation).
    use_page_search: bool = True
    #: Deterministic fault plan to run the census under (``None`` = no
    #: injection; see docs/ROBUSTNESS.md). Its ``worker_death`` and
    #: ``torn_checkpoint`` specs act only on a sharded census
    #: (:class:`repro.serving.orchestrator.CensusOrchestrator`).
    fault_plan: FaultPlan | None = None
    #: Per-environment probe deadline budget in simulated seconds (``None``
    #: = unbounded). Probes exceeding it are recorded as ``probe_timeout``.
    probe_deadline: float | None = None
    #: Probe attempts per server before a transient fault is given up on.
    max_probe_attempts: int = 3
    #: First retry's maximum backoff in simulated seconds; doubles per
    #: attempt (full jitter, drawn from the attempt's own rng stream).
    backoff_base: float = 0.5
    #: Ceiling on a single backoff draw in simulated seconds.
    backoff_max: float = 30.0
    #: Adversarial scenario pack to probe under, by name (``None`` = no
    #: pack, the exact historic behaviour; see docs/SCENARIOS.md).
    scenario_pack: str | None = None

    def __post_init__(self) -> None:
        if self.scenario_pack is not None:
            # Resolve eagerly so an unknown pack fails at configuration
            # time, not inside a worker process.
            from repro.scenarios import scenario_pack_by_name

            scenario_pack_by_name(self.scenario_pack)
        if self.max_probe_attempts < 1:
            raise ValueError("max_probe_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base and backoff_max must be "
                             "non-negative")
        if self.probe_deadline is not None and self.probe_deadline <= 0:
            raise ValueError("probe_deadline must be positive (or None)")


def probe_server(record: ServerRecord, crawler: PageSearchTool,
                 config: CensusConfig,
                 rng: np.random.Generator) -> tuple[ServerOutcome, ProbeTrace | None]:
    """Steps 1-4 for one server: crawl, negotiate, probe, pre-categorise.

    Returns the partially filled outcome plus the probe when the outcome still
    needs the classification phase (``None`` otherwise). Module-level so
    worker processes can run it without shipping the trained forest.
    """
    server = record.server
    profile = record.profile
    outcome = ServerOutcome(
        server_id=profile.server_id,
        valid=False,
        true_algorithm=profile.effective_algorithm(),
        software=profile.software,
        region=profile.region,
    )

    # Step 1: find a long page (Section IV-E).
    if config.use_page_search:
        crawl = crawler.search(server.site)
        server.probe_path = crawl.best_path
    else:
        server.probe_path = server.site.default_path

    # Step 2: MSS negotiation (Table II).
    mss = negotiate_probe_mss(server)
    if mss is None:
        outcome.invalid_reason = InvalidReason.MSS_REJECTED
        return outcome, None
    outcome.mss = mss

    # Step 3: probe with the w_timeout ladder.
    probe = probe_with_w_timeout_ladder(
        server, record.condition, rng, mss,
        server_id=profile.server_id,
        wait_between_environments=config.wait_between_environments,
        deadline=config.probe_deadline)

    # Step 4: validity check and pre-categorisation.
    if not probe.usable_for_features:
        outcome.invalid_reason = _invalid_reason(probe, profile)
        return outcome, None

    outcome.valid = True
    outcome.w_timeout = probe.w_timeout

    # Traces with no congestion-avoidance growth at all never occur on the
    # testbed and are filtered out before classification.
    special = detect_stalled_case(probe)
    if special is not None:
        outcome.special_case = special
        outcome.category = special.value
        return outcome, None

    return outcome, probe


def _invalid_reason(probe: ProbeTrace, profile) -> InvalidReason:
    reason = probe.invalid_reason or InvalidReason.INSUFFICIENT_DATA
    if reason is InvalidReason.INSUFFICIENT_DATA and profile.max_pipelined_requests <= 3:
        # The paper distinguishes "page too short" from "server accepts
        # only one or a few pipelined requests"; the observable symptom is
        # the same (the transfer stops early), so use the server property.
        return InvalidReason.TOO_FEW_REQUESTS
    return reason


# Per-worker state for the probe phase; set once per process by the executor's
# initializer so tasks only carry (record, seed).
_PROBE_WORKER: dict = {}


def _init_probe_worker(config: CensusConfig) -> None:
    _PROBE_WORKER["config"] = config
    _PROBE_WORKER["crawler"] = PageSearchTool(page_budget=config.crawler_page_budget)
    pack = None
    if config.scenario_pack is not None:
        from repro.scenarios import scenario_pack_by_name

        pack = scenario_pack_by_name(config.scenario_pack)
        if not pack.wraps_servers():
            pack = None  # baseline packs leave the probe path untouched
    _PROBE_WORKER["pack"] = pack


def _scenario_record(record: ServerRecord) -> ServerRecord:
    """Wrap one record's server with the active scenario pack, if any.

    Baseline packs (and no pack at all) return the record unchanged, so the
    historic byte-for-byte behaviour survives.
    """
    pack = _PROBE_WORKER.get("pack")
    if pack is None:
        return record
    wrapped = pack.wrap_server(record.server, record.profile.server_id)
    if wrapped is record.server:
        return record
    return dataclasses.replace(record, server=wrapped)


def _attempt_seed(seed_sequence: np.random.SeedSequence,
                  attempt: int) -> np.random.SeedSequence:
    """The deterministic rng seed of one probe attempt.

    Attempt 0 is the task's own seed sequence, so a server that needs no
    retry draws exactly its :func:`repro.parallel.task_seeds` stream.
    Retries use the children ``spawn`` would
    produce, derived *purely* (no mutation of the parent's spawn counter),
    so the stream of attempt ``k`` depends only on (census seed, population
    index, ``k``) — never on scheduling or on how other servers fared.

    Args:
        seed_sequence: The task's per-server seed sequence.
        attempt: Zero-based probe attempt.

    Returns:
        The seed sequence to build the attempt's rng from.
    """
    if attempt == 0:
        return seed_sequence
    return np.random.SeedSequence(
        entropy=seed_sequence.entropy,
        spawn_key=tuple(seed_sequence.spawn_key) + (attempt - 1,))


def _fault_failure_outcome(record: ServerRecord,
                           fault: FaultInjected) -> ServerOutcome:
    """Terminal outcome for a server whose fault never cleared."""
    profile = record.profile
    return ServerOutcome(
        server_id=profile.server_id,
        valid=False,
        invalid_reason=fault.invalid_reason,
        true_algorithm=profile.effective_algorithm(),
        software=profile.software,
        region=profile.region,
    )


def _resilient_probe(record: ServerRecord, crawler: PageSearchTool,
                     config: CensusConfig,
                     seed_sequence: np.random.SeedSequence
                     ) -> tuple[ServerOutcome, ProbeTrace | None]:
    """Probe one server with retries, backoff, and fault classification.

    Each attempt gets its own deterministic rng stream
    (:func:`_attempt_seed`); a retry first draws its full-jitter backoff
    (``uniform(0, min(backoff_max, backoff_base * 2**(k-1)))``) from that
    stream, accumulating into the outcome's ``backoff_total``. A
    :class:`~repro.faults.plan.FaultInjected` marked transient is retried up
    to ``max_probe_attempts``; a permanent one fails fast. The returned
    outcome carries the full accounting (attempts, backoff, fault events).
    Every census task probes through here: with no plan, one attempt from
    the task's own seed leaves that accounting at its defaults.
    """
    plan = config.fault_plan if config.fault_plan is not None else FaultPlan()
    server_id = record.profile.server_id
    fault_events: list[tuple[str, int]] = []
    backoff_total = 0.0
    last_fault: FaultInjected | None = None
    outcome: ServerOutcome | None = None
    probe: ProbeTrace | None = None
    attempts_used = 0
    for attempt in range(config.max_probe_attempts):
        attempts_used = attempt + 1
        rng = np.random.default_rng(_attempt_seed(seed_sequence, attempt))
        if attempt > 0:
            cap = min(config.backoff_max,
                      config.backoff_base * 2.0 ** (attempt - 1))
            backoff_total += float(rng.uniform(0.0, cap))
        specs = plan.probe_faults(server_id, attempt)
        wrapper: FaultyServer | None = None
        probe_record = record
        if specs:
            wrapper = FaultyServer(record.server, specs)
            probe_record = dataclasses.replace(record, server=wrapper)
        try:
            outcome, probe = probe_server(probe_record, crawler, config, rng)
        except FaultInjected as fault:
            last_fault = fault
            if wrapper is not None:
                fault_events.extend((event["kind"], attempt)
                                    for event in wrapper.events)
            if not fault.transient:
                break
            continue
        if wrapper is not None:
            fault_events.extend((event["kind"], attempt)
                                for event in wrapper.events)
        break
    if outcome is None:
        assert last_fault is not None
        outcome = _fault_failure_outcome(record, last_fault)
        probe = None
    outcome.attempts = attempts_used
    outcome.backoff_total = backoff_total
    outcome.fault_events = tuple(fault_events)
    return outcome, probe


def _probe_task(task: tuple[ServerRecord, np.random.SeedSequence]
                ) -> tuple[ServerOutcome, ProbeTrace | None]:
    record, seed = task
    config = _PROBE_WORKER["config"]
    record = _scenario_record(record)
    return _resilient_probe(record, _PROBE_WORKER["crawler"], config, seed)


@dataclass
class CensusRunner:
    """Runs the census against a server population."""

    classifier: CaaiClassifier
    config: CensusConfig = field(default_factory=CensusConfig)
    #: Runs the probe phase, one task per server (``None`` = serial,
    #: in-process).
    executor: ParallelExecutor | None = None

    def __post_init__(self) -> None:
        if not self.classifier.is_trained:
            raise ValueError("the census needs a trained classifier")

    # ------------------------------------------------------------------ API
    def run(self, population: ServerPopulation) -> CensusReport:
        """Probe every server in the population and aggregate the outcomes.

        Every server draws from its own seed-derived random stream, so the
        report is identical for the serial and multiprocessing backends.

        Args:
            population: The server population (generated on demand).

        Returns:
            The aggregated :class:`CensusReport`, in population order.
        """
        records = self._records(population)
        outcomes = self._measure_indices(records, list(range(len(records))))
        report = CensusReport()
        for outcome in outcomes:
            report.add(outcome)
        return report

    def measure_indices(self, records: list[ServerRecord],
                        indices: list[int],
                        seeds: list | None = None) -> list[ServerOutcome]:
        """Probe and classify the records at ``indices``, in that order.

        Seeds are derived from the census seed and each record's position in
        the **full** population, so measuring any subset yields outcomes
        bit-identical to the same servers inside a monolithic :meth:`run` —
        this is what lets the work-stealing orchestrator
        (:class:`repro.serving.orchestrator.CensusOrchestrator`) replay a
        stolen shard and commit results indistinguishable from the first
        attempt's.

        Args:
            records: The **full** population's records (positions key the
                per-server random streams).
            indices: Population indices to measure, in output order.
            seeds: Optional precomputed :func:`repro.parallel.task_seeds`
                list for the full population; callers measuring several
                subsets pass it to avoid re-deriving it per subset.

        Returns:
            One classified :class:`ServerOutcome` per index, in order.
        """
        return self._measure_indices(records, indices, seeds=seeds)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _records(population: ServerPopulation) -> list[ServerRecord]:
        """The population's records, generating them on first use."""
        if not population.records:
            population.generate()
        return population.records

    def _fingerprint(self, population: ServerPopulation) -> str:
        """Config fingerprint binding checkpoints to this exact run."""
        return census_fingerprint(
            self.config, population,
            classifier_fingerprint=classifier_fingerprint(self.classifier))

    def _measure_indices(self, records: list[ServerRecord],
                         indices: list[int],
                         seeds: list | None = None) -> list[ServerOutcome]:
        """The body of :meth:`measure_indices`, which :meth:`run` also uses."""
        executor = self.executor or ParallelExecutor()
        if seeds is None:
            seeds = task_seeds(self.config.seed, len(records))
        tasks = [(records[i], seeds[i]) for i in indices]
        partials = executor.map(_probe_task, tasks,
                                initializer=_init_probe_worker,
                                initargs=(self.config,))
        pending = [(outcome, probe) for outcome, probe in partials if probe is not None]
        self._classify_pending(pending)
        return [outcome for outcome, _ in partials]

    def _classify_pending(self, pending: list[tuple[ServerOutcome, ProbeTrace]]) -> None:
        """Steps 5-6 for every outcome that survived the probe phase."""
        if not pending:
            return
        extractor = self.classifier.extractor
        vectors = [extractor.extract(probe) for _, probe in pending]
        w_timeouts = [probe.w_timeout for _, probe in pending]
        identifications = self.classifier.classify_vectors(vectors, w_timeouts)
        for (outcome, probe), identification in zip(pending, identifications):
            # Step 5: random forest classification with the confidence threshold.
            outcome.confidence = identification.confidence
            if not identification.unsure:
                outcome.category = identification.label
                continue
            # Step 6: an unconfident classification may still match one of the
            # shape-based special cases (Approaching w_t, Bounded Window); if
            # not, it is reported as "Unsure TCP" exactly like the paper.
            shape = detect_shape_case(probe)
            if shape is not None:
                outcome.special_case = shape
                outcome.category = shape.value
            else:
                outcome.category = UNSURE
