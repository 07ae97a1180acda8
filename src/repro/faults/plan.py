"""Deterministic fault plans: *which* fault hits *whom*, *when*.

The paper's Internet census (Section VII) ran against real, flaky servers —
unreachable hosts, truncated transfers, servers that had to be re-measured.
This module lets the reproduction inject those failures *deterministically*:
a :class:`FaultPlan` is a seeded, declarative list of :class:`FaultSpec`
entries, and every decision ("does the unresponsive-host fault fire for
server ``s-0042`` on attempt 2?") is a pure function of the plan seed, the
spec, the scope key and the attempt number. Nothing depends on scheduling,
backend, worker count or wall clock, so a census under a fault plan is as
bit-reproducible as a census without one.

Faults are grouped into three layers:

* **network** — ``probe_timeout``, ``connection_reset``, ``ack_blackhole``
  (mid-trace failures raised from the probe path) and ``link_outage``
  (windows of total loss on a :class:`~repro.net.link.NetemLink`);
* **server** — ``unresponsive`` hosts, ``server_restart`` (drops the Web
  server's cached TCP state mid-probe) and ``truncated_response`` (the
  transfer ends early, starving the trace);
* **execution** — ``worker_death`` (a probe task dies mid-flight and is
  recovered by the census runner) and ``torn_checkpoint`` (a shard write is
  cut mid-record, simulating a crash during
  :meth:`~repro.core.checkpoint.CensusCheckpoint.write_shard`).

**Transient vs. permanent:** a spec with ``persist_attempts=N`` fires only on
the first ``N`` attempts against its scope — the fault clears when the census
retries, modelling a transient outage. ``persist_attempts=None`` means the
fault never clears (a permanently dead host); the census classifies it as
permanent and fails fast instead of burning its retry budget.

The full taxonomy, parameters and handling policy are documented in
``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.store import key_bytes

#: Fault kinds by layer (the taxonomy of docs/ROBUSTNESS.md).
NETWORK_KINDS = ("probe_timeout", "connection_reset", "ack_blackhole",
                 "link_outage")
SERVER_KINDS = ("unresponsive", "server_restart", "truncated_response")
EXECUTION_KINDS = ("worker_death", "torn_checkpoint")
ALL_KINDS = NETWORK_KINDS + SERVER_KINDS + EXECUTION_KINDS

#: Kinds applied by wrapping the probed server / its sender (everything in
#: the network and server layers except link outages, which attach to
#: :class:`~repro.net.link.NetemLink` on the packet-level path).
PROBE_KINDS = tuple(kind for kind in NETWORK_KINDS + SERVER_KINDS
                    if kind != "link_outage")

#: How an exhausted / permanent fault of each kind is recorded on the
#: resulting :class:`~repro.core.results.ServerOutcome` — mapped to
#: :class:`~repro.core.trace.InvalidReason` *values* (strings) so this
#: module stays import-cycle-free of :mod:`repro.core`.
FAULT_INVALID_REASONS = {
    "probe_timeout": "probe_timeout",
    "ack_blackhole": "probe_timeout",
    "connection_reset": "connection_reset",
    "server_restart": "connection_reset",
    "unresponsive": "connection_failed",
    "worker_death": "worker_failed",
}


class FaultInjected(Exception):
    """An injected fault fired inside a probe.

    Raised by the fault wrappers (:mod:`repro.faults.wrappers`) and caught by
    the census runner's resilient probe loop, which classifies it as
    transient (retry with backoff) or permanent (record the failure and move
    on). It never escapes the census pipeline.
    """

    def __init__(self, kind: str, transient: bool):
        """Describe the fired fault.

        Args:
            kind: The :data:`ALL_KINDS` entry that fired.
            transient: Whether retrying can clear the fault
                (``persist_attempts`` was finite).
        """
        super().__init__(f"injected fault: {kind} "
                         f"({'transient' if transient else 'permanent'})")
        self.kind = kind
        self.transient = transient

    @property
    def invalid_reason(self):
        """How this fault is recorded when retries are exhausted.

        Returns:
            The matching :class:`~repro.core.trace.InvalidReason` member
            (``CONNECTION_FAILED`` for kinds with no specific mapping).
        """
        from repro.core.trace import InvalidReason

        return InvalidReason(
            FAULT_INVALID_REASONS.get(self.kind, "connection_failed"))


class WorkerDeathFault(Exception):
    """A probe task's (simulated) worker died mid-task.

    Deliberately *not* a :class:`FaultInjected`: a dead worker takes its
    whole task down, so this escapes the per-probe loop and is captured by
    :class:`~repro.parallel.ParallelExecutor` as a
    :class:`~repro.parallel.TaskFailure`, which the census runner recovers
    from by re-running the task deterministically.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: a kind, a target scope, and firing rules.

    Attributes:
        kind: One of :data:`ALL_KINDS`.
        scope: The exact target key (a server id for probe faults, a shard
            index string for ``torn_checkpoint``); ``None`` targets every
            scope, subject to ``probability``.
        probability: Fraction of scopes hit, drawn deterministically per
            (plan seed, spec, scope) — never per attempt, so an affected
            server stays affected across retries until the fault clears.
        persist_attempts: The fault fires on attempts ``0..N-1`` and then
            clears (transient). ``None`` = fires on every attempt
            (permanent).
        at_round: For mid-trace kinds (``probe_timeout``,
            ``connection_reset``, ``ack_blackhole``, ``server_restart``):
            the ACK round within one environment trace at which the fault
            fires. For ``link_outage``: the outage start time in simulated
            seconds. For ``torn_checkpoint``: how many outcome records are
            written before the torn line.
        param: Kind-specific magnitude — the surviving fraction of the
            transfer for ``truncated_response`` (default 0.05), the outage
            duration in seconds for ``link_outage`` (default 1.0).
    """

    kind: str
    scope: str | None = None
    probability: float = 1.0
    persist_attempts: int | None = 1
    at_round: int = 3
    param: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from "
                             f"{ALL_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got "
                             f"{self.probability}")
        if self.persist_attempts is not None and self.persist_attempts < 1:
            raise ValueError("persist_attempts must be at least 1 (or None "
                             "for a permanent fault)")
        if self.at_round < 0:
            raise ValueError("at_round must be non-negative")
        if self.param is not None and self.param < 0:
            raise ValueError("param must be non-negative")

    @property
    def transient(self) -> bool:
        """Whether this fault clears after ``persist_attempts`` attempts."""
        return self.persist_attempts is not None


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic composition of injectable faults.

    Attributes:
        seed: Keys every probabilistic scope draw; two plans with the same
            seed and specs make identical decisions everywhere.
        specs: The composed :class:`FaultSpec` entries.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists for convenience; store a hashable tuple.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    # -------------------------------------------------------------- queries
    @property
    def empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return not self.specs

    def probe_faults(self, server_id: str, attempt: int) -> list[FaultSpec]:
        """The probe-layer faults that fire for one server on one attempt.

        Args:
            server_id: The server's stable identifier.
            attempt: Zero-based probe attempt number (retries increment it).

        Returns:
            The matching specs, in plan order.
        """
        return [spec for spec in self.specs
                if spec.kind in PROBE_KINDS
                and self._fires(spec, server_id, attempt)]

    def worker_death_fires(self, scope_key: str, attempt: int) -> bool:
        """Whether a ``worker_death`` fault kills the task for ``scope_key``.

        Args:
            scope_key: Stable task identifier (the census uses the first
                server id of the task).
            attempt: Zero-based execution attempt (in-process recovery
                re-runs increment it).

        Returns:
            ``True`` if some ``worker_death`` spec fires.
        """
        return any(self._fires(spec, scope_key, attempt)
                   for spec in self.specs if spec.kind == "worker_death")

    def lease_death_fires(self, shard_index: int, generation: int) -> bool:
        """Whether a worker dies while holding a lease on ``shard_index``.

        Serving-layer convenience over :meth:`worker_death_fires`, keying
        the fault to the lease (scope ``"lease:<shard>"``, attempt =
        lease generation). Because a steal bumps the generation, a spec
        with ``persist_attempts=1`` kills the first holder and spares the
        thief — the work-stealing orchestrator's crash-replay test matrix
        is built on exactly this. The scope prefix keeps lease deaths
        disjoint from probe-layer faults, so an orchestrated census with a
        lease-death plan still produces outcomes bit-identical to a
        plan-free run.

        Args:
            shard_index: The leased shard.
            generation: The lease generation (0 for the first grant; each
                steal increments it).

        Returns:
            ``True`` if some ``worker_death`` spec fires for this lease.
        """
        return self.worker_death_fires(f"lease:{shard_index}", generation)

    def torn_write_after(self, shard_index: int, attempt: int) -> int | None:
        """How many records a torn shard write survives, if one is injected.

        Args:
            shard_index: The shard about to be written.
            attempt: Zero-based write attempt (the census passes 1 when a
                partial shard file from a previous crash already exists).

        Returns:
            The record count before the torn line, or ``None`` when no
            ``torn_checkpoint`` spec fires.
        """
        for spec in self.specs:
            if spec.kind != "torn_checkpoint":
                continue
            if self._fires(spec, str(shard_index), attempt):
                return spec.at_round
        return None

    def link_outages(self, scope_key: str) -> tuple[tuple[float, float], ...]:
        """The ``(start, end)`` outage windows for one link scope.

        Args:
            scope_key: Stable link identifier (e.g. a server id).

        Returns:
            Outage windows in simulated seconds, suitable for
            :class:`~repro.net.link.NetemLink`'s ``outages`` field.
        """
        windows = []
        for spec in self.specs:
            if spec.kind != "link_outage":
                continue
            if self._fires(spec, scope_key, attempt=0):
                duration = 1.0 if spec.param is None else spec.param
                windows.append((float(spec.at_round),
                                float(spec.at_round) + duration))
        return tuple(windows)

    # -------------------------------------------------------- serialisation
    def to_json_dict(self) -> dict:
        """Plain-JSON representation (stored in checkpoint settings).

        Returns:
            A dict round-tripping exactly through :meth:`from_json_dict`.
        """
        return {
            "seed": self.seed,
            "specs": [{
                "kind": spec.kind,
                "scope": spec.scope,
                "probability": spec.probability,
                "persist_attempts": spec.persist_attempts,
                "at_round": spec.at_round,
                "param": spec.param,
            } for spec in self.specs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json_dict` output.

        Args:
            data: A dict previously produced by :meth:`to_json_dict` (or
                hand-written; unknown keys are rejected by the dataclass).

        Returns:
            The reconstructed, validated :class:`FaultPlan`.
        """
        return cls(seed=int(data.get("seed", 0)),
                   specs=tuple(FaultSpec(**spec)
                               for spec in data.get("specs", ())))

    # ------------------------------------------------------------ internals
    @staticmethod
    def _in_scope(spec: FaultSpec, scope_key: str) -> bool:
        return spec.scope is None or spec.scope == scope_key

    def _fires(self, spec: FaultSpec, scope_key: str, attempt: int) -> bool:
        """Pure firing decision for (spec, scope, attempt)."""
        if not self._in_scope(spec, scope_key):
            return False
        if (spec.persist_attempts is not None
                and attempt >= spec.persist_attempts):
            return False
        if spec.probability >= 1.0:
            return True
        return self._draw(spec, scope_key) < spec.probability

    def _draw(self, spec: FaultSpec, scope_key: str) -> float:
        """Deterministic uniform draw in [0, 1) for (plan, spec, scope)."""
        key = key_bytes(self.seed, spec.kind, spec.scope, scope_key)
        return int.from_bytes(key, "big") / 2.0 ** 64
