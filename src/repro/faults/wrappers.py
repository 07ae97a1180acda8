"""Probe-path shims that make planned faults actually happen.

:class:`FaultyServer` wraps any
:class:`~repro.core.gather.ProbeableServer` and applies the server-layer
faults of the current attempt (``unresponsive``, ``truncated_response``) at
connection time; the senders it hands out are wrapped in
:class:`FaultySender`, which counts ACK rounds and fires the mid-trace
faults (``probe_timeout``, ``connection_reset``, ``ack_blackhole``,
``server_restart``) at the configured round by raising
:class:`~repro.faults.plan.FaultInjected`.

Both wrappers delegate everything they do not intercept, so a wrapped
server behaves byte-identically until the instant a fault fires. The
delegation itself is :class:`TransparentProxy`, the base of every
probe-path proxy (the fault shims here, the evasive servers and the
middleboxes of :mod:`repro.scenarios`).
"""

from __future__ import annotations

from repro.faults.plan import FaultInjected, FaultSpec

#: Fraction of the requested transfer that survives a ``truncated_response``
#: fault when the spec carries no explicit ``param``.
DEFAULT_TRUNCATION_FRACTION = 0.05


class TransparentProxy:
    """A proxy that delegates every attribute it does not own.

    A subclass keeps the wrapped server or sender in the attribute named by
    ``_INNER`` and lists every attribute it owns (``_INNER`` included) in
    ``_OWN``. Reads of any other name fall through to the wrapped object and
    writes land on it, so the proxy changes nothing but the methods it
    defines.
    """

    _INNER = ""
    _OWN: tuple[str, ...] = ()

    def __getattr__(self, name):
        """Delegate a read the proxy cannot answer to the wrapped object.

        Args:
            name: Attribute name.

        Returns:
            The wrapped object's attribute.
        """
        return getattr(object.__getattribute__(self, self._INNER), name)

    def __setattr__(self, name, value):
        """Keep writes to owned attributes; forward every other write.

        Args:
            name: Attribute name.
            value: Value to set.
        """
        if name in self._OWN:
            object.__setattr__(self, name, value)
        else:
            setattr(object.__getattribute__(self, self._INNER), name, value)


class FaultySender(TransparentProxy):
    """A :class:`~repro.tcp.connection.TcpSender` proxy firing mid-trace faults.

    Counts probe rounds (one per :meth:`on_ack_ladder` call from the trace
    gatherer) and raises :class:`~repro.faults.plan.FaultInjected` when a spec's
    ``at_round`` is reached. Everything else is delegated untouched, so the
    wrapped sender's behaviour — and rng consumption — is unchanged up to
    the firing round.
    """

    _INNER = "_sender"
    _OWN = ("_sender", "_specs", "_owner", "_round")

    def __init__(self, sender, specs: list[FaultSpec], owner: "FaultyServer"):
        """Wrap ``sender`` with the mid-trace faults of ``specs``.

        Args:
            sender: The real :class:`~repro.tcp.connection.TcpSender`.
            specs: The mid-trace fault specs active on this attempt.
            owner: The :class:`FaultyServer` that opened the connection
                (receives event records; its inner server is restarted by
                ``server_restart`` faults).
        """
        self._sender = sender
        self._specs = list(specs)
        self._owner = owner
        self._round = 0

    # ------------------------------------------------------- fault machinery
    def _advance_round(self) -> None:
        """Count one probe round; fire any fault scheduled for it."""
        current = self._round
        self._round = current + 1
        for spec in self._specs:
            if spec.at_round != current:
                continue
            if spec.kind == "server_restart":
                # The host bounces: its TCP metrics cache and the connection
                # both die. The probe observes a reset.
                self._owner.restart_inner()
            self._owner.record_event(spec.kind, round_index=current)
            raise FaultInjected(spec.kind, spec.transient)

    # ------------------------------------------------ intercepted sender API
    def on_ack_ladder(self, runs, now):
        """One pre/post-timeout round of compressed ACK runs.

        Args:
            runs: The compressed ``(first, count, step)`` ladder runs.
            now: Current simulated time.

        Returns:
            The sender's emitted blocks for the next round.
        """
        self._advance_round()
        return self._sender.on_ack_ladder(runs, now)


class FaultyServer(TransparentProxy):
    """A :class:`~repro.core.gather.ProbeableServer` proxy injecting faults.

    Wraps the real server for one probe attempt, applying the attempt's
    active specs: connection-time faults fire in :meth:`open_connection`,
    mid-trace faults ride along on the returned :class:`FaultySender`.
    Fired faults are appended to :attr:`events` for the census's outcome
    accounting.
    """

    _INNER = "_server"
    _OWN = ("_server", "_specs", "events")

    def __init__(self, server, specs: list[FaultSpec]):
        """Wrap ``server`` with the faults active on this attempt.

        Args:
            server: The real server (``WebServer`` or ``SyntheticServer``).
            specs: The probe-layer specs firing on this attempt (from
                :meth:`~repro.faults.plan.FaultPlan.probe_faults`).
        """
        self._server = server
        self._specs = list(specs)
        self.events = []

    # -------------------------------------------------------------- recording
    def record_event(self, kind: str, **detail) -> None:
        """Record that a fault fired during this attempt.

        Args:
            kind: The fault kind that fired.
            **detail: Kind-specific context (e.g. the firing round).
        """
        self.events.append({"kind": kind, **detail})

    def restart_inner(self) -> None:
        """Bounce the wrapped server (used by ``server_restart`` faults)."""
        restart = getattr(self._server, "restart", None)
        if restart is not None:
            restart()

    # ------------------------------------------------ ProbeableServer protocol
    # ``accepts_mss`` and ``uses_frto`` delegate: MSS negotiation happens
    # before any injected failure mode.
    def open_connection(self, mss: int, now: float, requested_bytes: int):
        """Open a connection, subject to the attempt's connection-time faults.

        ``unresponsive`` raises before the real server is touched;
        ``truncated_response`` shrinks the transfer so the trace starves.
        Mid-trace specs are attached to the returned sender.

        Args:
            mss: Negotiated maximum segment size.
            now: Connection open time (simulated seconds).
            requested_bytes: Bytes the probe would like to transfer.

        Returns:
            A (possibly wrapped) sender, or ``None`` if the wrapped server
            refuses the connection.

        Raises:
            FaultInjected: When an ``unresponsive`` fault fires.
        """
        trace_specs = []
        truncation = None
        for spec in self._specs:
            if spec.kind == "unresponsive":
                self.record_event("unresponsive")
                raise FaultInjected("unresponsive", spec.transient)
            if spec.kind == "truncated_response":
                truncation = (DEFAULT_TRUNCATION_FRACTION
                              if spec.param is None else spec.param)
            else:
                trace_specs.append(spec)
        if truncation is not None:
            self.record_event("truncated_response", fraction=truncation)
            requested_bytes = max(1, int(requested_bytes * truncation))
        sender = self._server.open_connection(mss, now, requested_bytes)
        if sender is None or not trace_specs:
            return sender
        return FaultySender(sender, trace_specs, self)
