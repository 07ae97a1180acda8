"""Hostile middlebox models on the ACK path.

Real paths put more than netem between CAAI and a server: NATs and
accelerators thin or stretch ACK streams, and policers rate-limit them.
These models intercept the
probe's ACK ladder inside a protocol-transparent sender wrapper (a
:class:`~repro.faults.wrappers.TransparentProxy`, like the fault shims):
everything not intercepted delegates to the real sender, and — crucially — every
degradation here is **deterministic**, consuming zero draws from the probe's
rng stream, so a middlebox with all knobs neutral leaves traces
bit-identical.

Per-source drop accounting lands in a :class:`~repro.net.link.LinkStats`
(``thinned_acks``, ``policer_dropped``), so
scenario reports can explain *why* accuracy fell.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gather import append_run, every_nth_entry, first_entries
from repro.faults.wrappers import TransparentProxy
from repro.net.link import LinkStats


@dataclass(frozen=True)
class MiddleboxConfig:
    """Knobs of the ACK-path middlebox chain (all neutral by default)."""

    #: Pass only every ``k``-th ACK (plus the round's final ACK, so the
    #: cumulative point still reaches the sender); ``1`` disables thinning.
    thin_every: int = 1
    #: Seconds each ACK is delayed (an ACK "stretcher"); ``0`` disables.
    stretch_seconds: float = 0.0
    #: Token-bucket policer burst capacity in ACKs; ``None`` disables.
    policer_capacity: int | None = None
    #: Policer refill rate in ACKs per simulated second.
    policer_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.thin_every < 1:
            raise ValueError("thin_every must be at least 1")
        if self.stretch_seconds < 0:
            raise ValueError("stretch_seconds must be non-negative")
        if self.policer_capacity is not None:
            if self.policer_capacity < 1:
                raise ValueError("policer_capacity must be at least 1")
            if self.policer_rate <= 0:
                raise ValueError("policer_rate must be positive when the "
                                 "policer is enabled")

    def is_neutral(self) -> bool:
        """Whether every knob is at its pass-through default.

        Returns:
            ``True`` when the chain cannot alter a single ACK.
        """
        return (self.thin_every == 1 and self.stretch_seconds == 0.0
                and self.policer_capacity is None)


class TokenBucketPolicer:
    """A token-bucket ACK policer (deterministic, simulated-time refill)."""

    def __init__(self, capacity: int, rate: float):
        """Create a full bucket.

        Args:
            capacity: Maximum tokens (one token admits one ACK).
            rate: Refill rate in tokens per simulated second.
        """
        self.capacity = capacity
        self.rate = rate
        self.tokens = float(capacity)
        self.last_time: float | None = None

    def admit(self, count: int, now: float) -> int:
        """How many of ``count`` ACKs arriving at ``now`` pass the policer.

        The bucket refills over the simulated time elapsed since the last
        call; ACKs beyond the available tokens are dropped from the tail
        (the burst's front gets through, exactly like a real policer).

        Args:
            count: ACKs offered in this batch.
            now: Current simulated time.

        Returns:
            The number admitted, between 0 and ``count``.
        """
        if self.last_time is not None and now > self.last_time:
            self.tokens = min(float(self.capacity),
                              self.tokens + (now - self.last_time) * self.rate)
        self.last_time = now
        admitted = min(count, int(self.tokens))
        self.tokens -= admitted
        return admitted


class MiddleboxSender(TransparentProxy):
    """A sender proxy applying the ACK-path middlebox chain.

    Intercepts the round's ACK ladder
    (:meth:`~repro.tcp.connection.TcpSender.on_ack_ladder`), filters its
    ACKs through thinning and then the policer, stretches the delivery
    time, and delegates the survivors.
    Everything else proxies to the wrapped sender untouched.
    """

    _INNER = "_sender"
    _OWN = ("_sender", "_config", "_stats", "_policer")

    def __init__(self, sender, config: MiddleboxConfig, stats: LinkStats):
        """Wrap ``sender`` with the middlebox chain of ``config``.

        Args:
            sender: The real :class:`~repro.tcp.connection.TcpSender`.
            config: The middlebox knobs.
            stats: Shared per-server accounting for the drops.
        """
        self._sender = sender
        self._config = config
        self._stats = stats
        self._policer = (None if config.policer_capacity is None else
                         TokenBucketPolicer(config.policer_capacity,
                                            config.policer_rate))

    # --------------------------------------------------------- the ACK chain
    def _filter(self, runs, total: int, now: float):
        """The runs of the round's ``total`` ACKs that pass the chain.

        Thinning keeps every ``thin_every``-th entry plus the round's final
        ACK, and the policer the first ``admitted``.
        """
        stats = self._stats
        passing = total
        every = self._config.thin_every
        if every > 1:
            last_first, last_count, last_step = runs[-1]
            runs = every_nth_entry(runs, every)
            if total % every:
                # The round's final ACK always escapes.
                append_run(runs, last_first + (last_count - 1) * last_step, 1, 1)
            passing = -(-total // every)
            stats.thinned_acks += total - passing
        if self._policer is not None:
            admitted = self._policer.admit(passing, now)
            if admitted < passing:
                stats.policer_dropped += passing - admitted
                runs = first_entries(runs, admitted)
                passing = admitted
        stats.delivered += passing
        return runs

    # ------------------------------------------------ intercepted sender API
    def on_ack_ladder(self, runs, now):
        """One round of compressed ACK runs, filtered through the chain.

        A thinned stretch reaches the sender as one stretch-ACK run
        (``step == thin_every``).

        Args:
            runs: The compressed ``(first, count, step)`` ladder runs.
            now: Current simulated time.

        Returns:
            The sender's emitted blocks for the next round.
        """
        config = self._config
        if config.is_neutral():
            return self._sender.on_ack_ladder(runs, now)
        total = sum(run[1] for run in runs)
        if total:
            runs = self._filter(runs, total, now)
        return self._sender.on_ack_ladder(runs, now + config.stretch_seconds)


class MiddleboxServer(TransparentProxy):
    """A server proxy that puts a middlebox chain on every connection's ACKs.

    Wraps any :class:`~repro.core.gather.ProbeableServer`; each sender the
    inner server opens is returned inside a :class:`MiddleboxSender`. The
    middlebox is ACK-path only, so everything else (MSS negotiation, F-RTO,
    ``site``, ``profile``) delegates to the inner server.
    """

    _INNER = "_server"
    _OWN = ("_server", "_config", "stats")

    def __init__(self, server, config: MiddleboxConfig):
        """Wrap ``server`` behind the middlebox chain of ``config``.

        Args:
            server: The real server (``WebServer`` or ``SyntheticServer``).
            config: The middlebox knobs applied to every connection.
        """
        self._server = server
        self._config = config
        self.stats = LinkStats()

    def open_connection(self, mss: int, now: float, requested_bytes: int):
        """Open a connection whose ACK path crosses the middlebox.

        Args:
            mss: Negotiated maximum segment size.
            now: Connection open time (simulated seconds).
            requested_bytes: Bytes the probe would like to transfer.

        Returns:
            The inner sender wrapped in a :class:`MiddleboxSender`, or
            ``None`` if the wrapped server refuses the connection.
        """
        sender = self._server.open_connection(mss, now, requested_bytes)
        if sender is None:
            return None
        return MiddleboxSender(sender, self._config, self.stats)
