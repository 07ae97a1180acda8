"""Evasive servers: window dynamics perturbed to dodge fingerprinting.

An operator who knows CAAI is probing can blur the very signal the
classifier reads — the per-round window trajectory. :class:`EvasiveServer`
wraps any :class:`~repro.core.gather.ProbeableServer` and perturbs each
connection it opens:

* **randomized ssthresh** — the initial slow-start threshold is drawn per
  connection, so the slow-start exit point stops matching the algorithm's
  native pattern;
* **jittered growth** — rounds randomly withhold a fraction of the emitted
  burst, smearing the window estimates;
* **delayed state transitions** — the retransmission timer is reported
  late, shifting the timeout edge the probe synchronises on.

All perturbation randomness comes from a dedicated stream derived from
``sha256(pack seed, server id)`` — the probe's rng stream is never touched,
so a wrapper with every knob neutral consumes **zero** extra draws and the
traces are bit-identical (the acceptance bar this layer is held to, and
what the transparency tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.wrappers import TransparentProxy
from repro.store import key_bytes
from repro.tcp.packet import block_packet_count


@dataclass(frozen=True)
class EvasionConfig:
    """Knobs of an evasive server (all neutral by default)."""

    #: Random initial ssthresh drawn uniformly from this (low, high) window
    #: range in packets; ``None`` keeps the algorithm's native threshold.
    ssthresh_range: tuple[float, float] | None = None
    #: Per-round probability of withholding part of the emitted burst.
    growth_jitter: float = 0.0
    #: Largest fraction of a round's packets a jitter event withholds.
    growth_holdback: float = 0.3
    #: Seconds added to every reported retransmission-timer deadline.
    timer_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.ssthresh_range is not None:
            low, high = self.ssthresh_range
            if not 0 < low <= high:
                raise ValueError("ssthresh_range must satisfy 0 < low <= high")
        if not 0.0 <= self.growth_jitter <= 1.0:
            raise ValueError("growth_jitter must be a probability")
        if not 0.0 <= self.growth_holdback < 1.0:
            raise ValueError("growth_holdback must lie in [0, 1)")
        if self.timer_delay < 0:
            raise ValueError("timer_delay must be non-negative")

    def is_neutral(self) -> bool:
        """Whether every knob is at its pass-through default.

        Returns:
            ``True`` when the wrapper cannot perturb anything.
        """
        return (self.ssthresh_range is None and self.growth_jitter == 0.0
                and self.timer_delay == 0.0)


def evasion_rng(pack_seed: int, server_id: str,
                connection_index: int) -> np.random.Generator:
    """The dedicated perturbation stream of one evasive connection.

    Derived from ``sha256(pack seed, server id, connection index)`` so it is
    deterministic per connection, independent of backend and scheduling, and
    never overlaps the probe's own stream.

    Args:
        pack_seed: The scenario pack's seed.
        server_id: Stable server identifier.
        connection_index: Zero-based connection counter of the wrapper.

    Returns:
        A seeded :class:`numpy.random.Generator`.
    """
    key = key_bytes("evasion", pack_seed, server_id, connection_index)
    return np.random.default_rng(int.from_bytes(key, "little"))


class EvasiveSender(TransparentProxy):
    """A sender proxy applying one connection's evasive perturbations."""

    _INNER = "_sender"
    _OWN = ("_sender", "_config", "_rng")

    def __init__(self, sender, config: EvasionConfig,
                 rng: np.random.Generator):
        """Wrap ``sender`` with the perturbations of ``config``.

        Args:
            sender: The real :class:`~repro.tcp.connection.TcpSender`.
            config: The evasion knobs.
            rng: The connection's dedicated perturbation stream.
        """
        self._sender = sender
        self._config = config
        self._rng = rng

    # -------------------------------------------------------- perturbations
    def _withhold(self, blocks):
        """Randomly truncate one round's emitted blocks (jittered growth)."""
        config = self._config
        if config.growth_jitter <= 0.0 or not blocks:
            return blocks
        rng = self._rng
        fires = rng.random() < config.growth_jitter
        fraction = float(rng.random()) * config.growth_holdback
        if not fires or fraction <= 0.0:
            return blocks
        total = block_packet_count(blocks)
        keep = max(1, total - int(total * fraction))
        if keep >= total:
            return blocks
        out = []
        for block in blocks:
            size = len(block)
            if keep <= 0:
                break
            if size <= keep:
                out.append(block)
                keep -= size
            else:
                out.append(block.slice(0, keep))
                keep = 0
        return out

    # ------------------------------------------------ intercepted sender API
    def on_ack_ladder(self, runs, now):
        """One round of compressed ACK runs; the response may be withheld.

        Args:
            runs: The compressed ``(first, count, step)`` ladder runs.
            now: Current simulated time.

        Returns:
            The (possibly truncated) emitted blocks for the next round.
        """
        return self._withhold(self._sender.on_ack_ladder(runs, now))

    def next_timer_deadline(self):
        """The retransmission-timer deadline, reported late when configured.

        Returns:
            The wrapped sender's deadline plus ``timer_delay``, or ``None``
            when no timer is pending.
        """
        deadline = self._sender.next_timer_deadline()
        if deadline is None or self._config.timer_delay == 0.0:
            return deadline
        return deadline + self._config.timer_delay


class EvasiveServer(TransparentProxy):
    """A server proxy whose connections evade window fingerprinting.

    Wraps any :class:`~repro.core.gather.ProbeableServer`; each opened
    connection gets its own perturbation stream (:func:`evasion_rng`) and is
    returned inside an :class:`EvasiveSender`.
    """

    _INNER = "_server"
    _OWN = ("_server", "_config", "_pack_seed", "_server_id",
            "connections_wrapped")

    def __init__(self, server, config: EvasionConfig, pack_seed: int,
                 server_id: str):
        """Wrap ``server`` with the evasive behaviour of ``config``.

        Args:
            server: The real server (``WebServer`` or ``SyntheticServer``).
            config: The evasion knobs.
            pack_seed: The scenario pack's seed (perturbation-stream root).
            server_id: Stable server identifier for stream derivation.
        """
        self._server = server
        self._config = config
        self._pack_seed = pack_seed
        self._server_id = server_id
        self.connections_wrapped = 0

    def open_connection(self, mss: int, now: float, requested_bytes: int):
        """Open a connection with this server's evasive perturbations.

        With a neutral config the inner sender is returned unwrapped and no
        perturbation stream is created — the protocol-transparency
        guarantee.

        Args:
            mss: Negotiated maximum segment size.
            now: Connection open time (simulated seconds).
            requested_bytes: Bytes the probe would like to transfer.

        Returns:
            The (possibly wrapped) sender, or ``None`` if the wrapped
            server refuses the connection.
        """
        sender = self._server.open_connection(mss, now, requested_bytes)
        if sender is None or self._config.is_neutral():
            return sender
        index = self.connections_wrapped
        self.connections_wrapped = index + 1
        rng = evasion_rng(self._pack_seed, self._server_id, index)
        if self._config.ssthresh_range is not None:
            low, high = self._config.ssthresh_range
            sender.state.ssthresh = float(rng.uniform(low, high))
        return EvasiveSender(sender, self._config, rng)
