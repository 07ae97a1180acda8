"""The two emulated network environments of CAAI (Section IV-B, Fig. 2).

Both environments acknowledge every data packet (non-delayed ACKs), are free
of loss and reordering up to the emulated timeout, and force a timeout once
the server's window exceeds ``w_timeout`` packets. They differ only in the
emulated round-trip time schedule:

* Environment A: the RTT is always 1.0 s.
* Environment B: before the timeout the RTT is 0.8 s for the first three
  rounds and 1.0 s afterwards; after the timeout it is 0.8 s for the first
  twelve rounds and 1.0 s afterwards.

The RTT step before the timeout exposes window-growth functions that depend on
the RTT (e.g. ILLINOIS, VENO); the step after the timeout exposes
RTT-dependent growth in congestion avoidance (e.g. CTCP-b, YEAH).
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``w_timeout`` values CAAI tries, in decreasing order (Section IV-B).
W_TIMEOUT_LADDER: tuple[int, ...] = (512, 256, 128, 64)

#: Number of post-timeout rounds that make a trace valid (Section IV-E).
VALID_TRACE_ROUNDS_AFTER_TIMEOUT = 18

#: Default emulated RTT (seconds); chosen between the 0.8 s RTT ceiling of
#: real paths (Fig. 4) and the 2.5 s floor of initial retransmission timers.
DEFAULT_EMULATED_RTT = 1.0
#: The shorter RTT used by environment B's varying schedule.
SHORT_EMULATED_RTT = 0.8


@dataclass(frozen=True)
class NetworkEnvironment:
    """One of CAAI's emulated network environments.

    ``rtt_before_timeout(i)`` and ``rtt_after_timeout(i)`` give the emulated
    RTT of the ``i``-th round (0-based) of the respective phase.
    """

    name: str
    #: Round index (0-based) before the timeout at which the RTT switches from
    #: ``short_rtt`` to ``long_rtt``; 0 means the long RTT is used throughout.
    pre_timeout_switch_round: int
    #: Same, for the rounds after the timeout.
    post_timeout_switch_round: int
    long_rtt: float = DEFAULT_EMULATED_RTT
    short_rtt: float = SHORT_EMULATED_RTT

    def rtt_before_timeout(self, round_index: int) -> float:
        if round_index < 0:
            raise ValueError("round index must be non-negative")
        if round_index < self.pre_timeout_switch_round:
            return self.short_rtt
        return self.long_rtt

    def rtt_after_timeout(self, round_index: int) -> float:
        if round_index < 0:
            raise ValueError("round index must be non-negative")
        if round_index < self.post_timeout_switch_round:
            return self.short_rtt
        return self.long_rtt


#: Environment A: constant 1.0 s RTT (Fig. 2, left).
ENVIRONMENT_A = NetworkEnvironment(
    name="A", pre_timeout_switch_round=0, post_timeout_switch_round=0)

#: Environment B: 0.8 s for 3 rounds / 1.0 s before the timeout, and 0.8 s for
#: 12 rounds / 1.0 s after the timeout (Fig. 2, right).
ENVIRONMENT_B = NetworkEnvironment(
    name="B", pre_timeout_switch_round=3, post_timeout_switch_round=12)

#: The two environments of every CAAI probe, in probing order.
DEFAULT_ENVIRONMENTS: tuple[NetworkEnvironment, ...] = (ENVIRONMENT_A, ENVIRONMENT_B)
