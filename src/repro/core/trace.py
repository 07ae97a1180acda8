"""Window traces gathered by CAAI.

A *window trace* is the per-RTT sequence of congestion window estimates CAAI
measures for one (server, environment) pair: the slow start before the
emulated timeout, the window right before the timeout, and the rounds after
the timeout. A *valid* trace contains 18 post-timeout rounds (Section IV-E,
Fig. 8); anything shorter, or a probe that never reached the emulated timeout,
is invalid and is categorised by an :class:`InvalidReason`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class InvalidReason(enum.Enum):
    """Why a probe failed to produce a valid trace (Section VII-B2)."""

    #: The Web page(s) CAAI could request were too short to sustain the probe.
    INSUFFICIENT_DATA = "insufficient_data"
    #: The server accepted too few pipelined HTTP requests.
    TOO_FEW_REQUESTS = "too_few_requests"
    #: The server's window never exceeded ``w_timeout`` (Fig. 13).
    WINDOW_BELOW_W_TIMEOUT = "window_below_w_timeout"
    #: The server did not react to the emulated timeout.
    NO_TIMEOUT_RESPONSE = "no_timeout_response"
    #: The server rejected every MSS CAAI offered.
    MSS_REJECTED = "mss_rejected"
    #: The connection could not be established at all.
    CONNECTION_FAILED = "connection_failed"
    #: The probe exceeded its deadline budget (or the server went silent
    #: mid-trace) and every retry was exhausted.
    PROBE_TIMEOUT = "probe_timeout"
    #: The connection was reset mid-probe and every retry was exhausted.
    CONNECTION_RESET = "connection_reset"
    #: Every worker that probed the server died. No census writes it; it is
    #: kept so that reports that hold it still load.
    WORKER_FAILED = "worker_failed"


@dataclass
class WindowTrace:
    """Per-RTT window estimates for one environment probe.

    Attributes:
        environment: name of the emulated environment ("A" or "B").
        w_timeout: the window threshold that triggers the emulated timeout.
        mss: negotiated maximum segment size in bytes.
        pre_timeout: window estimates of the rounds before the timeout,
            ``w_0 .. w_t`` in the paper's notation (the last element is the
            window right before the timeout).
        post_timeout: window estimates of the rounds after the timeout,
            ``w_{t+1} .. w_n``.
        invalid_reason: ``None`` for a valid trace.
        ack_loss_events: number of ACKs the emulated network dropped (useful
            for tests; a real CAAI cannot observe this).
    """

    environment: str
    w_timeout: int
    mss: int
    pre_timeout: list[float] = field(default_factory=list)
    post_timeout: list[float] = field(default_factory=list)
    invalid_reason: InvalidReason | None = None
    ack_loss_events: int = 0
    required_post_rounds: int = 18

    # -- validity -----------------------------------------------------------
    @property
    def is_valid(self) -> bool:
        """A valid trace saw the timeout and 18 post-timeout rounds."""
        return (self.invalid_reason is None
                and len(self.post_timeout) >= self.required_post_rounds
                and bool(self.pre_timeout))

    # -- the paper's named quantities ----------------------------------------
    @property
    def w_loss(self) -> float:
        """Window right before the timeout (``w_t`` in Fig. 8)."""
        if not self.pre_timeout:
            raise ValueError("trace has no pre-timeout rounds")
        return self.pre_timeout[-1]

    @property
    def initial_window(self) -> float:
        """The first measured window (``w_0``); not used by feature extraction."""
        if not self.pre_timeout:
            raise ValueError("trace has no pre-timeout rounds")
        return self.pre_timeout[0]

    @property
    def max_post_timeout_window(self) -> float:
        return max(self.post_timeout, default=0.0)

    def all_windows(self) -> list[float]:
        """The full trace ``w_0 .. w_n`` (pre- and post-timeout concatenated)."""
        return list(self.pre_timeout) + list(self.post_timeout)

    def __len__(self) -> int:
        return len(self.pre_timeout) + len(self.post_timeout)

    @classmethod
    def invalid(cls, environment: str, w_timeout: int, mss: int,
                reason: InvalidReason) -> "WindowTrace":
        """Build an empty invalid trace with the given reason."""
        return cls(environment=environment, w_timeout=w_timeout, mss=mss,
                   invalid_reason=reason)


@dataclass
class ProbeTrace:
    """The result of probing one server: one trace per environment."""

    trace_a: WindowTrace
    trace_b: WindowTrace
    #: ``w_timeout`` value finally used (the same for both environments).
    w_timeout: int
    #: Negotiated MSS in bytes.
    mss: int
    #: Identifier of the probed server (census bookkeeping).
    server_id: str | None = None

    @property
    def is_valid(self) -> bool:
        return self.trace_a.is_valid and self.trace_b.is_valid

    @property
    def usable_for_features(self) -> bool:
        """Whether feature extraction can work with this probe.

        Environment A must have produced a valid trace. Environment B may
        legitimately fail to reach the emulated timeout for strongly
        delay-sensitive algorithms (VEGAS interprets B's RTT step as
        congestion and stalls); that outcome is itself a feature (the
        ``reach64`` flag), so such probes are still usable.
        """
        if not self.trace_a.is_valid:
            return False
        if self.trace_b.is_valid:
            return True
        return self.trace_b.invalid_reason is InvalidReason.WINDOW_BELOW_W_TIMEOUT

    @property
    def invalid_reason(self) -> InvalidReason | None:
        """The first invalid reason encountered, if any."""
        if not self.trace_a.is_valid:
            return self.trace_a.invalid_reason or InvalidReason.INSUFFICIENT_DATA
        if not self.trace_b.is_valid:
            return self.trace_b.invalid_reason or InvalidReason.INSUFFICIENT_DATA
        return None

    def traces(self) -> tuple[WindowTrace, WindowTrace]:
        return self.trace_a, self.trace_b
