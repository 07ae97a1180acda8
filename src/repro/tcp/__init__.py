"""TCP sender substrate.

This subpackage implements everything CAAI needs on the *server* side of a
probe: MSS-sized segments, RTO estimation, a sender state machine with slow
start / congestion avoidance / timeout recovery, and from-scratch
implementations of every congestion avoidance algorithm the paper identifies
(Table I of the paper).
"""

from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState
from repro.tcp.connection import SenderConfig, TcpSender
from repro.tcp.packet import Segment
from repro.tcp.registry import (
    ALL_ALGORITHM_NAMES,
    IDENTIFIABLE_ALGORITHMS,
    algorithm_catalog,
    create_algorithm,
)
from repro.tcp.rto import RtoEstimator

__all__ = [
    "AckContext",
    "ALL_ALGORITHM_NAMES",
    "CongestionAvoidance",
    "CongestionState",
    "IDENTIFIABLE_ALGORITHMS",
    "RtoEstimator",
    "Segment",
    "SenderConfig",
    "TcpSender",
    "algorithm_catalog",
    "create_algorithm",
]
