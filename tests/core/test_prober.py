"""Tests for the packet-level CAAI prober and its agreement with the
round-level gatherer."""

import functools
import itertools

import numpy as np
import pytest

from repro.core.environments import ENVIRONMENT_A, ENVIRONMENT_B
from repro.core.gather import GatherConfig, TraceGatherer
from repro.core.prober import CaaiProber, ProberConfig, packet_level_trace
from repro.core.trace import InvalidReason
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import SenderConfig, TcpSender
from repro.tcp.registry import ALL_ALGORITHM_NAMES, create_algorithm
from tests.conftest import make_synthetic_server


class TestPacketLevelProbe:
    def test_produces_valid_trace(self):
        trace = packet_level_trace("reno", ENVIRONMENT_A, w_timeout=128)
        assert trace.is_valid
        assert trace.post_timeout[0] == pytest.approx(1)
        assert len(trace.post_timeout) == 18

    def test_environment_b_schedule_applied(self):
        trace = packet_level_trace("illinois", ENVIRONMENT_B, w_timeout=128)
        assert trace.is_valid

    def test_insufficient_data_detected(self):
        trace = packet_level_trace("reno", ENVIRONMENT_A, w_timeout=512,
                                   data_bytes=20_000)
        assert trace.invalid_reason is InvalidReason.INSUFFICIENT_DATA

    def test_works_with_path_jitter_and_loss(self):
        condition = NetworkCondition(average_rtt=0.12, rtt_std=0.02, loss_rate=0.01)
        trace = packet_level_trace("cubic-b", ENVIRONMENT_A, condition=condition,
                                   w_timeout=128, seed=3)
        assert trace.is_valid or trace.invalid_reason is not None

    def test_frto_server_handled(self):
        prober = CaaiProber(ENVIRONMENT_A, NetworkCondition.ideal(),
                            ProberConfig(w_timeout=128, mss=100))
        sender = TcpSender(create_algorithm("reno"),
                           SenderConfig(mss=100, initial_window=3, use_frto=True))
        sender.enqueue_bytes(5_000_000)
        trace = prober.probe(sender, frto_server=True)
        assert trace.is_valid
        # The duplicate ACK must have prevented a spurious-timeout rollback.
        assert sender.spurious_timeouts == 0


#: The families whose ideal-path traces differ between the two engines:
#: HTCP, Westwood+ and BBR, in 8, 5 and 6 of their 8 (environment,
#: ``w_timeout``) cells. HTCP's alpha reads the time since the last
#: congestion event, and Westwood+'s bandwidth
#: estimate and BBR's gain cycle read ACK timing, which the prober spreads
#: over a round and the gatherer does not. Which engine is right is
#: ROADMAP item 13's open question.
TIME_DEPENDENT = ("bbr", "htcp", "westwood")
EXACT_FAMILIES = [name for name in ALL_ALGORITHM_NAMES
                  if name not in TIME_DEPENDENT]
ENVIRONMENTS = {"A": ENVIRONMENT_A, "B": ENVIRONMENT_B}


@functools.cache
def gathered_trace(algorithm: str, environment: str, w_timeout: int):
    """The round-level gatherer's ideal-path trace of a fresh server."""
    gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
    return gatherer.gather_trace(make_synthetic_server(algorithm),
                                 ENVIRONMENTS[environment],
                                 NetworkCondition.ideal(),
                                 np.random.default_rng(0))


def trace_key(trace):
    """What the two engines must agree on: both phases and the verdict."""
    return (trace.pre_timeout, trace.post_timeout, trace.invalid_reason)


class TestAgreementWithRoundLevelEngine:
    """On the ideal path the packet-level prober is an exact oracle for the
    gatherer: equal pre- and post-timeout rounds and equal invalid reasons
    (Vegas in environment B stops at the same round limit in both)."""

    @pytest.mark.parametrize("w_timeout", [64, 256])
    @pytest.mark.parametrize("environment", list(ENVIRONMENTS))
    @pytest.mark.parametrize("algorithm", EXACT_FAMILIES)
    def test_traces_equal_on_the_ideal_path(self, algorithm, environment,
                                            w_timeout):
        packet_trace = packet_level_trace(algorithm, ENVIRONMENTS[environment],
                                          w_timeout=w_timeout, initial_window=3)
        assert trace_key(packet_trace) == trace_key(
            gathered_trace(algorithm, environment, w_timeout))


class TestIdenticalProbes:
    """The pairs of families no ideal-path probe can tell apart.

    ROADMAP item 10: a pair whose traces are equal in both environments
    must share a training label. Today that is DCTCP and RENO only, at every
    ``w_timeout``; environment A alone also merges DCTCP/LP, LP/RENO and
    STCP/YeAH, which environment B separates.
    """

    @staticmethod
    def identical_pairs(environments, w_timeout):
        return {(first, second)
                for first, second in itertools.combinations(
                    ALL_ALGORITHM_NAMES, 2)
                if all(trace_key(gathered_trace(first, env, w_timeout))
                       == trace_key(gathered_trace(second, env, w_timeout))
                       for env in environments)}

    @pytest.mark.parametrize("w_timeout", [64, 128, 256, 512])
    def test_only_dctcp_and_reno_share_both_environments(self, w_timeout):
        assert self.identical_pairs("AB", w_timeout) == {("dctcp", "reno")}

    @pytest.mark.parametrize("w_timeout", [64, 128, 256, 512])
    def test_environment_b_separates_what_a_merges(self, w_timeout):
        assert self.identical_pairs("A", w_timeout) == {
            ("dctcp", "lp"), ("dctcp", "reno"), ("lp", "reno"),
            ("stcp", "yeah")}
