"""Tests for CAAI step 1: trace gathering."""

import numpy as np
import pytest

from repro.core.environments import ENVIRONMENT_A, ENVIRONMENT_B
from repro.core.gather import (
    GatherConfig,
    SyntheticServer,
    TraceGatherer,
    negotiate_probe_mss,
    probe_with_w_timeout_ladder,
)
from repro.core.trace import InvalidReason
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import SenderConfig
from tests.conftest import make_synthetic_server


class TestGatherConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GatherConfig(w_timeout=0)
        with pytest.raises(ValueError):
            GatherConfig(mss=0)
        with pytest.raises(ValueError):
            GatherConfig(rounds_after_timeout=0)

    def test_required_bytes_scale_with_parameters(self):
        small = GatherConfig(w_timeout=64, mss=100).required_bytes()
        large = GatherConfig(w_timeout=512, mss=100).required_bytes()
        larger_mss = GatherConfig(w_timeout=64, mss=1460).required_bytes()
        assert large > small
        assert larger_mss > small


class TestTraceGathering:
    def test_reno_trace_structure(self, ideal_condition, rng):
        gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
        trace = gatherer.gather_trace(make_synthetic_server("reno", initial_window=2),
                                      ENVIRONMENT_A, ideal_condition, rng)
        assert trace.is_valid
        # Slow start doubles from the initial window to beyond w_timeout.
        assert trace.pre_timeout[:4] == [2, 4, 8, 16]
        assert trace.w_loss > 512
        # Post-timeout: retransmission, then a fresh slow start.
        assert trace.post_timeout[0] == 1
        assert trace.post_timeout[1] == pytest.approx(2)
        assert len(trace.post_timeout) == 18

    def test_probe_covers_both_environments(self, ideal_condition, rng):
        gatherer = TraceGatherer(GatherConfig(w_timeout=256, mss=100))
        probe = gatherer.gather_probe(make_synthetic_server("cubic-b"), ideal_condition, rng)
        assert probe.trace_a.environment == "A"
        assert probe.trace_b.environment == "B"
        assert probe.is_valid

    def test_environment_b_uses_different_rtts(self, ideal_condition, rng):
        # ILLINOIS reacts to the RTT step, so the two environments must differ.
        gatherer = TraceGatherer(GatherConfig(w_timeout=256, mss=100))
        probe = gatherer.gather_probe(make_synthetic_server("illinois"), ideal_condition, rng)
        assert probe.trace_a.post_timeout != probe.trace_b.post_timeout

    def test_mss_rejection(self, ideal_condition, rng):
        server = SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                 minimum_mss=536)
        gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))
        trace = gatherer.gather_trace(server, ENVIRONMENT_A, ideal_condition, rng)
        assert trace.invalid_reason is InvalidReason.MSS_REJECTED

    def test_insufficient_data_detected(self, ideal_condition, rng):
        server = SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                 available_bytes=20_000)
        gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
        trace = gatherer.gather_trace(server, ENVIRONMENT_A, ideal_condition, rng)
        assert trace.invalid_reason is InvalidReason.INSUFFICIENT_DATA

    def test_unresponsive_server_detected(self, ideal_condition, rng):
        server = make_synthetic_server("reno", responds_to_timeout=False)
        gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))
        trace = gatherer.gather_trace(server, ENVIRONMENT_A, ideal_condition, rng)
        assert trace.invalid_reason is InvalidReason.NO_TIMEOUT_RESPONSE

    def test_vegas_stalls_in_environment_b(self, ideal_condition, rng):
        gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
        probe = gatherer.gather_probe(make_synthetic_server("vegas"), ideal_condition, rng)
        assert probe.trace_a.is_valid
        assert probe.trace_b.invalid_reason is InvalidReason.WINDOW_BELOW_W_TIMEOUT
        assert probe.usable_for_features
        assert max(probe.trace_b.all_windows()) < 64

    def test_ack_loss_slows_slow_start(self, rng):
        lossy = NetworkCondition(average_rtt=0.1, rtt_std=0.0, loss_rate=0.3)
        gatherer = TraceGatherer(GatherConfig(w_timeout=256, mss=100))
        clean_trace = gatherer.gather_trace(make_synthetic_server("reno"),
                                            ENVIRONMENT_A, NetworkCondition.ideal(), rng)
        lossy_trace = gatherer.gather_trace(make_synthetic_server("reno"),
                                            ENVIRONMENT_A, lossy, rng)
        assert len(lossy_trace.pre_timeout) >= len(clean_trace.pre_timeout)
        assert lossy_trace.ack_loss_events > 0

    def test_block_probe_materialises_no_segments(self, monkeypatch):
        """The round-level pipeline runs on blocks, never a Segment object."""
        from repro.tcp.packet import Segment

        created = 0
        original = Segment.__post_init__

        def counting(self):
            nonlocal created
            created += 1
            original(self)

        monkeypatch.setattr(Segment, "__post_init__", counting)
        gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))
        probe = gatherer.gather_probe(make_synthetic_server("reno"),
                                      NetworkCondition.ideal(),
                                      np.random.default_rng(2))
        assert probe.usable_for_features
        assert created == 0


class TestLadderAndMss:
    def test_ladder_falls_back_for_data_limited_server(self, ideal_condition, rng):
        # Enough data for a small probe but not for w_timeout = 512.
        server = SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                 available_bytes=120_000)
        probe = probe_with_w_timeout_ladder(server, ideal_condition, rng, mss=100)
        assert probe.usable_for_features
        assert probe.w_timeout < 512

    def test_ladder_returns_invalid_probe_when_everything_fails(self, ideal_condition, rng):
        server = SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                 available_bytes=5_000)
        probe = probe_with_w_timeout_ladder(server, ideal_condition, rng, mss=100)
        assert not probe.usable_for_features

    def test_mss_negotiation_walks_the_ladder(self):
        assert negotiate_probe_mss(SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                                   minimum_mss=100)) == 100
        assert negotiate_probe_mss(SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                                   minimum_mss=400)) == 536
        assert negotiate_probe_mss(SyntheticServer("reno", lambda mss: SenderConfig(mss=mss),
                                                   minimum_mss=5000)) is None
