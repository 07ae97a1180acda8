"""Tests for CAAI step 1: trace gathering."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.environments import ENVIRONMENT_A, ENVIRONMENT_B
from repro.core.gather import (
    FIRST_CHUNK,
    GatherConfig,
    SyntheticServer,
    TraceDraws,
    TraceGatherer,
    drop_entries,
    negotiate_probe_mss,
    probe_with_w_timeout_ladder,
)
from repro.core.trace import InvalidReason
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import SenderConfig
from repro.tcp.packet import SegmentBlock
from tests.conftest import expand_runs, make_synthetic_server, numpy_versions


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


@st.composite
def ladders_with_masks(draw):
    """A non-decreasing ``(first, count, step)`` ladder and a keep mask."""
    runs = []
    value = draw(st.integers(min_value=0, max_value=50))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        count = draw(st.integers(min_value=1, max_value=40))
        step = draw(st.integers(min_value=0, max_value=5))
        value += draw(st.integers(min_value=0, max_value=3))
        runs.append((value, count, step))
        value += (count - 1) * step
    total = sum(count for _, count, _ in runs)
    kept = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    return runs, np.array(kept, dtype=bool)


def dropped_positions(kept) -> list[int]:
    return np.flatnonzero(~kept).tolist()


def one_progression(values) -> bool:
    """Whether ``values`` are one arithmetic progression with a step >= 0."""
    steps = {b - a for a, b in zip(values, values[1:])}
    return len(steps) <= 1 and min(steps, default=0) >= 0


class FixedDraws:
    """A draw-source stand-in whose one loss request takes preset draws."""

    lossy = True

    def __init__(self, draws, loss_rate):
        self.draws = np.asarray(draws, dtype=float)
        self.loss_rate = loss_rate

    def drops(self, count):
        assert count == len(self.draws)
        return np.flatnonzero(self.draws < self.loss_rate).tolist()


@st.composite
def blocks_with_flags(draw):
    """A round's blocks (maybe led by a retransmission) and a keep flag per
    packet."""
    mss = 100
    blocks = []
    start = draw(st.integers(min_value=0, max_value=20))
    if draw(st.booleans()):
        blocks.append(SegmentBlock(start, start + 1, mss, 0.5, mss,
                                   is_retransmission=True))
        start += draw(st.integers(min_value=1, max_value=5))
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        size = draw(st.integers(min_value=1, max_value=30))
        start += draw(st.integers(min_value=0, max_value=2))
        blocks.append(SegmentBlock(start, start + size, mss, float(index),
                                   draw(st.integers(min_value=1, max_value=mss))))
        start += size
    total = sum(len(block) for block in blocks)
    kept = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    return blocks, kept


class TestLadderFiltering:
    """ACK loss splits ladder runs, and data loss splits blocks, at the drops."""

    @settings(max_examples=200, deadline=None)
    @given(ladders_with_masks())
    def test_filtered_ladder_expands_to_the_masked_ladder(self, case):
        runs, kept = case
        filtered = drop_entries(runs, dropped_positions(kept))
        expected = [value for value, keep in zip(expand_runs(runs), kept) if keep]
        assert expand_runs(filtered) == expected
        assert all(count >= 1 and step >= 0 for _, count, step in filtered)
        # Maximal: no run continues the progression of the one before it.
        for run, nxt in zip(filtered, filtered[1:]):
            assert not one_progression(expand_runs([run, nxt]))

    def test_thinned_stretch_becomes_one_stride_run(self):
        kept = np.zeros(30, dtype=bool)
        kept[3::4] = True
        kept[-1] = True
        assert drop_entries([(1, 30, 1)], dropped_positions(kept)) == [
            (4, 7, 4), (30, 1, 1)]

    def test_lost_acks_split_a_stretch_at_the_gaps(self):
        kept = np.ones(10, dtype=bool)
        kept[4] = False
        assert drop_entries([(1, 10, 1)], dropped_positions(kept)) == [
            (1, 4, 1), (6, 5, 1)]
        # Losing 5 and 7 leaves 6 alone rather than pairing it with 8.
        kept[6] = False
        assert drop_entries([(1, 10, 1)], dropped_positions(kept)) == [
            (1, 4, 1), (6, 1, 1), (8, 3, 1)]

    @settings(max_examples=200, deadline=None)
    @given(blocks_with_flags())
    def test_surviving_stretches_match_a_scan(self, case):
        blocks, kept = case
        # A draw below the loss rate drops its packet.
        draws = [0.9 if keep else 0.1 for keep in kept]
        received = TraceGatherer()._deliver(
            blocks, FixedDraws(draws, NetworkCondition(0.2, 0.0, 0.5).loss_rate))
        # The per-packet scan: each block's maximal stretches of kept
        # packets, as ``(start, stop, end_seq, retransmitted)`` records whose
        # ``end_seq`` is the stretch's last packet's.
        stretches = []
        flags = iter(kept)
        for block in blocks:
            open_stretch = False
            for segment in block.segments():
                if not next(flags):
                    open_stretch = False
                elif open_stretch:
                    stretches[-1][1:3] = [segment.packet_index + 1,
                                          segment.end_seq]
                else:
                    stretches.append([segment.packet_index,
                                      segment.packet_index + 1,
                                      segment.end_seq,
                                      segment.is_retransmission])
                    open_stretch = True
        assert received == [tuple(stretch) for stretch in stretches]

    def test_a_late_retransmission_is_acknowledged_in_sequence(self):
        # A retransmission that arrives after new data is acknowledged
        # first: the ladder follows sequence order, not arrival order.
        class Ladders:
            def __init__(self):
                self.runs = []

            def on_ack_ladder(self, runs, now):
                self.runs.append(runs)
                return []

        new_data, retransmission = (5, 8, 800, False), (2, 3, 300, True)
        sender = Ladders()
        for received in ([new_data, retransmission],
                         [retransmission, new_data]):
            TraceGatherer()._acknowledge(
                sender, received,
                TraceDraws(None, NetworkCondition.ideal().loss_rate), 1.0, 8)
        assert sender.runs == [[(8, 4, 0)], [(8, 4, 0)]]


#: The length of one loss request of a trace's draws, 0 to about 5,000; a
#: few sizes sit on the chunk boundaries the doubling chunks put at 1,024,
#: 3,072, 7,168, ...
draw_requests = st.one_of(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from([FIRST_CHUNK - 1, FIRST_CHUNK, FIRST_CHUNK + 1,
                     2 * FIRST_CHUNK]))


class Interrupted(Exception):
    """Raised between two requests, as a fault leaves a trace."""


class TestTraceDraws:
    """The draw source serves the stream one ``random(n)`` per request would."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           loss_rate=st.sampled_from([0.0, 0.0005, 0.02, 0.3]),
           traces=st.lists(st.lists(draw_requests, max_size=14),
                           min_size=2, max_size=4),
           cut=st.integers(min_value=0, max_value=14))
    @example(seed=7, loss_rate=0.02, traces=[[900, 300, 2000], [5000]], cut=2)
    def test_matches_sequential_draws_on_a_twin(self, seed, loss_rate, traces,
                                                cut):
        # The first trace raises before its request ``cut`` (if it has one);
        # the others run to the end. Every trace starts with the generator's
        # buffered 32-bit half set: a ``choice`` over 5,000 values draws one
        # 32-bit integer and keeps the other half, which double draws never
        # touch, and each rewind must restore it.
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for generator in (rng, twin):
            generator.choice(np.arange(5000))
        for index, requests in enumerate(traces):
            assert rng.bit_generator.state["has_uint32"] == 1
            draws = TraceDraws(rng, loss_rate)
            try:
                for position, count in enumerate(requests):
                    if index == 0 and position == cut:
                        raise Interrupted
                    expected = twin.random(count)
                    assert list(draws.drops(count)) == np.flatnonzero(
                        expected < loss_rate).tolist()
            except Interrupted:
                pass
            finally:
                draws.close()
            assert rng.bit_generator.state == twin.bit_generator.state, (
                f"trace {index} left the generator elsewhere than one "
                f"random(n) per request would ({numpy_versions()})")
