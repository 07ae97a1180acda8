"""Tests for the trace-driven link replaying time-varying conditions."""

import numpy as np
import pytest

from repro.net.simulator import EventSimulator
from repro.scenarios import LinkTrace, TraceDrivenLink, TraceEntry


def trace(*rows):
    return LinkTrace(name="t", entries=tuple(
        TraceEntry(time=t, bandwidth_mbps=bw, delay_ms=d, loss=l)
        for t, bw, d, l in rows))


def make_link(trace, simulator=None, **kwargs):
    return TraceDrivenLink(simulator=simulator or EventSimulator(),
                           delay=0.0, trace=trace,
                           rng=np.random.default_rng(7), **kwargs)


class TestConstruction:
    def test_trace_required(self):
        with pytest.raises(ValueError, match="requires a trace"):
            TraceDrivenLink(simulator=EventSimulator(), delay=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            make_link(trace((0.0, 1.0, 10.0, 0.0)), mode="bounce")

    def test_negative_packet_bytes_rejected(self):
        with pytest.raises(ValueError, match="packet_bytes"):
            make_link(trace((0.0, 1.0, 10.0, 0.0)), packet_bytes=-1)


class TestReplay:
    def test_delay_follows_trace(self):
        simulator = EventSimulator()
        link = make_link(trace((0.0, 1.0, 10.0, 0.0),
                               (1.0, 1.0, 100.0, 0.0)),
                         simulator=simulator, packet_bytes=0)
        arrivals = []
        link.send("a", lambda payload: arrivals.append(simulator.now))
        simulator.run_until_idle()
        assert arrivals[0] == pytest.approx(0.010)

        simulator.schedule_at(2.0, lambda: link.send(
            "b", lambda payload: arrivals.append(simulator.now)))
        simulator.run_until_idle()
        assert arrivals[1] == pytest.approx(2.0 + 0.100)
        assert link.lookups == 2

    def test_bandwidth_adds_serialisation_delay(self):
        simulator = EventSimulator()
        # 1 Mbps, 1250-byte packets -> 10 ms serialisation on 5 ms delay.
        link = make_link(trace((0.0, 1.0, 5.0, 0.0)), simulator=simulator,
                         packet_bytes=1250)
        arrivals = []
        link.send("a", lambda payload: arrivals.append(simulator.now))
        simulator.run_until_idle()
        assert arrivals[0] == pytest.approx(0.005 + 0.010)

    def test_loss_follows_trace(self):
        simulator = EventSimulator()
        link = make_link(trace((0.0, 1.0, 1.0, 0.9)), simulator=simulator,
                         packet_bytes=0)
        for i in range(300):
            link.send(i, lambda payload: None)
        simulator.run_until_idle()
        assert 0.8 < link.stats.dropped / link.stats.offered < 0.97

    def test_rng_consumption_matches_parent(self):
        # One loss draw + one duplication draw per delivered packet, exactly
        # like NetemLink: replaying a trace must not add or remove draws.
        from repro.net.link import NetemLink

        def consumed(link_factory):
            simulator = EventSimulator()
            rng = np.random.default_rng(11)
            link = link_factory(simulator, rng)
            for i in range(50):
                link.send(i, lambda payload: None)
            simulator.run_until_idle()
            return rng.bit_generator.state

        static = consumed(lambda simulator, rng: NetemLink(
            simulator=simulator, delay=0.01, loss_probability=0.02, rng=rng))
        traced = consumed(lambda simulator, rng: TraceDrivenLink(
            simulator=simulator, delay=0.0,
            trace=trace((0.0, 5.0, 10.0, 0.02)), rng=rng))
        assert static == traced

    def test_hold_and_wrap_modes_diverge_past_horizon(self):
        rows = ((0.0, 1.0, 10.0, 0.0), (10.0, 1.0, 200.0, 0.0))
        results = {}
        for mode in ("hold", "wrap"):
            simulator = EventSimulator()
            link = make_link(trace(*rows), simulator=simulator, mode=mode,
                             packet_bytes=0)
            arrivals = []
            simulator.schedule_at(15.0, lambda link=link: link.send(
                "x", lambda payload: arrivals.append(simulator.now)))
            simulator.run_until_idle()
            results[mode] = arrivals[0] - 15.0
        assert results["hold"] == pytest.approx(0.200)  # pinned last entry
        assert results["wrap"] == pytest.approx(0.010)  # 15 % 10 = 5 -> first
