"""Tests for the hostile middlebox and evasive-server wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.net.link import LinkStats
from repro.scenarios import (
    EvasionConfig,
    EvasiveSender,
    EvasiveServer,
    MiddleboxConfig,
    MiddleboxSender,
    MiddleboxServer,
    TokenBucketPolicer,
    evasion_rng,
)
from repro.web.crawler import PageSearchTool
from repro.web.population import PopulationConfig, ServerPopulation
from tests.conftest import expand_runs, make_synthetic_server


def probe(server, seed=0, w_timeout=64,
          condition=NetworkCondition(average_rtt=0.2, rtt_std=0.01,
                                     loss_rate=0.01)):
    gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
    rng = np.random.default_rng(seed)
    trace = gatherer.gather_probe(server, condition, rng)
    return trace, rng.bit_generator.state


def assert_traces_identical(a, b):
    for trace_a, trace_b in zip(a.traces(), b.traces()):
        assert trace_a == trace_b


class LadderRecorder:
    """A sender stand-in that records every ladder it is handed."""

    def __init__(self):
        self.ladders = []

    def on_ack_ladder(self, runs, now):
        self.ladders.append((list(runs), now))
        return []


def round_through(server):
    """Feed rounds of per-packet ACKs ``1..count`` through one connection's
    middlebox; each round returns the ACK values the real sender is handed."""
    sender = server.open_connection(mss=100, now=0.0, requested_bytes=10**6)
    recorder = LadderRecorder()
    sender._sender.on_ack_ladder = recorder.on_ack_ladder

    def feed(count, now):
        sender.on_ack_ladder([(1, count, 1)], now)
        return expand_runs(recorder.ladders[-1][0])

    return feed


def keep_mask_model(config, policer, stats, count, now):
    """Per-ACK keep mask of one ``count``-ACK round: the chain as a mask.

    This is the chain as it was written before it worked on ladder runs;
    the run arithmetic must pass the same ACKs and count the same drops.
    """
    every = config.thin_every
    if every > 1:
        keep = np.zeros(count, dtype=bool)
        keep[every - 1::every] = True
        keep[-1] = True  # the round's final ACK always escapes
        passing = -(-count // every)
        stats.thinned_acks += count - passing
    else:
        keep = np.ones(count, dtype=bool)
        passing = count
    if policer is not None:
        admitted = policer.admit(passing, now)
        if admitted < passing:
            stats.policer_dropped += passing - admitted
            survivors = np.flatnonzero(keep)
            keep[survivors[admitted:]] = False
            passing = admitted
    stats.delivered += passing
    return keep


@st.composite
def middlebox_configs(draw):
    kwargs = dict(thin_every=draw(st.integers(min_value=1, max_value=7)),
                  stretch_seconds=draw(st.sampled_from([0.0, 0.05])))
    if draw(st.booleans()):
        kwargs.update(policer_capacity=draw(st.integers(min_value=1, max_value=40)),
                      policer_rate=draw(st.floats(min_value=1.0, max_value=200.0)))
    return MiddleboxConfig(**kwargs)


@st.composite
def ladder_rounds(draw):
    """Rounds of non-decreasing ``(first, count, step)`` ladders, with times."""
    rounds = []
    now = 0.0
    value = draw(st.integers(min_value=0, max_value=20))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        runs = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            count = draw(st.integers(min_value=1, max_value=40))
            step = draw(st.integers(min_value=0, max_value=5))
            value += draw(st.integers(min_value=0, max_value=3))
            runs.append((value, count, step))
            value += (count - 1) * step
        now += draw(st.floats(min_value=0.0, max_value=2.0))
        rounds.append((runs, now))
    return rounds


class TestMiddleboxConfig:
    def test_defaults_are_neutral(self):
        assert MiddleboxConfig().is_neutral()

    def test_each_knob_breaks_neutrality(self):
        assert not MiddleboxConfig(thin_every=2).is_neutral()
        assert not MiddleboxConfig(stretch_seconds=0.1).is_neutral()
        assert not MiddleboxConfig(policer_capacity=10,
                                   policer_rate=5.0).is_neutral()

    def test_validation(self):
        with pytest.raises(ValueError, match="thin_every"):
            MiddleboxConfig(thin_every=0)
        with pytest.raises(ValueError, match="stretch_seconds"):
            MiddleboxConfig(stretch_seconds=-0.1)
        with pytest.raises(ValueError, match="policer_rate"):
            MiddleboxConfig(policer_capacity=10)


class TestTokenBucketPolicer:
    def test_starts_full_and_drops_tail(self):
        policer = TokenBucketPolicer(capacity=10, rate=1.0)
        assert policer.admit(8, now=0.0) == 8
        assert policer.admit(8, now=0.0) == 2  # bucket exhausted

    def test_refills_over_simulated_time(self):
        policer = TokenBucketPolicer(capacity=10, rate=2.0)
        policer.admit(10, now=0.0)
        assert policer.admit(10, now=3.0) == 6  # 3 s * 2 tokens/s
        assert policer.admit(10, now=100.0) == 10  # capped at capacity


class TestMiddleboxSender:
    def test_neutral_chain_is_bit_transparent(self):
        base, state_base = probe(make_synthetic_server("reno"))

        wrapped_server = MiddleboxServer(make_synthetic_server("reno"),
                                         MiddleboxConfig())
        wrapped, state_wrapped = probe(wrapped_server)
        assert state_base == state_wrapped
        assert_traces_identical(base, wrapped)

    def test_thinning_keeps_final_ack(self):
        server = MiddleboxServer(make_synthetic_server("reno"),
                                 MiddleboxConfig(thin_every=4))
        acks = round_through(server)(10, now=0.0)
        assert acks[-1] == 10  # the round's cumulative point always escapes
        assert acks == [4, 8, 10]
        assert server.stats.thinned_acks == 10 - len(acks)

    def test_policer_counts_drops(self):
        server = MiddleboxServer(
            make_synthetic_server("reno"),
            MiddleboxConfig(policer_capacity=4, policer_rate=1.0))
        assert round_through(server)(10, now=0.0) == [1, 2, 3, 4]
        assert server.stats.policer_dropped == 6
        assert server.stats.delivered == 4

    @settings(max_examples=300, deadline=None)
    @given(middlebox_configs(), ladder_rounds())
    def test_run_arithmetic_matches_the_keep_mask_model(self, config, rounds):
        stats, model_stats = LinkStats(), LinkStats()
        recorder = LadderRecorder()
        sender = MiddleboxSender(recorder, config, stats)
        policer = (None if config.policer_capacity is None else
                   TokenBucketPolicer(config.policer_capacity, config.policer_rate))
        for runs, now in rounds:
            sender.on_ack_ladder(runs, now)
            passed, when = recorder.ladders[-1]
            values = expand_runs(runs)
            if values and not config.is_neutral():
                keep = keep_mask_model(config, policer, model_stats,
                                       len(values), now)
                values = [value for value, kept in zip(values, keep) if kept]
            assert expand_runs(passed) == values
            assert when == now + config.stretch_seconds
            assert all(count >= 1 and step >= 0 for _, count, step in passed)
            assert stats == model_stats

    def test_hostile_chain_still_produces_probe(self):
        server = MiddleboxServer(make_synthetic_server("reno"),
                                 MiddleboxConfig(thin_every=4,
                                                 stretch_seconds=0.05))
        trace, _ = probe(server)
        assert server.stats.thinned_acks > 0
        assert trace is not None

    def test_attribute_proxying(self):
        inner = make_synthetic_server("cubic-b")
        server = MiddleboxServer(inner, MiddleboxConfig(thin_every=2))
        assert server.algorithm_name == "cubic-b"
        assert server.accepts_mss(100) == inner.accepts_mss(100)
        assert server.uses_frto() == inner.uses_frto()


class TestEvasionConfig:
    def test_defaults_are_neutral(self):
        assert EvasionConfig().is_neutral()
        # Holdback alone never fires without jitter, so it stays neutral.
        assert EvasionConfig(growth_holdback=0.5).is_neutral()

    def test_validation(self):
        with pytest.raises(ValueError, match="ssthresh_range"):
            EvasionConfig(ssthresh_range=(10.0, 5.0))
        with pytest.raises(ValueError, match="growth_jitter"):
            EvasionConfig(growth_jitter=1.5)
        with pytest.raises(ValueError, match="growth_holdback"):
            EvasionConfig(growth_holdback=1.0)
        with pytest.raises(ValueError, match="timer_delay"):
            EvasionConfig(timer_delay=-1.0)


class TestEvasionRng:
    def test_deterministic_per_connection(self):
        a = evasion_rng(3, "server-000001", 0)
        b = evasion_rng(3, "server-000001", 0)
        assert a.random() == b.random()

    def test_distinct_streams(self):
        draws = {evasion_rng(3, sid, idx).random()
                 for sid in ("server-000001", "server-000002")
                 for idx in (0, 1)}
        assert len(draws) == 4


class TestEvasiveServer:
    def test_neutral_config_returns_inner_sender_unwrapped(self):
        server = EvasiveServer(make_synthetic_server("reno"),
                               EvasionConfig(), pack_seed=0,
                               server_id="s")
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        assert not isinstance(sender, EvasiveSender)
        assert server.connections_wrapped == 0

    def test_neutral_config_is_bit_transparent(self):
        base, state_base = probe(make_synthetic_server("cubic-b"))
        wrapped_server = EvasiveServer(make_synthetic_server("cubic-b"),
                                       EvasionConfig(), pack_seed=0,
                                       server_id="s")
        wrapped, state_wrapped = probe(wrapped_server)
        assert state_base == state_wrapped
        assert_traces_identical(base, wrapped)

    def test_neutral_stack_on_population_servers_is_bit_transparent(self):
        """Both neutral wrappers around real population servers (F-RTO,
        ssthresh caching, an MSS refusal) change no trace and no draw."""

        def servers():
            # Probing mutates server state, so each side gets a fresh copy.
            population = ServerPopulation(PopulationConfig(size=6, seed=424))
            population.generate()
            return [record.server for record in population.records]

        for plain, inner in zip(servers(), servers()):
            longest = PageSearchTool().search(plain.site).best_path
            plain.probe_path = longest
            base, state_base = probe(plain, seed=5)
            stacked = MiddleboxServer(
                EvasiveServer(inner, EvasionConfig(), pack_seed=0,
                              server_id="s"),
                MiddleboxConfig())
            stacked.probe_path = longest  # as the census sets it
            wrapped, state_wrapped = probe(stacked, seed=5)
            assert state_base == state_wrapped
            assert_traces_identical(base, wrapped)

    def test_ssthresh_randomized_within_range(self):
        server = EvasiveServer(
            make_synthetic_server("reno"),
            EvasionConfig(ssthresh_range=(24.0, 48.0)),
            pack_seed=7, server_id="server-000009")
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        assert isinstance(sender, EvasiveSender)
        assert 24.0 <= sender.state.ssthresh <= 48.0
        assert server.connections_wrapped == 1

    def test_timer_delay_shifts_deadline(self):
        server = EvasiveServer(
            make_synthetic_server("reno"),
            EvasionConfig(timer_delay=0.5), pack_seed=0, server_id="s")
        sender = server.open_connection(mss=100, now=0.0,
                                        requested_bytes=10**6)
        inner = sender._sender
        inner._arm_timer(0.0)  # the initial 3-s RTO: a deadline of 3.0
        assert sender.next_timer_deadline() == 3.5
        inner._timer_armed = None
        assert sender.next_timer_deadline() is None

    def test_evasive_probe_differs_but_still_runs(self):
        base, _ = probe(make_synthetic_server("reno"), seed=4)
        server = EvasiveServer(
            make_synthetic_server("reno"),
            EvasionConfig(ssthresh_range=(8.0, 16.0), growth_jitter=0.5),
            pack_seed=3, server_id="server-000001")
        perturbed, _ = probe(server, seed=4)
        assert perturbed is not None
        pairs = zip(base.traces(), perturbed.traces())
        assert any(trace_a != trace_b for trace_a, trace_b in pairs)
