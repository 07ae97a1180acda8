"""Tests for the batched ACK engine (sender-level ladder API).

The gather-level parity matrix lives in
``tests/core/test_gather_batch_parity.py``; this module exercises the
:meth:`TcpSender.on_ack_ladder` API directly: equivalence with a per-entry
:meth:`TcpSender.on_ack_packet` loop (the scalar per-ACK engine), fallback
behaviour, the ``REPRO_ACK_BATCH`` knob, the send-bookkeeping pruning, and
the batched RTO estimator.
"""

import math
from collections import Counter

import pytest

from repro.tcp.base import AckContext, CongestionAvoidance
from repro.tcp.connection import (
    ACK_BATCH_ENV,
    SenderConfig,
    TcpSender,
    ack_batch_enabled,
)
from repro.tcp.packet import block_packet_count, in_sequence
from repro.tcp.registry import ALL_ALGORITHM_NAMES, create_algorithm
from repro.tcp.rto import RtoEstimator
from repro.tcp.algorithms import Reno
from tests.conftest import QUIRK_CONFIGS, expand, expand_runs


def make_sender(algorithm="reno", data_bytes=10_000_000, **config_kwargs):
    config_kwargs.setdefault("mss", 100)
    config_kwargs.setdefault("initial_window", 2)
    sender = TcpSender(create_algorithm(algorithm)
                      if isinstance(algorithm, str) else algorithm,
                      SenderConfig(**config_kwargs))
    sender.enqueue_bytes(data_bytes)
    return sender


def ack_values(blocks):
    """One packet-cumulative ACK per emitted packet (its index + 1)."""
    return [segment.packet_index + 1 for segment in expand(blocks)]


def ladder(values):
    """Compress packet-cumulative ACK values into ``(first, count, step)`` runs.

    Greedy: a one-entry run takes its step from the next value, a longer
    run extends while the values continue its progression.
    """
    runs = []
    for value in values:
        if runs:
            first, count, step = runs[-1]
            if count == 1 and value >= first:
                runs[-1] = (first, 2, value - first)
                continue
            if value == first + count * step:
                runs[-1] = (first, count + 1, step)
                continue
        runs.append((value, 1, 1))
    return runs


def acknowledge(sender, values, now, use_ladder):
    """Feed ``values`` as one ladder, or one ``on_ack_packet`` call each."""
    if use_ladder:
        return sender.on_ack_ladder(ladder(values), now)
    blocks = []
    for value in values:
        blocks.extend(sender.on_ack_packet(value, now))
    return blocks


def per_ack_values(sender):
    """Record every ACK value the sender's scalar per-ACK engine receives.

    Returns the list the values are appended to, in call order.
    """
    values = []
    scalar = sender.on_ack_packet

    def recording(ack_packets, now, **kwargs):
        values.append(ack_packets)
        return scalar(ack_packets, now, **kwargs)

    sender.on_ack_packet = recording
    return values


def thin(values, every):
    """Every ``every``-th ACK value plus the last, like a thinning middlebox."""
    kept = values[every - 1::every]
    if len(values) % every:
        kept.append(values[-1])
    return kept


def probe_rounds(sender, rounds=30, rtt=1.0, use_ladder=True, w_timeout=256,
                 thin_every=1, parts=1):
    """Drive a sender through an emulated CAAI probe (timeout included).

    ``thin_every > 1`` passes only every ``thin_every``-th ACK of a round
    (plus its last), so each surviving ACK covers several packets. As in
    the trace gatherer, the receiver holds every packet sent, so the
    retransmission after the timeout is acknowledged at the highest one.
    ``parts > 1`` feeds each round's ACKs as that many consecutive ladders.
    Yields ``(window, now)`` after the timeout and after each part: the
    packets the round carried and the clock.
    """
    now = 0.0
    blocks = sender.start(now)
    timed_out = False
    for _ in range(rounds):
        window = block_packet_count(blocks)
        now += rtt
        if not timed_out and window > w_timeout:
            deadline = sender.next_timer_deadline()
            assert deadline is not None
            now = max(now, deadline)
            blocks = sender.on_timer(now)
            timed_out = True
            yield window, now
            continue
        values = thin(ack_values(blocks), thin_every)
        if any(block.is_retransmission for block in blocks):
            values = [sender.snd_nxt]
        size = max(-(-len(values) // parts), 1)
        blocks = []
        for start in range(0, max(len(values), 1), size):
            blocks.extend(acknowledge(sender, values[start:start + size], now,
                                      use_ladder))
            yield window, now
        if not blocks:
            break


def drive_probe(sender, **kwargs):
    """Run :func:`probe_rounds` to the end.

    Returns the per-round packet counts -- a window trace equivalent that
    captures every observable transmission decision -- and the final clock.
    """
    windows, now = [], 0.0
    for window, now in probe_rounds(sender, **kwargs):
        windows.append(window)
    return windows, now


def assert_senders_identical(batch, scalar):
    assert batch.snapshot() == scalar.snapshot()
    assert batch.state == scalar.state
    assert batch.rto.srtt == scalar.rto.srtt
    assert batch.rto.rttvar == scalar.rto.rttvar
    assert batch._send_spans == scalar._send_spans
    assert batch._retransmitted == scalar._retransmitted


class TestRunApiEquivalence:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
    def test_run_equals_scalar_loop(self, algorithm):
        batch = make_sender(algorithm)
        scalar = make_sender(algorithm)
        windows_batch, _ = drive_probe(batch, use_ladder=True)
        windows_scalar, _ = drive_probe(scalar, use_ladder=False)
        assert windows_batch == windows_scalar
        assert batch.snapshot() == scalar.snapshot()
        assert batch.state.cwnd == scalar.state.cwnd
        assert batch.rto.srtt == scalar.rto.srtt
        assert batch.rto.rttvar == scalar.rto.rttvar

    def test_fast_path_engages_on_clean_runs(self):
        sender = make_sender("reno")
        drive_probe(sender)
        assert sender.batch_runs > 0

    def test_duplicate_values_fall_back(self):
        sender = make_sender("reno")
        acks = ack_values(sender.start(0.0))
        per_ack = per_ack_values(sender)
        # Repeating the last value makes the run non-monotone: the sender
        # must fall back and treat every repeat as a duplicate ACK.
        sender.on_ack_ladder(ladder(acks + [acks[-1]] * 4), 1.0)
        assert per_ack == [acks[-1]] * 4
        assert sender._dupack_count == 4

    def test_mixed_transmission_times_split_at_the_boundary(self):
        def drive(use_ladder):
            sender = make_sender("reno", initial_window=8)
            acks = ack_values(sender.start(0.0))
            # Acknowledge the first round in two halves at different times,
            # so the next round's packets carry two transmission times.
            first = acknowledge(sender, acks[:4], 1.0, use_ladder=False)
            second = acknowledge(sender, acks[4:], 2.0, use_ladder=False)
            combined = ack_values(first) + ack_values(second)
            assert ladder(combined) == [(9, 16, 1)]
            out = acknowledge(sender, combined, 3.0, use_ladder)
            return sender, out

        batch_sender, batch_out = drive(True)
        scalar_sender, scalar_out = drive(False)
        # Each uniform-time half of the round batches on its own, sampling
        # its own RTT, exactly like the scalar engine.
        assert batch_sender.batch_runs == 2
        assert expand(batch_out) == expand(scalar_out)
        assert batch_sender.snapshot() == scalar_sender.snapshot()
        assert batch_sender.state.min_rtt == 1.0

    def test_moderation_and_stall_fall_back(self):
        sender = make_sender("reno", use_cwnd_moderation=True)
        drive_probe(sender, rounds=6)
        assert sender.batch_runs == 0

        # A stalled server batches until its timeout and never after it.
        sender = make_sender("reno", post_timeout_stall=True, initial_window=20)
        sender.on_ack_ladder(ladder(ack_values(sender.start(0.0))), 1.0)
        assert sender.batch_runs == 1
        deadline = sender.next_timer_deadline()
        assert sender.on_timer(deadline)
        # The packets outstanding at the timeout are acknowledged one by one.
        una = sender.snd_una
        sender.on_ack_ladder([(una + 1, 10, 1)], deadline + 1.0)
        assert sender.snd_una == una + 10
        assert sender.batch_runs == 1


def value_attributes(algorithm):
    """The algorithm's attributes that compare by value (numbers, flags,
    sample lists); a held object such as ``learned``'s policy compares by
    identity, so it is left out."""
    return {name: value for name, value in vars(algorithm).items()
            if value is None or isinstance(value, (int, float, str, list))}


class TestQuirkRuns:
    """Freeze and ceiling servers take the batched engine, bit-identically."""

    @pytest.mark.parametrize("thin_every", [1, 3], ids=["per-packet", "every-3rd"])
    @pytest.mark.parametrize("quirk", QUIRK_CONFIGS, ids=[q[0] for q in QUIRK_CONFIGS])
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
    def test_rounds_equal_scalar_loop(self, algorithm, quirk, thin_every):
        _, sender_kwargs = quirk
        batch = make_sender(algorithm, **sender_kwargs)
        scalar = make_sender(algorithm, **sender_kwargs)
        drive = dict(rounds=40, w_timeout=64, thin_every=thin_every, parts=2)
        rounds = zip(probe_rounds(batch, **drive),
                     probe_rounds(scalar, use_ladder=False, **drive))
        for batch_round, scalar_round in rounds:
            assert batch_round == scalar_round
            assert_senders_identical(batch, scalar)
            assert value_attributes(batch.algorithm) == value_attributes(scalar.algorithm)
        # Without a ceiling, Hybla's slow start sends all the data in its
        # second round, which leaves no run to batch.
        drains = algorithm == "hybla" and "approach_ceiling" not in sender_kwargs
        if (thin_every == 1 or batch._batch_decoupled) and not drains:
            assert batch.batch_runs > 0


class TestStretchAckRuns:
    """``step > 1`` runs: every ACK covers ``step`` packets (thinned streams)."""

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
    def test_step_four_run_equals_scalar_loop(self, algorithm):
        batch = make_sender(algorithm)
        scalar = make_sender(algorithm)
        windows_batch, _ = drive_probe(batch, rounds=40, w_timeout=64,
                                       thin_every=4)
        windows_scalar, _ = drive_probe(scalar, rounds=40, w_timeout=64,
                                        thin_every=4, use_ladder=False)
        assert windows_batch == windows_scalar
        assert batch.timeouts
        assert_senders_identical(batch, scalar)
        # Hybla's slow start passes w_timeout before a thinned round carries
        # four ACKs, so it has nothing to batch.
        if batch._batch_decoupled and algorithm != "hybla":
            assert batch.batch_runs > 0

    def test_thinned_rounds_are_single_step_runs(self):
        sender = make_sender("reno", initial_window=20)
        values = thin(ack_values(sender.start(0.0)), 4)
        assert ladder(values) == [(4, 5, 4)]
        sender.on_ack_ladder(ladder(values), 1.0)
        assert sender.batch_runs == 1
        assert sender.snd_una == 20

    def test_stride_run_splits_at_the_send_time_boundary(self):
        def drive(use_ladder):
            sender = make_sender("reno", initial_window=8)
            acks = ack_values(sender.start(0.0))
            # Packets 8..15 go out at 1.0 and 16..23 at 2.0.
            first = acknowledge(sender, acks[:4], 1.0, use_ladder=False)
            second = acknowledge(sender, acks[4:], 2.0, use_ladder=False)
            thinned = thin(ack_values(first) + ack_values(second), 2)
            assert ladder(thinned) == [(10, 8, 2)]
            out = acknowledge(sender, thinned, 3.0, use_ladder)
            return sender, expand(out)

        batch, batch_out = drive(True)
        scalar, scalar_out = drive(False)
        # The ACKs sampling packets 9..15 and those sampling 17..23 batch
        # separately, each with its own RTT.
        assert batch.batch_runs == 2
        assert batch_out == scalar_out
        assert_senders_identical(batch, scalar)
        assert batch.state.min_rtt == 1.0

    def test_run_jumping_past_the_round_end(self):
        def drive(use_ladder):
            sender = make_sender("reno", initial_window=20)
            acks = ack_values(sender.start(0.0))
            # The first round loses its last ten ACKs, so it closes at the
            # first ACK of the next ladder and the round end (52) lands
            # inside the burst that ladder releases (packets 40..89, one
            # send time).
            burst = acknowledge(sender, acks[:10], 1.0, use_ladder=False)
            burst = acknowledge(sender, ack_values(burst), 2.0, use_ladder=False)
            assert sender._round_end == 52
            assert sender._send_spans == [[40, 90, 2.0]]
            # Values 42, 45, ..., 87 step over 52: the fast path stops at 51,
            # the jump to 54 closes the round on the scalar engine, and the
            # rest batches again.
            out = acknowledge(sender, list(range(42, 90, 3)), 3.0, use_ladder)
            return sender, expand(out)

        batch, batch_out = drive(True)
        scalar, scalar_out = drive(False)
        assert batch.batch_runs == 2
        assert batch_out == scalar_out
        assert_senders_identical(batch, scalar)

    @pytest.mark.parametrize("marked,per_ack", [(8, [9]), (7, [])],
                             ids=["sampled", "in-gap"])
    def test_retransmitted_packet_in_a_stride(self, marked, per_ack):
        # The run samples packets 2, 5, 8, ...; a retransmission sent at the
        # original send time does not split the span, so only the Karn
        # screening keeps the fast path away from it: the ACK that samples
        # the retransmitted packet goes per-ACK, and one that only covers it
        # batches.
        senders = []
        for use_ladder in (True, False):
            sender = make_sender("reno", initial_window=20)
            sender.start(0.0)
            sender._retransmit(marked, 0.0)
            values = per_ack_values(sender)
            out = acknowledge(sender, list(range(3, 19, 3)), 1.0, use_ladder)
            senders.append((sender, expand(out), values))
        (batch, batch_out, batch_per_ack), (scalar, scalar_out, _) = senders
        assert batch_per_ack == per_ack
        assert batch_out == scalar_out
        assert_senders_identical(batch, scalar)

    @pytest.mark.parametrize("algorithm", ["westwood", "half"])
    def test_non_decoupled_algorithms_stay_per_ack(self, algorithm):
        class Half(CongestionAvoidance):
            name = "half"
            label = "HALF"

            def on_ack_avoidance(self, state, ctx):
                state.cwnd += 0.5 * ctx.newly_acked_packets / max(state.cwnd, 1.0)

            def ssthresh_after_loss(self, state):
                return state.cwnd * 0.5

        def build(**config_kwargs):
            return make_sender(Half() if algorithm == "half" else algorithm,
                               **config_kwargs)

        batch, scalar = build(), build()
        per_ack = per_ack_values(batch)
        ladders = []
        on_ack_ladder = batch.on_ack_ladder

        def recording_ladder(runs, now):
            del per_ack[:]
            out = on_ack_ladder(runs, now)
            strides = [run for run in runs if run[1] > 1 and run[2] > 1]
            ladders.append((Counter(expand_runs(strides)), Counter(per_ack)))
            return out

        batch.on_ack_ladder = recording_ladder
        windows_batch, _ = drive_probe(batch, rounds=40, w_timeout=64,
                                       thin_every=4)
        windows_scalar, _ = drive_probe(scalar, rounds=40, w_timeout=64,
                                        thin_every=4, use_ladder=False)
        assert not batch._batch_decoupled
        # Every ACK of every stride run reached the per-ACK engine.
        assert any(strides for strides, _ in ladders)
        assert all(strides <= scalar_acks for strides, scalar_acks in ladders)
        assert windows_batch == windows_scalar
        assert_senders_identical(batch, scalar)

        # A stride that starts right at the ACK point: its first ACK covers
        # one packet, every later one two.
        batch, scalar = build(initial_window=20), build(initial_window=20)
        batch.start(0.0)
        scalar.start(0.0)
        per_ack = per_ack_values(batch)
        batch_out = batch.on_ack_ladder([(1, 10, 2)], 1.0)
        scalar_out = acknowledge(scalar, list(range(1, 21, 2)), 1.0,
                                 use_ladder=False)
        assert per_ack == list(range(1, 21, 2))
        assert expand(batch_out) == expand(scalar_out)
        assert_senders_identical(batch, scalar)
        assert vars(batch.algorithm) == vars(scalar.algorithm)

    def test_step_zero_runs_are_duplicates(self):
        rounds = [[(1, 4, 1)], [(4, 3, 0)], [(6, 4, 0), (7, 5, 1)]]
        batch = make_sender("reno", initial_window=4)
        scalar = make_sender("reno", initial_window=4)
        batch.start(0.0)
        scalar.start(0.0)
        for now, runs in enumerate(rounds, start=1):
            batch_out = batch.on_ack_ladder(runs, float(now))
            scalar_out = acknowledge(scalar, expand_runs(runs), float(now),
                                     use_ladder=False)
            assert expand(batch_out) == expand(scalar_out)
            assert_senders_identical(batch, scalar)
            if now == 2:
                # Three repeats of the cumulative point: a fast retransmit.
                assert [block.start_index for block in batch_out
                        if block.is_retransmission] == [4]
        # Only the clean first round batched: repeats never do, and the
        # recovery the fast retransmit opened keeps the last run scalar.
        assert batch.batch_runs == 1


class TestCustomSubclassSafety:
    def test_inherited_batch_override_is_rejected(self):
        class EagerReno(Reno):
            """Overrides the scalar hook but inherits RENO's batch override."""

            name = "eager-reno"

            def on_ack_avoidance(self, state, ctx):
                state.cwnd += 2.0 / max(state.cwnd, 1.0)

        batch = make_sender(EagerReno())
        scalar = make_sender(EagerReno())
        windows_batch, _ = drive_probe(batch, use_ladder=True)
        windows_scalar, _ = drive_probe(scalar, use_ladder=False)
        assert windows_batch == windows_scalar
        assert batch.snapshot() == scalar.snapshot()

    def test_slow_start_override_demotes_decoupling(self):
        class ByteCountingReno(Reno):
            """Overrides slow start to read ``newly_acked_packets``, which the
            inherited ``batch_decoupled`` flag asserts growth never does."""

            name = "abc-reno"

            def on_ack_slow_start(self, state, ctx):
                state.cwnd += float(ctx.newly_acked_packets)

        assert not TcpSender(ByteCountingReno())._batch_decoupled

        def drive(use_ladder):
            sender = make_sender(ByteCountingReno())
            now, blocks = 0.0, sender.start(0.0)
            windows = []
            for _ in range(10):
                windows.append(block_packet_count(blocks))
                now += 1.0
                # Drop one ACK per round so cumulative advances jump by two
                # packets somewhere in the run.
                acks = ack_values(blocks)
                if len(acks) > 6:
                    del acks[3]
                blocks = acknowledge(sender, acks, now, use_ladder)
            return windows, sender

        windows_batch, batch_sender = drive(True)
        windows_scalar, scalar_sender = drive(False)
        assert windows_batch == windows_scalar
        assert batch_sender.snapshot() == scalar_sender.snapshot()

    def test_plain_custom_algorithm_uses_loop_fallback(self):
        class Half(CongestionAvoidance):
            name = "half"
            label = "HALF"

            def on_ack_avoidance(self, state, ctx):
                state.cwnd += 0.5 / max(state.cwnd, 1.0)

            def ssthresh_after_loss(self, state):
                return state.cwnd * 0.5

        batch = make_sender(Half())
        scalar = make_sender(Half())
        windows_batch, _ = drive_probe(batch, use_ladder=True)
        windows_scalar, _ = drive_probe(scalar, use_ladder=False)
        assert windows_batch == windows_scalar
        assert batch.snapshot() == scalar.snapshot()


class TestBatchKnob:
    def test_knob_disables_fast_path(self, monkeypatch):
        monkeypatch.setenv(ACK_BATCH_ENV, "0")
        assert not ack_batch_enabled()
        sender = make_sender("reno")
        assert not sender._batch_enabled
        windows, _ = drive_probe(sender)
        assert sender.batch_runs == 0
        monkeypatch.setenv(ACK_BATCH_ENV, "1")
        assert ack_batch_enabled()
        batch = make_sender("reno")
        windows_batch, _ = drive_probe(batch)
        assert batch.batch_runs > 0
        assert windows_batch == windows

    def test_knob_default_is_enabled(self, monkeypatch):
        monkeypatch.delenv(ACK_BATCH_ENV, raising=False)
        assert ack_batch_enabled()


class TestSendBookkeepingPruning:
    @pytest.mark.parametrize("use_ladder", [True, False])
    def test_send_spans_stay_bounded(self, use_ladder):
        sender = make_sender("cubic-b")
        drive_probe(sender, rounds=30, use_ladder=use_ladder)
        in_flight = sender.snd_nxt - sender.snd_una
        spans = sender._send_spans
        assert sum(stop - start for start, stop, _ in spans) <= in_flight + 1
        assert all(start >= sender.snd_una for start, _, _ in spans)

    def test_retransmission_marker_pruned_after_advance(self):
        sender = make_sender("reno")
        windows, now = drive_probe(sender, rounds=12, w_timeout=64)
        # The probe took a timeout, so a retransmission was sent; acknowledge
        # it and confirm the Karn marker is eventually pruned.
        assert sender.timeouts
        retransmission = sender.on_timer(max(now, sender.next_timer_deadline() or now))
        for _ in range(40):
            if not retransmission:
                break
            now += 1.0
            acks = sorted(set(ack_values(retransmission)))
            retransmission = sender.on_ack_ladder(ladder(acks), now)
        assert all(index >= sender.snd_una for index in sender._retransmitted)

    def test_karn_rule_still_discards_retransmitted_samples(self):
        sender = make_sender("reno")
        blocks = sender.start(0.0)
        sender.on_ack_packet(blocks[0].start_index + 1, 1.0)   # arms the RTO timer
        deadline = sender.next_timer_deadline()
        assert deadline is not None
        blocks = sender.on_timer(deadline)
        assert blocks and blocks[0].is_retransmission
        srtt_before = sender.rto.srtt
        sender.on_ack_packet(blocks[0].stop_index, deadline + 1.0)
        # The sample from the retransmitted packet must not feed the RTO.
        assert sender.rto.srtt == srtt_before


class TestObserveRun:
    def test_matches_sequential_observe(self):
        for count in (1, 2, 7, 64):
            run = RtoEstimator()
            loop = RtoEstimator()
            run.observe(0.8)
            loop.observe(0.8)
            run.observe_run(1.0, count)
            for _ in range(count):
                loop.observe(1.0)
            assert run.srtt == loop.srtt
            assert run.rttvar == loop.rttvar
            assert run.current_rto() == loop.current_rto()

    def test_first_sample_initialisation(self):
        run = RtoEstimator()
        run.observe_run(0.5, 3)
        loop = RtoEstimator()
        for _ in range(3):
            loop.observe(0.5)
        assert run.srtt == loop.srtt and run.rttvar == loop.rttvar

    def test_rejects_non_positive_samples(self):
        with pytest.raises(ValueError):
            RtoEstimator().observe_run(0.0, 2)

    def test_zero_count_is_noop(self):
        estimator = RtoEstimator()
        estimator.observe_run(1.0, 0)
        assert estimator.srtt is None


class TestInSequence:
    def test_ordered_input_is_returned_unchanged(self):
        sender = make_sender("reno", initial_window=4)
        segments = expand(sender.start(0.0))
        assert in_sequence(segments) is segments

    def test_unordered_input_is_sorted_stably(self):
        sender = make_sender("reno", initial_window=4)
        segments = expand(sender.start(0.0))
        shuffled = [segments[2], segments[0], segments[3], segments[1]]
        ordered = in_sequence(shuffled)
        assert [seg.end_seq for seg in ordered] == sorted(
            seg.end_seq for seg in shuffled)

    def test_empty_and_single(self):
        assert in_sequence([]) == []
        sender = make_sender("reno", initial_window=1)
        seg = expand(sender.start(0.0))
        assert in_sequence(seg) is seg
