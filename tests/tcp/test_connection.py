"""Tests for the TCP sender state machine.

The sender emits :class:`~repro.tcp.packet.SegmentBlock` records; these
tests expand them into per-packet segments and acknowledge each packet
through the byte-sequence :meth:`TcpSender.on_ack` API, as the packet-level
prober does.
"""

import math

import numpy as np
import pytest

from repro.tcp.connection import SenderConfig, TcpSender
from repro.tcp.registry import create_algorithm
from tests.conftest import expand


def make_sender(algorithm="reno", data_bytes=10_000_000, **config_kwargs):
    config_kwargs.setdefault("mss", 100)
    config_kwargs.setdefault("initial_window", 2)
    sender = TcpSender(create_algorithm(algorithm), SenderConfig(**config_kwargs))
    sender.enqueue_bytes(data_bytes)
    return sender


def drive_rounds(sender, rounds, rtt=1.0, start=0.0):
    """Acknowledge every packet once per emulated round; returns window sizes."""
    now = start
    segments = expand(sender.start(now))
    windows = []
    for _ in range(rounds):
        windows.append(len(segments))
        now += rtt
        next_segments = []
        for segment in segments:
            next_segments.extend(expand(sender.on_ack(segment.end_seq, now)))
        segments = next_segments
        if not segments:
            break
    return windows, segments, now


class TestStartAndSlowStart:
    def test_initial_window_respected(self):
        for initial in (1, 2, 3, 4, 10):
            sender = make_sender(initial_window=initial)
            assert len(expand(sender.start(0.0))) == initial

    def test_start_is_idempotent(self):
        sender = make_sender()
        sender.start(0.0)
        assert sender.start(0.0) == []

    def test_slow_start_doubles_every_round(self):
        sender = make_sender()
        windows, _, _ = drive_rounds(sender, rounds=6)
        assert windows == [2, 4, 8, 16, 32, 64]

    def test_slow_start_stops_at_ssthresh(self):
        sender = make_sender(initial_ssthresh=32.0)
        windows, _, _ = drive_rounds(sender, rounds=8)
        assert max(windows) <= 34
        assert windows[4] == pytest.approx(32, abs=1)

    def test_data_limit_respected(self):
        sender = make_sender(data_bytes=1000)   # 10 packets of 100 bytes
        windows, segments, _ = drive_rounds(sender, rounds=6)
        assert sum(windows) == 10
        assert not segments

    def test_sequence_numbers_are_contiguous_mss_units(self):
        sender = make_sender()
        segments = expand(sender.start(0.0))
        assert [segment.seq for segment in segments] == [0, 100]
        assert all(segment.length == 100 for segment in segments)


class TestRttTracking:
    def test_rtt_samples_update_state(self):
        sender = make_sender()
        drive_rounds(sender, rounds=4, rtt=0.8)
        assert sender.state.min_rtt == pytest.approx(0.8)
        assert sender.state.srtt == pytest.approx(0.8, abs=0.05)

    def test_min_and_max_rtt(self):
        sender = make_sender()
        now = 0.0
        segments = expand(sender.start(now))
        for rtt in (0.8, 0.8, 1.0, 1.0):
            now += rtt
            next_segments = []
            for segment in segments:
                next_segments.extend(expand(sender.on_ack(segment.end_seq, now)))
            segments = next_segments
        assert sender.state.min_rtt == pytest.approx(0.8)
        assert sender.state.max_rtt == pytest.approx(1.0)


class TestTimeout:
    def _force_timeout(self, sender, rounds=10):
        windows, segments, now = drive_rounds(sender, rounds=rounds)
        deadline = sender.next_timer_deadline()
        assert deadline is not None
        now = max(now, deadline)
        retransmissions = expand(sender.on_timer(now))
        return windows, retransmissions, now

    def test_timeout_collapses_window_and_sets_ssthresh(self):
        sender = make_sender()
        windows, retransmissions, _ = self._force_timeout(sender)
        assert sender.state.cwnd == 1.0
        assert sender.state.ssthresh == pytest.approx(windows[-1] * 2 * 0.5, rel=0.1)
        assert len(retransmissions) == 1
        assert retransmissions[0].is_retransmission

    def test_timer_not_fired_before_deadline(self):
        sender = make_sender()
        drive_rounds(sender, rounds=3)
        assert sender.on_timer(0.5) == []

    def test_timeouts_are_recorded(self):
        sender = make_sender()
        self._force_timeout(sender)
        assert len(sender.timeouts) == 1
        assert sender.timeouts[0].cwnd_before > sender.timeouts[0].ssthresh_after

    def test_quirk_server_ignores_timeout(self):
        sender = make_sender(responds_to_timeout=False)
        windows, retransmissions, _ = self._force_timeout(sender)
        assert retransmissions == []
        assert sender.state.cwnd > 1.0

    def test_post_timeout_slow_start_restarts(self):
        sender = make_sender()
        _, retransmissions, now = self._force_timeout(sender)
        highest = sender.snd_nxt * 100
        now += 1.0
        segments = expand(sender.on_ack(highest, now))
        assert sender.state.cwnd == pytest.approx(2.0)
        assert len(segments) == 2

    def test_post_timeout_stall_quirk(self):
        sender = make_sender(post_timeout_stall=True)
        _, _, now = self._force_timeout(sender)
        highest = sender.snd_nxt * 100
        for _ in range(5):
            now += 1.0
            segments = sender.on_ack(highest, now)
            if segments:
                highest = max(seg.end_seq for seg in segments)
        assert sender.state.cwnd == 1.0


class TestFastRecovery:
    def test_three_duplicate_acks_trigger_fast_retransmit(self):
        sender = make_sender()
        now = 1.0
        segments = expand(sender.start(0.0))
        sender.on_ack(segments[0].end_seq, now)
        retransmissions = []
        for _ in range(3):
            retransmissions = sender.on_ack(segments[0].end_seq, now, is_duplicate=True)
        assert any(segment.is_retransmission for segment in retransmissions)
        assert sender.state.cwnd < 4

    def test_window_not_collapsed_to_one_on_loss_event(self):
        sender = make_sender()
        drive_rounds(sender, rounds=6)
        cwnd_before = sender.state.cwnd
        for _ in range(3):
            sender.on_ack(sender.snd_una * 100, 10.0, is_duplicate=True)
        assert sender.state.cwnd >= cwnd_before * 0.4
        assert sender.state.cwnd > 1.0


class TestFrto:
    def _timeout_then_ack(self, use_frto, send_dup_first):
        sender = make_sender(use_frto=use_frto)
        windows, segments, now = drive_rounds(sender, rounds=8)
        deadline = sender.next_timer_deadline()
        now = max(now, deadline)
        sender.on_timer(now)
        highest = sender.snd_nxt * 100
        if send_dup_first:
            sender.on_ack(0, now, is_duplicate=True)
        now += 1.0
        sender.on_ack(highest, now)
        now += 1.0
        sender.on_ack(highest + 200, now)
        return sender

    def test_frto_detects_spurious_timeout(self):
        sender = self._timeout_then_ack(use_frto=True, send_dup_first=False)
        assert sender.spurious_timeouts == 1
        assert sender.state.cwnd > 2.0

    def test_duplicate_ack_forces_conventional_recovery(self):
        # CAAI's countermeasure: one duplicate ACK right after the timeout.
        sender = self._timeout_then_ack(use_frto=True, send_dup_first=True)
        assert sender.spurious_timeouts == 0

    def test_without_frto_no_spurious_detection(self):
        sender = self._timeout_then_ack(use_frto=False, send_dup_first=False)
        assert sender.spurious_timeouts == 0


class TestWindowClamps:
    def test_receive_window_limits_transmission(self):
        sender = make_sender(receive_window_bytes=500)   # 5 packets
        windows, _, _ = drive_rounds(sender, rounds=6)
        assert max(windows) <= 5

    def test_send_buffer_limits_transmission(self):
        sender = make_sender(send_buffer_packets=20)
        windows, _, _ = drive_rounds(sender, rounds=8)
        assert max(windows) <= 20

    def test_freeze_in_avoidance_quirk(self):
        sender = make_sender(freeze_in_avoidance=True, initial_ssthresh=16.0)
        windows, _, _ = drive_rounds(sender, rounds=10)
        assert max(windows) <= 17


class TestApproachCeiling:
    """``approach_ceiling`` is a hard clamp."""

    @pytest.mark.parametrize("band", [0.0, 0.03, 0.05, 1.0])
    def test_cap_is_min_of_window_and_ceiling(self, band):
        # The random windows lie within ``band`` (relative) of the ceiling;
        # a band of 1.0 spans every window from 1 to twice the ceiling.
        rng = np.random.default_rng(16)
        for ceiling in (40.0, 500.0, 1000.0):
            sender = make_sender(approach_ceiling=ceiling)
            low = max(1.0, ceiling * (1.0 - band))
            high = ceiling * (1.0 + band)
            edges = [1.0, ceiling * 0.5, ceiling * 0.5 + 1e-9, ceiling - 1e-9,
                     ceiling, ceiling + 1e-9, 768.0, 2.0 * ceiling, low, high]
            for cwnd in edges + rng.uniform(low, high, 500).tolist():
                sender.state.cwnd = cwnd
                sender._apply_quirk_caps()
                assert sender.state.cwnd == min(cwnd, ceiling)


class TestConfigValidation:
    def test_invalid_mss_rejected(self):
        with pytest.raises(ValueError):
            TcpSender(create_algorithm("reno"), SenderConfig(mss=0))

    def test_negative_enqueue_rejected(self):
        sender = make_sender()
        with pytest.raises(ValueError):
            sender.enqueue_bytes(-1)

    def test_snapshot_contains_core_fields(self):
        sender = make_sender()
        snapshot = sender.snapshot()
        assert {"cwnd", "ssthresh", "snd_una", "snd_nxt"} <= set(snapshot)
