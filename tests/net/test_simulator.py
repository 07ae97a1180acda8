"""Tests for the discrete-event simulator."""

import pytest

from repro.net.simulator import EventSimulator


def pending(simulator):
    """Scheduled events that have neither run nor been cancelled."""
    return sum(not event.cancelled for event in simulator._queue)


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = EventSimulator()
        order = []
        simulator.schedule(2.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.schedule(1.5, lambda: order.append("middle"))
        simulator.run_until_idle()
        assert order == ["early", "middle", "late"]

    def test_ties_run_in_scheduling_order(self):
        simulator = EventSimulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run_until_idle()
        assert order == ["first", "second"]

    def test_now_advances_to_event_time(self):
        simulator = EventSimulator()
        seen = []
        simulator.schedule(3.5, lambda: seen.append(simulator.now))
        simulator.run_until_idle()
        assert seen == [pytest.approx(3.5)]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventSimulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        simulator = EventSimulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run_until_idle()
        seen = []
        simulator.schedule_at(0.5, lambda: seen.append(simulator.now))  # in the past
        simulator.run_until_idle()
        assert seen and seen[0] >= 1.0

    def test_events_scheduled_during_events(self):
        simulator = EventSimulator()
        order = []

        def first():
            order.append("first")
            simulator.schedule(1.0, lambda: order.append("nested"))

        simulator.schedule(1.0, first)
        simulator.schedule(5.0, lambda: order.append("last"))
        simulator.run_until_idle()
        assert order == ["first", "nested", "last"]


class TestControl:
    def test_cancellation(self):
        simulator = EventSimulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        simulator.run_until_idle()
        assert not fired
        assert handle.cancelled

    def test_run_until_limit(self):
        simulator = EventSimulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(10.0, lambda: fired.append(2))
        simulator.run(until=5.0)
        assert fired == [1]

    def test_max_events_guard(self):
        simulator = EventSimulator()

        def reschedule():
            simulator.schedule(0.1, reschedule)

        simulator.schedule(0.1, reschedule)
        with pytest.raises(RuntimeError):
            simulator.run_until_idle(max_events=100)

    def test_pending_and_processed_counters(self):
        simulator = EventSimulator()
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert pending(simulator) == 2
        simulator.run_until_idle()
        assert simulator.events_processed == 2

    def test_pending_count_tracks_cancellation(self):
        simulator = EventSimulator()
        handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert pending(simulator) == 5
        handles[0].cancel()
        handles[3].cancel()
        assert pending(simulator) == 3
        # Double-cancel must not double-count.
        handles[0].cancel()
        assert pending(simulator) == 3
        simulator.run_until_idle()
        assert pending(simulator) == 0
        assert simulator.events_processed == 3

    def test_cancelled_top_event_dropped_eagerly(self):
        simulator = EventSimulator()
        head = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        head.cancel()
        # The cancelled event sat at the heap top, so it is gone immediately.
        assert len(simulator._queue) == 1
        assert pending(simulator) == 1

    def test_cancel_after_fire_does_not_corrupt_pending_count(self):
        simulator = EventSimulator()
        fired = simulator.schedule(1.0, lambda: None)
        simulator.schedule(10.0, lambda: None)
        simulator.run(until=5.0)
        fired.cancel()  # already ran; must be a no-op
        assert pending(simulator) == 1

    def test_run_until_float_inf_does_not_advance_clock(self):
        simulator = EventSimulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run(until=float("inf"))
        assert simulator.now == 1.0

    def test_pending_count_with_cancel_during_event(self):
        simulator = EventSimulator()
        fired = []
        late = simulator.schedule(5.0, lambda: fired.append("late"))

        def first():
            fired.append("first")
            late.cancel()

        simulator.schedule(1.0, first)
        simulator.run_until_idle()
        assert fired == ["first"]
        assert pending(simulator) == 0
