"""Tests for the netem-style link model."""

import numpy as np
import pytest

from repro.net.link import NetemLink
from repro.net.simulator import EventSimulator


def run_link(loss=0.0, jitter=0.0, duplicate=0.0, reorder=0.0, packets=500, delay=0.05):
    simulator = EventSimulator()
    link = NetemLink(simulator=simulator, delay=delay, jitter=jitter,
                     loss_probability=loss, duplicate_probability=duplicate,
                     reorder_probability=reorder,
                     rng=np.random.default_rng(7))
    received = []
    for i in range(packets):
        link.send(i, lambda payload: received.append((simulator.now, payload)))
    simulator.run_until_idle()
    return link, received


class TestDelivery:
    def test_lossless_link_delivers_everything(self):
        link, received = run_link()
        assert len(received) == 500
        assert link.stats.loss_rate() == 0.0

    def test_delay_applied(self):
        _, received = run_link(packets=1, delay=0.25)
        assert received[0][0] == pytest.approx(0.25, abs=1e-6)

    def test_fifo_ordering_preserved_with_jitter(self):
        _, received = run_link(jitter=0.02, packets=200)
        payloads = [payload for _, payload in received]
        assert payloads == sorted(payloads)

    def test_loss_rate_close_to_configured(self):
        link, received = run_link(loss=0.2, packets=3000)
        assert len(received) < 3000
        assert link.stats.loss_rate() == pytest.approx(0.2, abs=0.03)

    def test_duplication(self):
        link, received = run_link(duplicate=0.3, packets=1000)
        assert len(received) > 1000
        assert link.stats.duplicated > 0

    def test_reordering_possible_when_enabled(self):
        _, received = run_link(jitter=0.05, reorder=0.5, packets=300)
        payloads = [payload for _, payload in received]
        assert payloads != sorted(payloads)


class TestValidation:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            NetemLink(simulator=EventSimulator(), delay=0.1, loss_probability=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            NetemLink(simulator=EventSimulator(), delay=-0.1)


class TestScenarioStats:
    def test_offered_counts_scenario_drops(self):
        from repro.net.link import LinkStats

        stats = LinkStats(delivered=5, dropped=1, policer_dropped=1,
                          thinned_acks=1)
        assert stats.offered == 8

    def test_loss_rate_counts_only_random_loss(self):
        from repro.net.link import LinkStats

        stats = LinkStats(delivered=6, dropped=1, policer_dropped=2,
                          thinned_acks=1)
        assert stats.loss_rate() == pytest.approx(0.1)
        assert LinkStats().loss_rate() == 0.0
