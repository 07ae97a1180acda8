"""Tests for the RFC 6298 retransmission timeout estimator."""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.tcp.rto import RtoEstimator

#: Positive RTT samples (seconds) spanning sub-millisecond to very long paths.
rtt_samples = st.floats(min_value=1e-6, max_value=100.0)


class TestInitialBehaviour:
    def test_initial_rto_used_before_samples(self):
        estimator = RtoEstimator(initial_rto=3.0)
        assert estimator.current_rto() == pytest.approx(3.0)

    def test_initial_rto_is_in_papers_range(self):
        # The paper relies on initial timeouts between 2.5 and 6.0 seconds.
        estimator = RtoEstimator()
        assert 2.5 <= estimator.current_rto() <= 6.0


class TestSampling:
    def test_first_sample_initialises_srtt(self):
        estimator = RtoEstimator()
        estimator.observe(1.0)
        assert estimator.srtt == pytest.approx(1.0)
        assert estimator.rttvar == pytest.approx(0.5)

    def test_constant_samples_converge_to_sample(self):
        estimator = RtoEstimator()
        for _ in range(200):
            estimator.observe(1.0)
        assert estimator.srtt == pytest.approx(1.0, rel=1e-6)
        # With stable samples the RTO floors out at srtt + min_variance_term,
        # comfortably above the RTT but below environment A's next round.
        assert estimator.current_rto() == pytest.approx(1.0 + estimator.min_variance_term,
                                                        abs=0.05)

    def test_rto_exceeds_srtt(self):
        estimator = RtoEstimator()
        for sample in (0.5, 0.6, 0.4, 0.5):
            estimator.observe(sample)
        assert estimator.current_rto() > estimator.srtt

    def test_rto_bounded_by_max(self):
        estimator = RtoEstimator(max_rto=10.0)
        estimator.observe(100.0)
        assert estimator.current_rto() <= 10.0

    def test_rto_bounded_by_min(self):
        estimator = RtoEstimator(min_rto=0.2)
        for _ in range(50):
            estimator.observe(0.001)
        assert estimator.current_rto() >= 0.2

    def test_non_positive_sample_rejected(self):
        estimator = RtoEstimator()
        with pytest.raises(ValueError):
            estimator.observe(0.0)


class TestBackoff:
    def test_backoff_doubles_rto(self):
        estimator = RtoEstimator()
        for _ in range(100):
            estimator.observe(1.0)
        base = estimator.current_rto()
        estimator.back_off()
        assert estimator.current_rto() == pytest.approx(2 * base, rel=0.01)

    def test_backoff_capped_by_max_rto(self):
        estimator = RtoEstimator(max_rto=60.0)
        estimator.observe(1.0)
        for _ in range(100):
            estimator.back_off()
        assert estimator.current_rto() <= 60.0

    def test_huge_backoff_does_not_overflow(self):
        estimator = RtoEstimator()
        estimator.observe(1.0)
        for _ in range(5000):
            estimator.back_off()
        assert estimator.current_rto() <= estimator.max_rto

    def test_new_sample_resets_backoff(self):
        estimator = RtoEstimator()
        estimator.observe(1.0)
        estimator.back_off()
        estimator.observe(1.0)
        assert estimator.backoff_exponent == 0


class TestObserveRunEdgeCases:
    """Edge cases of the batched estimator feed (``observe_run``).

    The contract is bitwise equivalence with calling :meth:`observe` once per
    sample: the batched ACK engine relies on it when it registers a round's
    identical RTT samples in one call.
    """

    @staticmethod
    def assert_bitwise_equal(run, loop):
        assert run.srtt == loop.srtt
        assert run.rttvar == loop.rttvar
        assert run.backoff_exponent == loop.backoff_exponent
        assert run.current_rto() == loop.current_rto()

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_run_is_a_noop(self, count):
        fresh = RtoEstimator()
        fresh.observe_run(1.0, count)
        assert fresh.srtt is None and fresh.rttvar is None

        seeded = RtoEstimator()
        seeded.observe(0.7)
        seeded.back_off()
        srtt, rttvar = seeded.srtt, seeded.rttvar
        seeded.observe_run(1.0, count)
        # Zero samples observed: the smoothed state *and* the pending
        # backoff must survive, exactly as with zero ``observe`` calls.
        assert (seeded.srtt, seeded.rttvar) == (srtt, rttvar)
        assert seeded.backoff_exponent == 1

    def test_single_sample_first_ever(self):
        run, loop = RtoEstimator(), RtoEstimator()
        run.observe_run(0.9, 1)
        loop.observe(0.9)
        self.assert_bitwise_equal(run, loop)

    def test_single_sample_on_seeded_estimator(self):
        run, loop = RtoEstimator(), RtoEstimator()
        for estimator in (run, loop):
            estimator.observe(0.4)
            estimator.observe(0.6)
        run.observe_run(1.1, 1)
        loop.observe(1.1)
        self.assert_bitwise_equal(run, loop)

    def test_single_sample_resets_backoff(self):
        run = RtoEstimator()
        run.observe(1.0)
        run.back_off()
        run.observe_run(1.0, 1)
        assert run.backoff_exponent == 0

    def test_karn_excluded_samples_split_the_run(self):
        # A round of ten equally-timed ACKs where packets 3-4 were
        # retransmitted: Karn's rule drops their samples, so the sender
        # feeds the estimator two sub-runs (3 samples, then 5). That must
        # be bitwise identical to the scalar engine's observe/skip walk.
        sample = 0.85
        excluded = {3, 4}
        run, loop = RtoEstimator(), RtoEstimator()
        for estimator in (run, loop):
            estimator.observe(0.7)  # pre-round state
        for index in range(10):
            if index not in excluded:
                loop.observe(sample)
        run.observe_run(sample, 3)
        run.observe_run(sample, 10 - 3 - len(excluded))
        self.assert_bitwise_equal(run, loop)

    def test_karn_exclusion_at_run_edges(self):
        # Exclusions at the head and tail leave a single interior sub-run.
        sample = 1.2
        run, loop = RtoEstimator(), RtoEstimator()
        for index in range(8):
            if index in (0, 7):
                continue  # Karn-excluded
            loop.observe(sample)
        run.observe_run(sample, 6)
        self.assert_bitwise_equal(run, loop)

    @settings(max_examples=150, deadline=None)
    @given(prior=st.lists(rtt_samples, max_size=6),
           backoffs=st.integers(min_value=0, max_value=3),
           rtt=rtt_samples,
           count=st.integers(min_value=0, max_value=4000))
    # After a 2.0 s sample, a 1.0 s one leaves rttvar at 1.0 while srtt
    # moves on: the run must not stop on rttvar alone.
    @example(prior=[2.0], backoffs=0, rtt=1.0, count=50)
    def test_run_equals_repeated_observe(self, prior, backoffs, rtt, count):
        # Long runs reach the fixed point where a step no longer changes
        # srtt or rttvar; the run stops there and must still end where
        # ``count`` single observations end.
        run, loop = RtoEstimator(), RtoEstimator()
        for estimator in (run, loop):
            for sample in prior:
                estimator.observe(sample)
            for _ in range(backoffs):
                estimator.back_off()
        run.observe_run(rtt, count)
        for _ in range(count):
            loop.observe(rtt)
        self.assert_bitwise_equal(run, loop)

    def test_first_sample_run_decays_rttvar_into_subnormals(self):
        # srtt starts at the sample and never moves; rttvar shrinks by a
        # quarter per step until it sticks at two subnormal units, 2,583
        # steps in.
        run, loop = RtoEstimator(), RtoEstimator()
        run.observe_run(1.0, 3000)
        for _ in range(3000):
            loop.observe(1.0)
        self.assert_bitwise_equal(run, loop)
        assert run.srtt == 1.0
        assert run.rttvar == 1e-323
        assert 0.0 < run.rttvar < sys.float_info.min
