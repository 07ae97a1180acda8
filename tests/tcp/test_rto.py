"""Tests for the RFC 6298 retransmission timeout estimator."""

import math
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

    #: Environment B's two emulated RTT samples as the gatherer computes
    #: them (``now - sent_at`` on the emulated clock).
    ENV_B_SAMPLES = (0.7999999999999545, 1.0)

    @staticmethod
    def srtt_is_fixed(estimator, sample):
        return ((1 - estimator.alpha) * estimator.srtt + estimator.alpha * sample
                == estimator.srtt)

    @pytest.mark.parametrize("settled,switched",
                             [ENV_B_SAMPLES, ENV_B_SAMPLES[::-1]],
                             ids=["0.8-to-1.0", "1.0-to-0.8"])
    def test_sample_switch_crosses_the_srtt_fixed_point(self, settled, switched):
        # Settled on one sample, the estimator takes 3,000 of the other: srtt
        # walks for a few hundred steps, then stops a few ulps short of the
        # new sample, where only rttvar still moves, towards a positive
        # fixed point of its own.
        run, loop = RtoEstimator(), RtoEstimator()
        run.observe_run(settled, 3000)
        for _ in range(3000):
            loop.observe(settled)
        self.assert_bitwise_equal(run, loop)
        assert not self.srtt_is_fixed(run, switched)
        run.observe_run(switched, 3000)
        for _ in range(3000):
            loop.observe(switched)
        self.assert_bitwise_equal(run, loop)
        assert self.srtt_is_fixed(run, switched)
        assert run.srtt != switched and run.rttvar > 0.0

    @pytest.mark.parametrize("count", [1, 2, 3000])
    def test_srtt_already_at_the_sample(self, count):
        # srtt == sample from the first step on: a pure rttvar decay.
        run, loop = RtoEstimator(), RtoEstimator()
        for estimator in (run, loop):
            estimator.observe(0.6)
            estimator.observe(1.4)
            estimator.srtt = 1.0
            estimator.back_off()
        run.observe_run(1.0, count)
        for _ in range(count):
            loop.observe(1.0)
        self.assert_bitwise_equal(run, loop)

    @pytest.mark.parametrize("count", [1, 2, 3000])
    def test_fixed_srtt_with_an_offset_keeps_rttvar_positive(self, count):
        # One ulp above 1.0 the srtt update rounds back to 1.0, so srtt is
        # fixed at an offset from the sample, and rttvar settles at a
        # positive fixed point instead of decaying into subnormals.
        sample = math.nextafter(1.0, 2.0)
        run, loop = RtoEstimator(), RtoEstimator()
        for estimator in (run, loop):
            estimator.observe(1.0)
        assert self.srtt_is_fixed(run, sample)
        run.observe_run(sample, count)
        for _ in range(count):
            loop.observe(sample)
        self.assert_bitwise_equal(run, loop)
        assert run.srtt == 1.0
        if count == 3000:
            assert run.rttvar >= sys.float_info.min

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


class TestOwedDecay:
    """rttvar steps that ``observe_run`` owes instead of running.

    Once a step leaves srtt unchanged, each further sample only moves rttvar
    to ``(1 - beta) * rttvar + term``: ``term`` is zero when srtt equals the
    sample and a few ulps' worth when srtt stuck just short of it.
    ``observe_run`` records those steps with their term and every read of
    rttvar applies them first; ``current_rto`` applies only those it needs.
    Each row compares against the eager loop (one ``observe`` per sample),
    so an estimator that drops the owed steps fails it.
    """

    @staticmethod
    def eager(rtt, samples, **params):
        estimator = RtoEstimator(**params)
        for _ in range(samples):
            estimator.observe(rtt)
        return estimator

    @pytest.mark.parametrize("beta", [0.25, 0.4], ids=["beta-0.25", "beta-0.4"])
    @pytest.mark.parametrize("steps", [1, 7, 2582, 10**6])
    def test_a_read_applies_the_owed_steps(self, beta, steps):
        # The first sample sets rttvar to rtt / 2; ``steps`` more decay it.
        run = RtoEstimator(beta=beta)
        run.observe_run(1.0, 1 + steps)
        eager = self.eager(1.0, 1 + steps, beta=beta)
        assert run.rttvar == eager.rttvar
        assert (run.srtt, run.backoff_exponent) == (eager.srtt,
                                                   eager.backoff_exponent)

    def test_owed_steps_add_up_across_runs(self):
        run = RtoEstimator()
        run.observe(1.0)
        for count in (3, 4, 2575):
            run.back_off()
            run.observe_run(1.0, count)
            assert run.backoff_exponent == 0
        assert run.rttvar == self.eager(1.0, 1 + 3 + 4 + 2575).rttvar

    #: (min_variance_term, samples before, samples after the read that
    #: settles the first ones, steps still owed after the last read):
    #: ``4 * rttvar`` before the owed decay is above the floor (so
    #: ``current_rto`` applies owed steps until the decay ends or reaches
    #: the floor: 0.5 takes 8 steps of 0.75 to get there), below it, or
    #: equal to it.
    FLOOR_CASES = {
        "above-settles-above": (0.25, 4, 0, 0),
        "above-settles-below": (0.25, 11, 0, 2),
        "below": (0.25, 9, 100, 100),
        "equal": (2.0, 1, 100, 100),
    }

    @pytest.mark.parametrize("floor,before,after,left",
                             list(FLOOR_CASES.values()), ids=list(FLOOR_CASES))
    def test_current_rto_around_the_variance_floor(self, floor, before, after,
                                                   left):
        run = RtoEstimator(min_variance_term=floor)
        run.observe_run(1.0, before)
        if after:
            run.current_rto()  # settles the first run's steps
            run.observe_run(1.0, after)
        eager = self.eager(1.0, before + after, min_variance_term=floor)
        assert run.current_rto() == eager.current_rto()
        # At or below the floor the timeout cannot change, so the steps stay
        # owed; above it only those that reach the floor are applied.
        assert run._owed == left
        assert run.rttvar == eager.rttvar

    def test_the_setter_replaces_the_owed_steps(self):
        run = RtoEstimator()
        run.observe_run(1.0, 10)
        eager = self.eager(1.0, 10)
        for estimator in (run, eager):
            estimator.rttvar = 0.3
        assert run.rttvar == 0.3
        run.observe_run(1.0, 5)
        for _ in range(5):
            eager.observe(1.0)
        assert run.rttvar == eager.rttvar

    @pytest.mark.parametrize("sample", [1.0, 0.8])
    def test_observe_applies_the_owed_steps_first(self, sample):
        run = RtoEstimator()
        run.observe_run(1.0, 10)
        run.observe(sample)
        eager = self.eager(1.0, 10)
        eager.observe(sample)
        assert (run.srtt, run.rttvar) == (eager.srtt, eager.rttvar)

    def test_a_differing_sample_applies_the_owed_steps_first(self):
        run = RtoEstimator()
        run.observe_run(1.0, 20)
        run.observe_run(0.8, 30)
        eager = self.eager(1.0, 20)
        for _ in range(30):
            eager.observe(0.8)
        assert (run.srtt, run.rttvar) == (eager.srtt, eager.rttvar)

    def test_repr_and_equality_show_the_settled_value(self):
        run = RtoEstimator()
        run.observe_run(1.0, 50)
        eager = self.eager(1.0, 50)
        assert run._owed  # nothing has read rttvar yet
        assert repr(run) == repr(eager)
        assert f"rttvar={eager.rttvar!r}" in repr(run)
        other = RtoEstimator()
        other.observe_run(1.0, 50)
        assert other == eager

    # ---- steps with a non-zero term: srtt stuck a few ulps from the sample
    #: Environment B's two emulated RTT samples (as in
    #: ``TestObserveRunEdgeCases``): settled on one, a run of the other
    #: walks srtt to a few ulps short of it, and from there each sample
    #: moves rttvar alone, by a constant non-zero term.
    ENV_B_SAMPLES = (0.7999999999999545, 1.0)

    @staticmethod
    def switched(count):
        """An estimator settled on 0.8 s that then took ``count`` 1.0 s samples,
        and its eager twin."""
        settled, switched = TestOwedDecay.ENV_B_SAMPLES
        run, eager = RtoEstimator(), TestOwedDecay.eager(settled, 3000)
        run.observe_run(settled, 3000)
        run.observe_run(switched, count)
        for _ in range(count):
            eager.observe(switched)
        return run, eager

    def test_a_stuck_srtt_owes_its_rttvar_steps(self):
        run, eager = self.switched(3000)
        assert run.srtt == eager.srtt != self.ENV_B_SAMPLES[1]
        assert run._owed and run._term > 0.0  # nothing has read rttvar yet
        assert run.rttvar == eager.rttvar
        assert not run._owed

    @pytest.mark.parametrize("read", ["none", "current_rto", "rttvar"])
    def test_reads_between_runs_of_a_stuck_srtt(self, read):
        # The first run walks srtt to its fixed point; every later one owes
        # all its steps, added to whatever the reads between left owed.
        run, eager = self.switched(2000)
        for count in (1, 7, 2, 300, 5000):
            run.observe_run(self.ENV_B_SAMPLES[1], count)
            for _ in range(count):
                eager.observe(self.ENV_B_SAMPLES[1])
            if read == "current_rto":
                assert run.current_rto() == eager.current_rto()
            elif read == "rttvar":
                assert run.rttvar == eager.rttvar
        assert (run.srtt, run.rttvar) == (eager.srtt, eager.rttvar)
        assert run.current_rto() == eager.current_rto()

    def test_a_different_term_settles_the_owed_steps_first(self):
        # srtt 1.0 is fixed for samples one ulp either side of it, whose
        # terms differ (the ulp below 1.0 is half the one above).
        above, below = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
        run, eager = RtoEstimator(), self.eager(1.0, 1)
        run.observe(1.0)
        for sample, count in ((above, 40), (below, 25), (below, 3),
                              (above, 4000), (1.0, 10)):
            run.observe_run(sample, count)
            for _ in range(count):
                eager.observe(sample)
            assert run.srtt == 1.0
        assert run.rttvar == eager.rttvar

    #: (samples of 1.0 before, the sample of the owed run, its length, the
    #: steps ``current_rto`` leaves owed). A tiny ``alpha`` keeps srtt at
    #: 1.0 for any sample, so the term is ``beta`` times the sample's offset
    #: and the fixed point ``term / beta`` is the offset: both ends at or
    #: below the floor (``4 * rttvar <= 0.25``), the fixed point above it
    #: (every step applied), or the current value above it (the 8 steps
    #: that reach the floor applied).
    TERM_CASES = {
        "both-below-stays-owed": (20, 1.001, 50, 50),
        "fixed-point-above": (20, 2.0, 3, 0),
        "current-above": (1, 1.001, 50, 42),
    }

    @pytest.mark.parametrize("before,sample,count,left",
                             list(TERM_CASES.values()), ids=list(TERM_CASES))
    def test_current_rto_with_a_nonzero_term(self, before, sample, count,
                                             left):
        run = RtoEstimator(alpha=2.0**-60)
        eager = self.eager(1.0, before, alpha=2.0**-60)
        run.observe_run(1.0, before)
        run.observe_run(sample, count)
        for _ in range(count):
            eager.observe(sample)
        assert run._owed == count and run._term > 0.0
        assert run.current_rto() == eager.current_rto()
        assert run._owed == left
        assert run.rttvar == eager.rttvar

    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(
        st.tuples(st.sampled_from([ENV_B_SAMPLES[0], ENV_B_SAMPLES[1],
                                   math.nextafter(1.0, 2.0),
                                   math.nextafter(1.0, 0.0), 1.001]),
                  st.integers(min_value=0, max_value=3000),
                  st.sampled_from(["none", "current_rto", "rttvar"])),
        max_size=6))
    def test_runs_and_reads_equal_the_eager_loop(self, runs):
        run, eager = RtoEstimator(), RtoEstimator()
        for sample, count, read in runs:
            run.observe_run(sample, count)
            for _ in range(count):
                eager.observe(sample)
            if read == "current_rto":
                assert run.current_rto() == eager.current_rto()
            elif read == "rttvar":
                assert run.rttvar == eager.rttvar
        assert (run.srtt, run.rttvar, run.current_rto()) == (
            eager.srtt, eager.rttvar, eager.current_rto())
