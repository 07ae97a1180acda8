"""Tests for the emulated network environments (Fig. 2 of the paper)."""

import pytest

from repro.core.environments import (
    DEFAULT_ENVIRONMENTS,
    ENVIRONMENT_A,
    ENVIRONMENT_B,
    VALID_TRACE_ROUNDS_AFTER_TIMEOUT,
    W_TIMEOUT_LADDER,
)


class TestEnvironmentA:
    def test_constant_one_second_rtt(self):
        for i in range(20):
            assert ENVIRONMENT_A.rtt_before_timeout(i) == 1.0
            assert ENVIRONMENT_A.rtt_after_timeout(i) == 1.0


class TestEnvironmentB:
    def test_pre_timeout_switch_after_third_rtt(self):
        assert [ENVIRONMENT_B.rtt_before_timeout(i) for i in range(5)] == \
            [0.8, 0.8, 0.8, 1.0, 1.0]

    def test_post_timeout_switch_after_twelfth_rtt(self):
        rtts = [ENVIRONMENT_B.rtt_after_timeout(i) for i in range(14)]
        assert rtts[:12] == [0.8] * 12
        assert rtts[12:] == [1.0, 1.0]


class TestConstants:
    def test_w_timeout_ladder_matches_paper(self):
        assert W_TIMEOUT_LADDER == (512, 256, 128, 64)

    def test_valid_trace_needs_18_rounds(self):
        assert VALID_TRACE_ROUNDS_AFTER_TIMEOUT == 18

    def test_emulated_rtts_between_real_rtts_and_rto(self):
        # The emulated RTT must exceed real path RTTs (< 0.8 s) and stay well
        # below initial retransmission timeouts (>= 2.5 s).
        for environment in DEFAULT_ENVIRONMENTS:
            assert 0.8 <= environment.short_rtt < environment.long_rtt <= 2.5

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            ENVIRONMENT_A.rtt_before_timeout(-1)


class TestEnvironmentPresets:
    def test_defaults_stay_the_paper_pair(self):
        # The shipped classifier is trained on A/B traces only; no other
        # schedule may leak into the stock probing order.
        assert DEFAULT_ENVIRONMENTS == (ENVIRONMENT_A, ENVIRONMENT_B)
