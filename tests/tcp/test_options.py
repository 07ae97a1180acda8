"""Tests for TCP option handling (MSS ladder and negotiation)."""

import pytest

from repro.tcp.options import CAAI_MSS_LADDER, negotiate_mss


class TestMssLadder:
    def test_ladder_matches_paper_order(self):
        assert CAAI_MSS_LADDER == (100, 300, 536, 1460)

    def test_ladder_is_increasing(self):
        assert list(CAAI_MSS_LADDER) == sorted(CAAI_MSS_LADDER)


class TestNegotiateMss:
    def test_accepts_when_at_or_above_minimum(self):
        assert negotiate_mss(100, server_minimum_mss=100) == 100
        assert negotiate_mss(300, server_minimum_mss=100) == 300

    def test_rejects_below_minimum(self):
        assert negotiate_mss(100, server_minimum_mss=536) is None

    def test_clamps_to_server_maximum(self):
        assert negotiate_mss(9000, server_minimum_mss=100, server_maximum_mss=1460) == 1460

    def test_invalid_request(self):
        with pytest.raises(ValueError):
            negotiate_mss(0, server_minimum_mss=100)
