"""Tests for the synthetic server population."""

import numpy as np
import pytest

from repro.web.population import (
    MIN_MSS_SHARES,
    PopulationConfig,
    REGION_SHARES,
    SOFTWARE_SHARES,
    ServerPopulation,
)


@pytest.fixture(scope="module")
def population():
    pop = ServerPopulation(PopulationConfig(size=1500, seed=17))
    pop.generate()
    return pop


class TestGeneration:
    def test_size(self, population):
        assert len(population) == 1500

    def test_deterministic(self):
        a = ServerPopulation(PopulationConfig(size=50, seed=3)); a.generate()
        b = ServerPopulation(PopulationConfig(size=50, seed=3)); b.generate()
        assert [r.profile.tcp_algorithm for r in a.records] == \
               [r.profile.tcp_algorithm for r in b.records]

    def test_server_ids_unique(self, population):
        ids = [record.profile.server_id for record in population.records]
        assert len(set(ids)) == len(ids)


class TestDistributions:
    def test_software_shares_match_paper(self, population):
        shares = population.software_shares()
        for software, expected in SOFTWARE_SHARES.items():
            assert shares.get(software, 0.0) == pytest.approx(expected, abs=0.04)

    def test_region_shares_match_paper(self, population):
        shares = population.region_shares()
        assert shares["europe"] == pytest.approx(REGION_SHARES["europe"], abs=0.05)
        assert shares["north-america"] == pytest.approx(REGION_SHARES["north-america"], abs=0.05)

    def test_min_mss_shares_match_table2_shape(self, population):
        shares = population.minimum_mss_shares()
        assert shares[100] == pytest.approx(MIN_MSS_SHARES[100], abs=0.05)
        assert shares[100] > 0.6
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_windows_servers_run_windows_algorithms(self, population):
        for record in population.records:
            profile = record.profile
            if profile.operating_system == "windows":
                assert profile.tcp_algorithm in ("ctcp-a", "ctcp-b", "reno")
            else:
                assert profile.tcp_algorithm not in ("ctcp-a", "ctcp-b")

    def test_linux_plurality_is_bic_cubic(self, population):
        shares = population.algorithm_shares()
        bic_cubic = sum(shares.get(name, 0.0) for name in ("bic", "cubic-a", "cubic-b"))
        assert bic_cubic > 0.35

    def test_pipelining_cdf_shape(self, population):
        single = np.mean([record.profile.max_pipelined_requests == 1
                          for record in population.records])
        # Fig. 6: about 47 % of servers accept only one request.
        assert single == pytest.approx(0.47, abs=0.06)

    def test_conditions_are_valid(self, population):
        for record in population.records[:100]:
            assert 0 < record.condition.average_rtt < 0.8
            assert 0 <= record.condition.loss_rate < 1
