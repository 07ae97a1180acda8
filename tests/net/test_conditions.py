"""Tests for the network-condition database (Figs. 4, 10, 11 shapes)."""

import numpy as np
import pytest

from repro.net.conditions import (
    CONDITION_DB_PRESETS,
    ConditionDatabase,
    NetworkCondition,
    condition_database_preset,
    default_condition_database,
)


class TestNetworkCondition:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkCondition(average_rtt=0.0, rtt_std=0.0, loss_rate=0.0)
        with pytest.raises(ValueError):
            NetworkCondition(average_rtt=0.1, rtt_std=-0.1, loss_rate=0.0)
        with pytest.raises(ValueError):
            NetworkCondition(average_rtt=0.1, rtt_std=0.0, loss_rate=1.0)

    def test_ideal_condition_is_clean(self):
        condition = NetworkCondition.ideal()
        assert condition.loss_rate == 0.0
        assert condition.rtt_std == 0.0


class TestDefaultDatabase:
    def test_size(self):
        database = default_condition_database(size=1000, seed=1)
        assert len(database) == 1000

    def test_deterministic_for_seed(self):
        a = default_condition_database(size=200, seed=3)
        b = default_condition_database(size=200, seed=3)
        assert np.allclose(a.average_rtts, b.average_rtts)

    def test_rtts_below_emulated_rtt(self):
        # The paper picks a 1.0 s emulated RTT because essentially all real
        # RTTs are below 0.8 s (Fig. 4).
        database = default_condition_database(size=3000, seed=2)
        assert database.average_rtts.max() < 0.8
        assert np.mean(database.average_rtts < 0.4) > 0.85

    def test_rtt_std_mostly_small(self):
        database = default_condition_database(size=3000, seed=2)
        assert np.median(database.rtt_stds) < 0.05

    def test_loss_rates_mostly_tiny(self):
        database = default_condition_database(size=3000, seed=2)
        assert np.median(database.loss_rates) < 0.01
        assert database.loss_rates.max() <= 0.15

    def test_sampling_draws_valid_conditions(self):
        database = default_condition_database(size=500, seed=2)
        rng = np.random.default_rng(0)
        for condition in [database.sample(rng) for _ in range(50)]:
            assert 0 < condition.average_rtt < 0.8
            assert 0 <= condition.loss_rate < 1

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            ConditionDatabase(average_rtts=np.array([]), rtt_stds=np.array([]),
                              loss_rates=np.array([]))


class TestConditionPresets:
    def test_expected_preset_names(self):
        assert set(CONDITION_DB_PRESETS) == {"paper", "high-bdp",
                                             "lossy-wireless", "bufferbloat",
                                             "cellular-trace"}

    @pytest.mark.parametrize("name", sorted(CONDITION_DB_PRESETS))
    def test_presets_yield_valid_sampleable_databases(self, name):
        database = condition_database_preset(name, size=400, seed=5)
        assert len(database) == 400
        rng = np.random.default_rng(0)
        for condition in [database.sample(rng) for _ in range(25)]:
            assert 0 < condition.average_rtt < 0.8
            assert condition.rtt_std >= 0
            assert 0 <= condition.loss_rate < 1

    def test_presets_are_deterministic(self):
        first = condition_database_preset("lossy-wireless", size=100, seed=3)
        second = condition_database_preset("lossy-wireless", size=100, seed=3)
        assert np.array_equal(first.average_rtts, second.average_rtts)
        assert np.array_equal(first.loss_rates, second.loss_rates)

    def test_paper_preset_matches_default_database(self):
        preset = condition_database_preset("paper", size=300, seed=4)
        default = default_condition_database(size=300, seed=4)
        assert np.array_equal(preset.average_rtts, default.average_rtts)

    def test_high_bdp_has_long_fat_paths(self):
        database = condition_database_preset("high-bdp", size=2000, seed=1)
        assert np.median(database.average_rtts) > 0.3
        assert np.median(database.loss_rates) < 0.005

    def test_lossy_wireless_is_lossy_and_jittery(self):
        database = condition_database_preset("lossy-wireless", size=2000, seed=1)
        paper = default_condition_database(size=2000, seed=1)
        assert np.median(database.loss_rates) > np.median(paper.loss_rates)
        assert np.median(database.rtt_stds) > np.median(paper.rtt_stds)

    def test_bufferbloat_dominated_by_queueing_delay(self):
        database = condition_database_preset("bufferbloat", size=2000, seed=1)
        paper = default_condition_database(size=2000, seed=1)
        assert np.median(database.rtt_stds) > np.median(paper.rtt_stds)
        assert np.median(database.average_rtts) > np.median(paper.average_rtts)
        assert np.median(database.loss_rates) < 0.005

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ValueError) as error:
            condition_database_preset("dialup")
        message = str(error.value)
        for name in CONDITION_DB_PRESETS:
            assert name in message
