"""Tests for the centralised ``REPRO_*`` environment-knob parser."""

import pytest

from repro.envknobs import EnvKnobError, FALSE_VALUES, TRUE_VALUES, env_flag

KNOB = "REPRO_TEST_KNOB"


class TestEnvFlag:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(KNOB, raising=False)
        assert env_flag(KNOB, default=True) is True
        assert env_flag(KNOB, default=False) is False

    def test_empty_and_whitespace_return_default(self, monkeypatch):
        for raw in ("", "   "):
            monkeypatch.setenv(KNOB, raw)
            assert env_flag(KNOB, default=True) is True

    @pytest.mark.parametrize("raw", TRUE_VALUES + tuple(v.upper() for v in TRUE_VALUES))
    def test_true_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert env_flag(KNOB, default=False) is True

    @pytest.mark.parametrize("raw", FALSE_VALUES + tuple(v.upper() for v in FALSE_VALUES))
    def test_false_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        assert env_flag(KNOB, default=True) is False

    def test_surrounding_whitespace_is_trimmed(self, monkeypatch):
        monkeypatch.setenv(KNOB, "  off  ")
        assert env_flag(KNOB, default=True) is False

    @pytest.mark.parametrize("raw", ["fales", "2", "enabled", "y "])
    def test_unrecognised_values_raise(self, monkeypatch, raw):
        monkeypatch.setenv(KNOB, raw)
        with pytest.raises(EnvKnobError, match=KNOB):
            env_flag(KNOB)

    def test_error_names_the_offending_value(self, monkeypatch):
        monkeypatch.setenv(KNOB, "maybe")
        with pytest.raises(EnvKnobError, match="maybe"):
            env_flag(KNOB)

    def test_env_knob_error_is_a_value_error(self):
        assert issubclass(EnvKnobError, ValueError)
