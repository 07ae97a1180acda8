"""Tests for trace loading and trace-derived condition databases."""

import json

import numpy as np
import pytest

from repro.scenarios import (
    LinkTrace,
    TraceEntry,
    cellular_condition_database,
    load_trace,
    packaged_trace,
    parse_trace,
    trace_condition_database,
)


def entries(*rows):
    return tuple(TraceEntry(time=t, bandwidth_mbps=bw, delay_ms=d, loss=l)
                 for t, bw, d, l in rows)


class TestTraceEntry:
    def test_validation(self):
        with pytest.raises(ValueError, match="time"):
            TraceEntry(time=-1.0, bandwidth_mbps=1.0, delay_ms=10.0, loss=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            TraceEntry(time=0.0, bandwidth_mbps=0.0, delay_ms=10.0, loss=0.0)
        with pytest.raises(ValueError, match="delay"):
            TraceEntry(time=0.0, bandwidth_mbps=1.0, delay_ms=-1.0, loss=0.0)
        with pytest.raises(ValueError, match="loss"):
            TraceEntry(time=0.0, bandwidth_mbps=1.0, delay_ms=10.0, loss=1.0)


class TestLinkTrace:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            LinkTrace(name="empty", entries=())

    def test_out_of_order_timestamps_rejected(self):
        rows = entries((0.0, 1.0, 10.0, 0.0), (2.0, 1.0, 10.0, 0.0),
                       (1.0, 1.0, 10.0, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            LinkTrace(name="bad", entries=rows)

    def test_duplicate_timestamps_rejected(self):
        rows = entries((0.0, 1.0, 10.0, 0.0), (0.0, 2.0, 10.0, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            LinkTrace(name="dup", entries=rows)


class TestParseTrace:
    def test_parse_skips_blank_lines(self):
        lines = ["", json.dumps({"time": 0.0, "bandwidth_mbps": 1.0,
                                 "delay_ms": 10.0, "loss": 0.0}), "   "]
        trace = parse_trace(lines, name="t")
        assert len(trace.entries) == 1

    def test_empty_input_is_loud(self):
        with pytest.raises(ValueError, match="must not be empty"):
            parse_trace([], name="t")

    def test_bad_json_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace(['{"time": 0, "bandwidth_mbps": 1, "delay_ms": 1, '
                         '"loss": 0}', "{nope"], name="t")

    def test_missing_key_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_trace(['{"time": 0}'], name="t")

    def test_load_trace_uses_stem_as_name(self, tmp_path):
        path = tmp_path / "metro.jsonl"
        path.write_text(json.dumps({"time": 0.0, "bandwidth_mbps": 3.0,
                                    "delay_ms": 30.0, "loss": 0.0}) + "\n")
        assert load_trace(path).name == "metro"


class TestPackagedTraces:
    def test_cellular_trace_loads(self):
        trace = packaged_trace("cellular")
        assert trace.name == "cellular"
        assert len(trace.entries) >= 16
        assert trace.entries[-1].time > 0

    def test_unknown_packaged_trace_lists_available(self):
        with pytest.raises(ValueError, match="cellular"):
            packaged_trace("starlink")


class TestTraceConditionDatabase:
    def test_deterministic_and_bounded(self):
        trace = packaged_trace("cellular")
        db_a = trace_condition_database(trace, size=64, seed=9)
        db_b = trace_condition_database(trace, size=64, seed=9)
        assert len(db_a) == 64
        conditions_a = [db_a.sample(np.random.default_rng(i)) for i in range(8)]
        conditions_b = [db_b.sample(np.random.default_rng(i)) for i in range(8)]
        assert conditions_a == conditions_b
        for condition in conditions_a:
            assert 0.005 <= condition.average_rtt <= 0.79
            assert 0.0002 <= condition.rtt_std <= 0.25
            assert 0.0 <= condition.loss_rate <= 0.15

    def test_cellular_database_shortcut(self):
        db = cellular_condition_database(size=32, seed=5)
        assert len(db) == 32
