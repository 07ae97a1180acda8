"""Tests for the deterministic fault-injection subsystem (``repro.faults``)."""

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.core.trace import InvalidReason
from repro.net.conditions import NetworkCondition
from repro.faults import (ALL_KINDS, FAULT_INVALID_REASONS, FaultInjected,
                          FaultPlan, FaultSpec, FaultyServer, PROBE_KINDS)
from tests.conftest import make_synthetic_server


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic_ray")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="unresponsive", probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="unresponsive", probability=-0.1)

    def test_persist_attempts_must_be_positive_or_none(self):
        with pytest.raises(ValueError, match="persist_attempts"):
            FaultSpec(kind="unresponsive", persist_attempts=0)
        assert FaultSpec(kind="unresponsive", persist_attempts=None).transient is False
        assert FaultSpec(kind="unresponsive", persist_attempts=2).transient is True

    def test_every_kind_constructible(self):
        for kind in ALL_KINDS:
            assert FaultSpec(kind=kind).kind == kind

    def test_invalid_reason_mapping_resolves(self):
        for kind, value in FAULT_INVALID_REASONS.items():
            assert FaultInjected(kind, True).invalid_reason is InvalidReason(value)

    def test_unmapped_kind_falls_back_to_connection_failed(self):
        fault = FaultInjected("link_outage", True)
        assert fault.invalid_reason is InvalidReason.CONNECTION_FAILED


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert plan.probe_faults("server-000001", 0) == []

    def test_scoped_spec_targets_only_its_server(self):
        plan = FaultPlan(specs=(FaultSpec(kind="unresponsive",
                                          scope="server-000007"),))
        assert plan.probe_faults("server-000007", 0)
        assert plan.probe_faults("server-000008", 0) == []

    def test_probabilistic_draw_is_per_scope_and_deterministic(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(kind="unresponsive",
                                                  probability=0.4),))
        ids = [f"server-{i:06d}" for i in range(400)]
        hits = {sid for sid in ids if plan.probe_faults(sid, 0)}
        replay = FaultPlan(seed=3, specs=plan.specs)
        again = {sid for sid in ids if replay.probe_faults(sid, 0)}
        assert hits == again
        assert 0.25 < len(hits) / len(ids) < 0.55

    def test_different_seeds_pick_different_victims(self):
        ids = [f"server-{i:06d}" for i in range(200)]
        spec = FaultSpec(kind="unresponsive", probability=0.3)
        hits_a = {s for s in ids if FaultPlan(seed=1, specs=(spec,)).probe_faults(s, 0)}
        hits_b = {s for s in ids if FaultPlan(seed=2, specs=(spec,)).probe_faults(s, 0)}
        assert hits_a != hits_b

    def test_transient_fault_clears_after_persist_attempts(self):
        plan = FaultPlan(specs=(FaultSpec(kind="unresponsive",
                                          persist_attempts=2),))
        assert plan.probe_faults("s", 0)
        assert plan.probe_faults("s", 1)
        assert plan.probe_faults("s", 2) == []

    def test_permanent_fault_never_clears(self):
        plan = FaultPlan(specs=(FaultSpec(kind="unresponsive",
                                          persist_attempts=None),))
        assert all(plan.probe_faults("s", attempt) for attempt in range(10))

    def test_worker_death_and_torn_checkpoint_are_not_probe_faults(self):
        assert "worker_death" not in PROBE_KINDS
        assert "torn_checkpoint" not in PROBE_KINDS
        assert "link_outage" not in PROBE_KINDS
        plan = FaultPlan(specs=(FaultSpec(kind="worker_death"),))
        assert plan.probe_faults("s", 0) == []
        assert plan.worker_death_fires("s", 0)
        assert not plan.worker_death_fires("s", 1)  # persist_attempts=1

    def test_torn_write_after(self):
        plan = FaultPlan(specs=(FaultSpec(kind="torn_checkpoint", scope="2",
                                          at_round=5, persist_attempts=1),))
        assert plan.torn_write_after(2, 0) == 5
        assert plan.torn_write_after(2, 1) is None  # cleared on the rewrite
        assert plan.torn_write_after(0, 0) is None

    def test_link_outage_windows(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="link_outage", scope="s", at_round=10, param=3.0),
            FaultSpec(kind="link_outage", scope="s", at_round=20),))
        assert plan.link_outages("s") == ((10.0, 13.0), (20.0, 21.0))
        assert plan.link_outages("other") == ()

    def test_json_round_trip(self):
        plan = FaultPlan(seed=42, specs=(
            FaultSpec(kind="unresponsive", probability=0.3),
            FaultSpec(kind="torn_checkpoint", scope="1", at_round=2,
                      persist_attempts=None),
            FaultSpec(kind="truncated_response", param=0.1),))
        assert FaultPlan.from_json_dict(plan.to_json_dict()) == plan

    def test_from_json_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json_dict({"specs": [{"kind": "nope"}]})
        with pytest.raises(TypeError):
            FaultPlan.from_json_dict({"specs": [{"kind": "unresponsive",
                                                 "bogus_key": 1}]})

    def test_specs_list_coerced_to_tuple(self):
        plan = FaultPlan(specs=[FaultSpec(kind="unresponsive")])
        assert isinstance(plan.specs, tuple)


def _gather(server, w_timeout=64):
    gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
    return gatherer.gather_probe(server, NetworkCondition.ideal(),
                                 np.random.default_rng(5))


class TestFaultyServer:
    def test_unresponsive_raises_before_touching_the_server(self):
        server = make_synthetic_server("reno")
        wrapped = FaultyServer(server, [FaultSpec(kind="unresponsive")])
        with pytest.raises(FaultInjected) as excinfo:
            wrapped.open_connection(100, 0.0, 10_000)
        assert excinfo.value.kind == "unresponsive"
        assert wrapped.events == [{"kind": "unresponsive"}]

    def test_mid_trace_fault_fires_at_round(self):
        server = make_synthetic_server("reno")
        wrapped = FaultyServer(server, [FaultSpec(kind="connection_reset",
                                                  at_round=2)])
        with pytest.raises(FaultInjected) as excinfo:
            _gather(wrapped)
        assert excinfo.value.kind == "connection_reset"
        assert wrapped.events == [{"kind": "connection_reset",
                                   "round_index": 2}]

    def test_truncated_response_starves_the_trace(self):
        server = make_synthetic_server("reno")
        wrapped = FaultyServer(server, [FaultSpec(kind="truncated_response")])
        probe = _gather(wrapped)
        assert wrapped.events[0]["kind"] == "truncated_response"
        assert not probe.trace_a.is_valid

    def test_no_specs_is_bit_transparent(self):
        plain = _gather(make_synthetic_server("cubic-b"))
        wrapped = _gather(FaultyServer(make_synthetic_server("cubic-b"), []))
        assert plain.trace_a.pre_timeout == wrapped.trace_a.pre_timeout
        assert plain.trace_a.post_timeout == wrapped.trace_a.post_timeout
        assert plain.trace_b.pre_timeout == wrapped.trace_b.pre_timeout

    def test_delegates_protocol_methods(self):
        server = make_synthetic_server("reno")
        wrapped = FaultyServer(server, [])
        assert wrapped.accepts_mss(100) == server.accepts_mss(100)
        assert wrapped.uses_frto() == server.uses_frto()
        assert wrapped.algorithm_name == "reno"
