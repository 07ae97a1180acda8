"""Deterministic fault injection for the census pipeline.

See :mod:`repro.faults.plan` for the plan/spec model and
:mod:`repro.faults.wrappers` for the probe-path injection shims; the
user-facing story is in ``docs/ROBUSTNESS.md``.
"""

from repro.faults.plan import (
    ALL_KINDS,
    EXECUTION_KINDS,
    FAULT_INVALID_REASONS,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    MAX_LEASE_DEATHS,
    NETWORK_KINDS,
    PROBE_KINDS,
    SERVER_KINDS,
)
from repro.faults.wrappers import FaultyServer, FaultySender

__all__ = [
    "ALL_KINDS",
    "EXECUTION_KINDS",
    "FAULT_INVALID_REASONS",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FaultyServer",
    "FaultySender",
    "MAX_LEASE_DEATHS",
    "NETWORK_KINDS",
    "PROBE_KINDS",
    "SERVER_KINDS",
]
