"""Adversarial scenario layer: link traces, middleboxes, evasion.

Where :mod:`repro.faults` breaks the probing *infrastructure*, this package
degrades the probing *environment*: conditions resampled from link traces,
hostile middleboxes on the ACK path, and evasive servers that perturb their
own window dynamics. Packs bundle these into named regimes the census, the
training-set builder and the robustness experiment share
(docs/SCENARIOS.md).
"""

from repro.scenarios.evasion import (
    EvasionConfig,
    EvasiveSender,
    EvasiveServer,
    evasion_rng,
)
from repro.scenarios.middlebox import (
    MiddleboxConfig,
    MiddleboxSender,
    MiddleboxServer,
    TokenBucketPolicer,
)
from repro.scenarios.packs import (
    SCENARIO_PACKS,
    ScenarioPack,
    scenario_pack_by_name,
)
from repro.scenarios.tracefile import (
    LinkTrace,
    TraceEntry,
    cellular_condition_database,
    load_trace,
    packaged_trace,
    parse_trace,
    trace_condition_database,
)

__all__ = [
    "EvasionConfig",
    "EvasiveSender",
    "EvasiveServer",
    "evasion_rng",
    "MiddleboxConfig",
    "MiddleboxSender",
    "MiddleboxServer",
    "TokenBucketPolicer",
    "SCENARIO_PACKS",
    "ScenarioPack",
    "scenario_pack_by_name",
    "LinkTrace",
    "TraceEntry",
    "cellular_condition_database",
    "load_trace",
    "packaged_trace",
    "parse_trace",
    "trace_condition_database",
]
