"""Census-as-a-service: model artifacts, work stealing, batched serving.

The serving layer wraps the reproduction's pipeline for long-running,
production-style use (ROADMAP item 4):

* :mod:`repro.serving.artifact` — persistable trained-model artifacts: the
  flat stacked-forest node tables, kNN/feature configuration and the
  classifier fingerprint in one versioned, checksummed file, so a serving
  process loads a trained classifier in milliseconds and never retrains
  (``python -m repro.model fit/save/load/inspect``).
* :mod:`repro.serving.queue` — a persistent work queue with lease /
  heartbeat / steal semantics over a census checkpoint's shards: workers
  pull shards, a stalled worker's lease expires and is stolen, and a stolen
  shard replays to bit-identical results.
* :mod:`repro.serving.orchestrator` — the work-stealing census orchestrator,
  the one sharded census driver (``python -m repro.census``): concurrent
  workers drain the queue, stream results into the JSONL checkpoint format,
  and merge bit-identically to a monolithic run.
* :mod:`repro.serving.service` — :class:`CensusService` with the batched
  ``classify_batch`` endpoint riding the vectorised ``classify_vectors``
  path, loaded straight from an artifact.
* :mod:`repro.serving.schema` — the one stable, versioned JSON schema for
  census reports and classify responses, shared by the CLI and the service.

The full lifecycle is documented in ``docs/SERVING.md``.
"""

from repro.serving.artifact import (
    ModelArtifactError,
    inspect_model,
    load_model,
    save_model,
)
from repro.serving.orchestrator import CensusOrchestrator, WorkerStats
from repro.serving.queue import Lease, WorkQueue, WorkQueueError
from repro.serving.service import CensusService

__all__ = [
    "CensusOrchestrator",
    "CensusService",
    "Lease",
    "ModelArtifactError",
    "WorkQueue",
    "WorkQueueError",
    "WorkerStats",
    "inspect_model",
    "load_model",
    "save_model",
]
