"""Checkpointed, sharded census state on disk.

A census over tens of thousands of servers cannot assume it finishes in one
process lifetime. This module persists a census as a **checkpoint
directory**:

* ``manifest.json`` — the run's identity (seed, config fingerprint, shard
  count, per-shard status) plus the settings needed to rebuild the
  population and classifier on resume. Rewritten atomically after every
  shard.
* ``shard-NNNN.jsonl`` — one append-only JSONL file per shard. Each line is
  either an ``outcome`` record (the serialised
  :class:`~repro.core.results.ServerOutcome` plus its position in the
  population) or the final ``shard-complete`` marker carrying the expected
  record count.

Shard assignment is a **stable function of the run seed and the server id**
(:func:`shard_of`): it never depends on scheduling, backend or which
invocation processed the shard, so any interleaving of ``run`` / crash /
``resume`` converges to the same set of files. Merging sorts outcomes by
their population index, which makes the merged
:class:`~repro.core.results.CensusReport` bit-identical to a monolithic
:meth:`~repro.core.census.CensusRunner.run` over the same population.

Corruption is detected loudly rather than papered over: a truncated JSONL
line, a manifest/config fingerprint mismatch, a duplicate shard completion,
or a record-count mismatch each raise :class:`CheckpointError` with a
message that says which file is bad and what to do about it. How files
are written, framed and hashed is :mod:`repro.store`'s decision.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.results import CensusReport, ServerOutcome
from repro.store import (
    StoreError,
    digest,
    fingerprint,
    key_bytes,
    read_json_object,
    read_records,
    write_json_atomic,
    write_records,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.census import CensusConfig
    from repro.web.population import ServerPopulation

#: On-disk format version; bumped on any incompatible layout change.
CHECKPOINT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Shard status values stored in the manifest.
SHARD_PENDING = "pending"
SHARD_COMPLETE = "complete"


class CheckpointError(StoreError):
    """A checkpoint directory is missing, corrupt, or from a different run."""


class TornWriteError(CheckpointError):
    """A shard write was (deliberately) cut short mid-file.

    Raised only by fault injection (``torn_checkpoint`` in a
    :class:`~repro.faults.plan.FaultPlan`): the shard file is left truncated
    — exactly what a crash during :meth:`CensusCheckpoint.write_shard` would
    leave — and the manifest still marks the shard pending, so a subsequent
    resume re-runs and rewrites it. Callers simulating crashes catch this
    where a real crash would have killed the process.
    """


#: Recovery hint for a rejected shard file.
_SHARD_HINT = ("delete the file and set the shard back to \"pending\" in the "
               "manifest so resume re-runs it")


def shard_of(server_id: str, seed: int, num_shards: int) -> int:
    """Stable shard assignment for one server, keyed off the run seed.

    Args:
        server_id: The server's stable identifier (``ServerProfile.server_id``).
        seed: The census seed; different runs shuffle servers differently.
        num_shards: Total number of shards.

    Returns:
        The shard index in ``[0, num_shards)``. Depends only on the
        arguments — never on scheduling, backend, or invocation count.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    return int.from_bytes(key_bytes(seed, server_id), "big") % num_shards


def shard_assignments(server_ids: list[str], seed: int,
                      num_shards: int) -> list[list[int]]:
    """Partition population indices into shards.

    Args:
        server_ids: Server ids in population order.
        seed: The census seed.
        num_shards: Total number of shards.

    Returns:
        ``num_shards`` lists of population indices; every index appears in
        exactly one list, and each list is in ascending population order.
    """
    shards: list[list[int]] = [[] for _ in range(num_shards)]
    for index, server_id in enumerate(server_ids):
        shards[shard_of(server_id, seed, num_shards)].append(index)
    return shards


# --------------------------------------------------------------- fingerprint
def census_fingerprint(config: "CensusConfig", population: "ServerPopulation",
                       classifier_fingerprint: str | None = None,
                       extra: dict | None = None) -> str:
    """Hash everything that determines a census report's content.

    Execution-only knobs (backend, worker count) are excluded: the report is
    bit-identical across them, so they may legitimately differ between the
    invocation that started a checkpoint and the one that resumes it.

    Args:
        config: The census configuration.
        population: The (possibly not yet generated) server population; its
            config and condition database are hashed, not its records.
        classifier_fingerprint: Optional fingerprint of the trained
            classifier (e.g. :func:`classifier_fingerprint`); pass it so a
            resume with a differently trained forest is rejected.
        extra: Optional caller-specific settings to fold into the hash.

    Returns:
        A hex digest; equal fingerprints guarantee equal reports.
    """
    census_fields = dataclasses.asdict(config)
    census_fields.pop("backend", None)
    census_fields.pop("max_workers", None)
    # task_timeout is a wall-clock execution knob; it cannot change a
    # (deterministic, simulated-time) report, only abort a run.
    census_fields.pop("task_timeout", None)
    # Resilience knobs at their neutral defaults hash exactly like configs
    # that predate them, so old checkpoints stay resumable and fault-free
    # runs write byte-identical manifests. An empty plan injects nothing,
    # so it is as neutral as no plan at all.
    plan = census_fields.get("fault_plan")
    if plan is not None and not plan.get("specs"):
        census_fields["fault_plan"] = None
    neutral = {"fault_plan": None, "probe_deadline": None,
               "max_probe_attempts": 3, "backoff_base": 0.5,
               "backoff_max": 30.0, "scenario_pack": None}
    for name, default in neutral.items():
        if name in census_fields and census_fields[name] == default:
            census_fields.pop(name)
    database = population.condition_database
    payload = {
        "format": CHECKPOINT_FORMAT_VERSION,
        "census": census_fields,
        "population": dataclasses.asdict(population.config),
        "conditions": _condition_database_digest(database),
        "classifier": classifier_fingerprint,
        "extra": extra,
    }
    return fingerprint(payload)


def classifier_fingerprint(classifier) -> str:
    """Hash a trained :class:`~repro.core.classifier.CaaiClassifier`.

    Covers the classifier's knobs and, when trained, the exact structure of
    every fitted tree, so two classifiers fingerprint equal only if they
    classify every vector identically.

    Args:
        classifier: A :class:`~repro.core.classifier.CaaiClassifier`.

    Returns:
        A hex digest of the classifier's configuration and fitted forest.
    """
    parts = [repr((classifier.n_trees, classifier.max_features,
                   classifier.confidence_threshold, classifier.seed))]
    if classifier.is_trained:
        forest = classifier.forest
        parts.append(repr(forest.classes()))
        for tree in forest._trees:  # noqa: SLF001 - deliberate deep fingerprint
            flat = tree.flat_tree
            parts.extend((flat.feature, flat.threshold, flat.left, flat.right,
                          flat.prediction, flat.leaf_class_counts))
    return digest(*parts)


def _condition_database_digest(database) -> str | None:
    if database is None:
        return None
    return digest(*(np.asarray(array, dtype=float)
                    for array in (database.average_rtts, database.rtt_stds,
                                  database.loss_rates)))


# ----------------------------------------------------------------- the store
class CensusCheckpoint:
    """Manager of one checkpoint directory (manifest plus shard files)."""

    def __init__(self, directory: str | Path, manifest: dict):
        """Bind a manifest to a directory; use :meth:`create` / :meth:`open`.

        Args:
            directory: The checkpoint directory.
            manifest: The parsed manifest dict.
        """
        self.directory = Path(directory)
        self.manifest = manifest

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def ensure_absent(cls, directory: str | Path) -> None:
        """Fail fast if ``directory`` already holds a checkpoint.

        Args:
            directory: The directory a fresh checkpoint is about to use.

        Raises:
            CheckpointError: If a manifest already exists there. Callers
                about to do expensive preparation (classifier training)
                call this first so the error beats the wait.
        """
        manifest_path = Path(directory) / MANIFEST_NAME
        if manifest_path.exists():
            raise CheckpointError(
                f"checkpoint already exists at {manifest_path}",
                path=manifest_path,
                hint="use resume, or point --checkpoint at an empty "
                     "directory to start over")

    @classmethod
    def create(cls, directory: str | Path, *, seed: int, num_shards: int,
               fingerprint: str, population_size: int,
               settings: dict | None = None) -> "CensusCheckpoint":
        """Initialise a fresh checkpoint directory.

        Args:
            directory: Target directory; created if missing. Must not
                already contain a manifest.
            seed: The census seed (also keys the shard assignment).
            num_shards: Total number of shards.
            fingerprint: :func:`census_fingerprint` of the run.
            population_size: Number of servers in the population.
            settings: Free-form settings stored verbatim for resume (the CLI
                keeps everything needed to rebuild population + classifier).

        Returns:
            The new checkpoint with every shard pending.

        Raises:
            CheckpointError: If the directory already holds a manifest.
        """
        directory = Path(directory)
        cls.ensure_absent(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        manifest = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "seed": seed,
            "num_shards": num_shards,
            "fingerprint": fingerprint,
            "population_size": population_size,
            "settings": settings or {},
            "shards": {str(i): SHARD_PENDING for i in range(num_shards)},
        }
        checkpoint = cls(directory, manifest)
        checkpoint._write_manifest()
        return checkpoint

    @classmethod
    def open(cls, directory: str | Path) -> "CensusCheckpoint":
        """Open an existing checkpoint directory.

        Args:
            directory: A directory previously initialised by :meth:`create`.

        Returns:
            The checkpoint with its manifest loaded.

        Raises:
            CheckpointError: If the manifest is missing, unreadable, or of an
                unsupported format version.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        manifest = read_json_object(
            manifest_path, CHECKPOINT_FORMAT_VERSION, CheckpointError,
            "delete the checkpoint directory and rerun the census")
        if manifest is None:
            raise CheckpointError(
                f"no checkpoint manifest at {manifest_path}",
                path=manifest_path,
                hint="run a sharded census first (python -m repro.census run)")
        return cls(directory, manifest)

    def reload(self) -> None:
        """Re-read the manifest from disk.

        Another process sharing the directory may have committed shards
        since this object last read or wrote the manifest; the work queue
        (:mod:`repro.serving.queue`) reloads under its cross-process lock
        before every read-modify-write.

        Raises:
            CheckpointError: If the manifest is missing, unreadable, or of an
                unsupported format version.
        """
        self.manifest = self.open(self.directory).manifest

    def verify_fingerprint(self, fingerprint: str) -> None:
        """Reject a resume whose configuration differs from the original run.

        Args:
            fingerprint: :func:`census_fingerprint` of the resuming run.

        Raises:
            CheckpointError: If it differs from the manifest's fingerprint.
        """
        recorded = self.manifest.get("fingerprint")
        if recorded != fingerprint:
            raise CheckpointError(
                f"config fingerprint mismatch in {self.directory / MANIFEST_NAME}: "
                f"checkpoint was created with {recorded}, this invocation "
                f"computes {fingerprint}. Resuming with a different census/"
                "population/classifier configuration would silently mix "
                "incompatible results",
                path=self.directory / MANIFEST_NAME,
                hint="rerun with the original settings or start a fresh "
                     "checkpoint directory")

    # -------------------------------------------------------------- queries
    @property
    def seed(self) -> int:
        """The census seed recorded at creation time."""
        return int(self.manifest["seed"])

    @property
    def num_shards(self) -> int:
        """Total number of shards of the run."""
        return int(self.manifest["num_shards"])

    @property
    def settings(self) -> dict:
        """The free-form settings dict stored at creation time."""
        return self.manifest.get("settings", {})

    def shard_status(self, shard_index: int) -> str:
        """Status of one shard (``"pending"`` or ``"complete"``)."""
        return self.manifest["shards"][str(shard_index)]

    def pending_shards(self) -> list[int]:
        """Indices of shards that still need to run, in ascending order."""
        return [i for i in range(self.num_shards)
                if self.shard_status(i) != SHARD_COMPLETE]

    def completed_shards(self) -> list[int]:
        """Indices of shards already marked complete, in ascending order."""
        return [i for i in range(self.num_shards)
                if self.shard_status(i) == SHARD_COMPLETE]

    def all_complete(self) -> bool:
        """Whether every shard has completed."""
        return not self.pending_shards()

    def status(self) -> dict:
        """Machine-readable progress summary (what ``status`` prints).

        Returns:
            A dict with seed, shard counts, per-shard status and the stored
            settings.
        """
        return {
            "directory": str(self.directory),
            "seed": self.seed,
            "num_shards": self.num_shards,
            "population_size": self.manifest.get("population_size"),
            "completed_shards": self.completed_shards(),
            "pending_shards": self.pending_shards(),
            "complete": self.all_complete(),
            "fingerprint": self.manifest.get("fingerprint"),
            "settings": self.settings,
        }

    def shard_path(self, shard_index: int) -> Path:
        """Path of one shard's JSONL file."""
        return self.directory / f"shard-{shard_index:04d}.jsonl"

    # -------------------------------------------------------------- writing
    def write_shard(self, shard_index: int,
                    outcomes: list[tuple[int, ServerOutcome]],
                    torn_after: int | None = None) -> None:
        """Persist one completed shard and mark it complete in the manifest.

        The shard file is written as append-only JSONL — one ``outcome`` line
        per server (carrying its population index) followed by a single
        ``shard-complete`` marker with the expected count — and flushed to
        disk before the manifest flips the shard to complete, so a crash
        between the two leaves a consistent "pending" shard that resume
        simply re-runs. The file is opened in truncating mode, so rewriting
        a shard left torn by an earlier crash is self-healing.

        Args:
            shard_index: Which shard the outcomes belong to.
            outcomes: ``(population_index, outcome)`` pairs for every server
                of the shard.
            torn_after: Fault injection only — cut the write after this many
                outcome records (plus half of the next line) and raise
                :class:`TornWriteError`, simulating a crash mid-write. The
                manifest keeps the shard pending.

        Raises:
            CheckpointError: If the shard was already marked complete
                (duplicate shard completion).
            TornWriteError: When ``torn_after`` triggered the simulated
                crash.
        """
        if self.shard_status(shard_index) == SHARD_COMPLETE:
            raise CheckpointError(
                f"duplicate completion of shard {shard_index} in "
                f"{self.directory}: the manifest already marks it complete. "
                "Two writers are racing on the same checkpoint",
                path=self.shard_path(shard_index),
                hint="run one invocation at a time, or merge what is "
                     "already there")
        path = self.shard_path(shard_index)
        records = ({"kind": "outcome", "index": index,
                    "outcome": outcome.to_json_dict()}
                   for index, outcome in outcomes)
        marker = {"kind": "shard-complete", "shard": shard_index,
                  "count": len(outcomes)}
        if not write_records(path, records, marker, torn_after=torn_after):
            raise TornWriteError(
                f"shard file {path} write torn after {torn_after} records "
                "(injected torn_checkpoint fault); the shard stays pending",
                path=path,
                hint="resume the census; the pending shard is "
                     "rewritten from scratch")
        self.manifest["shards"][str(shard_index)] = SHARD_COMPLETE
        self._write_manifest()

    def _write_manifest(self) -> None:
        """Atomically rewrite the manifest (write + fsync temp, then rename)."""
        write_json_atomic(self.directory / MANIFEST_NAME, self.manifest)

    # -------------------------------------------------------------- reading
    def load_shard(self, shard_index: int) -> list[tuple[int, ServerOutcome]]:
        """Read one completed shard back, validating it end to end.

        Args:
            shard_index: Which shard to load.

        Returns:
            The shard's ``(population_index, outcome)`` pairs in file order.

        Raises:
            CheckpointError: On a missing file, a truncated or unparsable
                line, a duplicate ``shard-complete`` marker, a record-count
                mismatch, a malformed outcome record, or a marker naming a
                different shard. Duplicate population indices are
                :meth:`merge_report`'s check.
        """
        path = self.shard_path(shard_index)
        read = read_records(path, kinds=("outcome",), counted="outcome",
                            marker="shard-complete", count_field="count",
                            error=CheckpointError, hint=_SHARD_HINT)
        if read is None:
            raise CheckpointError(
                f"shard file {path} is missing although the manifest marks "
                f"shard {shard_index} complete; the checkpoint directory was "
                "partially deleted",
                path=path,
                hint="reset the shard to \"pending\" in the manifest, or "
                     "start a fresh checkpoint")
        records, marker = read
        if marker.get("shard", shard_index) != shard_index:
            raise CheckpointError(
                f"shard file {path} carries a completion marker for shard "
                f"{marker['shard']!r}; files were moved between checkpoints",
                path=path,
                hint="restore the original layout or start a fresh "
                     "checkpoint")
        outcomes: list[tuple[int, ServerOutcome]] = []
        for line_number, record in records:
            try:
                index = int(record["index"])
                outcome = ServerOutcome.from_json_dict(record["outcome"])
            except (KeyError, TypeError, ValueError) as error:
                raise CheckpointError(
                    f"shard file {path} line {line_number} is structurally "
                    f"invalid ({error!r}: missing or malformed field)",
                    path=path, hint=_SHARD_HINT) from error
            outcomes.append((index, outcome))
        return outcomes

    def merge_report(self, expected_size: int | None = None) -> CensusReport:
        """Merge every completed shard into one :class:`CensusReport`.

        Outcomes are ordered by population index, which makes the merged
        report bit-identical to a monolithic run over the same population.

        Args:
            expected_size: Population size to validate against (defaults to
                the size recorded in the manifest).

        Returns:
            The merged report.

        Raises:
            CheckpointError: If shards are still pending, any shard fails
                validation, a population index appears twice, or the merged
                size does not match the population size.
        """
        pending = self.pending_shards()
        if pending:
            raise CheckpointError(
                f"cannot merge {self.directory}: shards {pending} are still "
                "pending",
                path=self.directory / MANIFEST_NAME,
                hint="resume the census first (python -m repro.census resume)")
        merged: dict[int, ServerOutcome] = {}
        for shard_index in range(self.num_shards):
            for index, outcome in self.load_shard(shard_index):
                if index in merged:
                    raise CheckpointError(
                        f"population index {index} appears twice in the "
                        f"shards of {self.directory} (again in shard "
                        f"{shard_index}); the shard files are inconsistent",
                        path=self.shard_path(shard_index),
                        hint="start a fresh checkpoint")
                merged[index] = outcome
        if expected_size is None:
            expected_size = self.manifest.get("population_size")
        if expected_size is not None and len(merged) != expected_size:
            raise CheckpointError(
                f"checkpoint {self.directory} merges {len(merged)} outcomes "
                f"but the population has {expected_size} servers; shard files "
                "are incomplete",
                path=self.directory / MANIFEST_NAME,
                hint="re-run the missing shards")
        report = CensusReport()
        for index in sorted(merged):
            report.add(merged[index])
        return report
