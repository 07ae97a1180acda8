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
message that says which file is bad and what to do about it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.results import CensusReport, ServerOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.census import CensusConfig
    from repro.web.population import ServerPopulation

#: On-disk format version; bumped on any incompatible layout change.
CHECKPOINT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Shard status values stored in the manifest.
SHARD_PENDING = "pending"
SHARD_COMPLETE = "complete"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, corrupt, or from a different run.

    Besides the human-readable message, carries structured context so
    callers (the CLI, the chaos harness) can point at the offending file and
    print a one-line recovery hint without parsing the message text.

    Attributes:
        path: The file the error is about (``None`` when not file-specific).
        hint: One-line recovery suggestion (``None`` when the message is
            self-contained).
    """

    def __init__(self, message: str, *, path: "str | Path | None" = None,
                 hint: str | None = None):
        """Build the error with optional structured context.

        Args:
            message: The full human-readable description.
            path: The offending file, when one is identifiable.
            hint: One-line recovery suggestion.
        """
        super().__init__(message)
        self.path = Path(path) if path is not None else None
        self.hint = hint


class TornWriteError(CheckpointError):
    """A shard write was (deliberately) cut short mid-file.

    Raised only by fault injection (``torn_checkpoint`` in a
    :class:`~repro.faults.plan.FaultPlan`): the shard file is left truncated
    — exactly what a crash during :meth:`CensusCheckpoint.write_shard` would
    leave — and the manifest still marks the shard pending, so a subsequent
    resume re-runs and rewrites it. Callers simulating crashes catch this
    where a real crash would have killed the process.
    """


def write_json_atomic(path: str | Path, payload: dict) -> None:
    """Durably replace ``path`` with a JSON document (write temp + rename).

    The temp file is fsynced before the rename and the directory is fsynced
    after it, so a crash at any point leaves either the old file or the new
    one — never a torn manifest. Shared by the census checkpoint and the
    experiment artifact store (:mod:`repro.experiments.store`).

    Args:
        path: Destination file path.
        payload: JSON-serialisable manifest content.
    """
    path = Path(path)
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(payload, indent=2, sort_keys=True))
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temp, path)
    # Persist the rename itself, so a power loss cannot leave an empty
    # manifest pointing at durably written data files.
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


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
    digest = hashlib.sha256(f"{seed}:{server_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


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
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


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
    digest = hashlib.sha256()
    digest.update(repr((classifier.n_trees, classifier.max_features,
                        classifier.confidence_threshold,
                        classifier.seed)).encode("utf-8"))
    if classifier.is_trained:
        forest = classifier.forest
        digest.update(repr(forest.classes()).encode("utf-8"))
        for tree in forest._trees:  # noqa: SLF001 - deliberate deep fingerprint
            flat = tree.flat_tree
            for array in (flat.feature, flat.threshold, flat.left, flat.right,
                          flat.prediction, flat.leaf_class_counts):
                digest.update(array.tobytes())
    return digest.hexdigest()


def _condition_database_digest(database) -> str | None:
    if database is None:
        return None
    digest = hashlib.sha256()
    for array in (database.average_rtts, database.rtt_stds, database.loss_rates):
        digest.update(np.asarray(array, dtype=float).tobytes())
    return digest.hexdigest()


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
                f"checkpoint already exists at {manifest_path}; use resume, "
                "or point --checkpoint at an empty directory to start over",
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
        if not manifest_path.exists():
            raise CheckpointError(
                f"no checkpoint manifest at {manifest_path}; run a sharded "
                "census first (python -m repro.census run)",
                path=manifest_path,
                hint="run a sharded census first (python -m repro.census run)")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} is not valid JSON "
                f"({error}); the file is corrupt — delete the checkpoint "
                "directory and rerun",
                path=manifest_path,
                hint="delete the checkpoint directory and rerun") from error
        version = manifest.get("format")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} has format version "
                f"{version!r}, this code reads version "
                f"{CHECKPOINT_FORMAT_VERSION}; rerun the census with a fresh "
                "checkpoint directory",
                path=manifest_path,
                hint="rerun the census with a fresh checkpoint directory")
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
                "incompatible results — rerun with the original settings or "
                "start a fresh checkpoint directory",
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
                "Two writers are racing on the same checkpoint — run one "
                "invocation at a time, or merge what is already there",
                path=self.shard_path(shard_index),
                hint="run one invocation at a time, or merge what is "
                     "already there")
        path = self.shard_path(shard_index)
        with open(path, "w", encoding="utf-8") as stream:
            for count, (index, outcome) in enumerate(outcomes):
                line = json.dumps({"kind": "outcome", "index": index,
                                   "outcome": outcome.to_json_dict()},
                                  sort_keys=True)
                if torn_after is not None and count >= torn_after:
                    # Write half a record with no newline — the exact
                    # footprint of a process dying mid-``write`` — and stop
                    # before the completion marker or the manifest flip.
                    stream.write(line[:max(1, len(line) // 2)])
                    stream.flush()
                    os.fsync(stream.fileno())
                    raise TornWriteError(
                        f"shard file {path} write torn after {count} records "
                        "(injected torn_checkpoint fault); the shard stays "
                        "pending — resume re-runs and rewrites it",
                        path=path,
                        hint="resume the census; the pending shard is "
                             "rewritten from scratch")
                stream.write(line + "\n")
            stream.write(json.dumps({"kind": "shard-complete",
                                     "shard": shard_index,
                                     "count": len(outcomes)}) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
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
                mismatch, a duplicate population index, or a marker naming a
                different shard.
        """
        path = self.shard_path(shard_index)
        if not path.exists():
            raise CheckpointError(
                f"shard file {path} is missing although the manifest marks "
                f"shard {shard_index} complete; the checkpoint directory was "
                "partially deleted — rerun the shard by resetting it to "
                "pending in the manifest, or start a fresh checkpoint",
                path=path,
                hint="reset the shard to \"pending\" in the manifest, or "
                     "start a fresh checkpoint")
        raw = path.read_text(encoding="utf-8")
        if raw and not raw.endswith("\n"):
            raise CheckpointError(
                f"shard file {path} ends in a truncated line (no trailing "
                "newline): the writing process died mid-record. Delete the "
                "file and set the shard back to \"pending\" in the manifest "
                "(or start a fresh checkpoint) so resume re-runs it",
                path=path,
                hint="delete the file and set the shard back to \"pending\" "
                     "in the manifest so resume re-runs it")
        outcomes: list[tuple[int, ServerOutcome]] = []
        seen_indices: set[int] = set()
        complete_count: int | None = None
        for line_number, line in enumerate(raw.splitlines(), start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise CheckpointError(
                    f"shard file {path} line {line_number} is not valid JSON "
                    f"({error}); the file is corrupt — delete it and set the "
                    "shard back to \"pending\" in the manifest so resume "
                    "re-runs it",
                    path=path,
                    hint="delete the file and set the shard back to "
                         "\"pending\" in the manifest so resume re-runs "
                         "it") from error
            kind = record.get("kind") if isinstance(record, dict) else None
            try:
                if kind == "outcome":
                    if complete_count is not None:
                        raise CheckpointError(
                            f"shard file {path} has outcome records after the "
                            "shard-complete marker (two writers appended to the "
                            "same shard); delete the file and re-run the shard",
                            path=path,
                            hint="delete the file and re-run the shard")
                    index = int(record["index"])
                    if index in seen_indices:
                        raise CheckpointError(
                            f"shard file {path} repeats population index {index} "
                            f"(line {line_number}); the shard was written twice — "
                            "delete the file and re-run the shard",
                            path=path,
                            hint="delete the file and re-run the shard")
                    seen_indices.add(index)
                    outcomes.append(
                        (index, ServerOutcome.from_json_dict(record["outcome"])))
                elif kind == "shard-complete":
                    if complete_count is not None:
                        raise CheckpointError(
                            f"shard file {path} carries two shard-complete "
                            "markers (duplicate shard completion); delete the "
                            "file and re-run the shard",
                            path=path,
                            hint="delete the file and re-run the shard")
                    marked_shard = record.get("shard")
                    if marked_shard is not None and int(marked_shard) != shard_index:
                        raise CheckpointError(
                            f"shard file {path} carries a completion marker for "
                            f"shard {marked_shard}; files were moved between "
                            "checkpoints — restore the original layout or start "
                            "a fresh checkpoint",
                            path=path,
                            hint="restore the original layout or start a "
                                 "fresh checkpoint")
                    complete_count = int(record["count"])
                else:
                    raise CheckpointError(
                        f"shard file {path} line {line_number} has unknown record "
                        f"kind {kind!r}; the checkpoint was written by an "
                        "incompatible version — start a fresh checkpoint",
                        path=path,
                        hint="start a fresh checkpoint")
            except (KeyError, TypeError, ValueError) as error:
                raise CheckpointError(
                    f"shard file {path} line {line_number} is structurally "
                    f"invalid ({error!r}: missing or malformed field); the "
                    "file is corrupt — delete it and set the shard back to "
                    "\"pending\" in the manifest so resume re-runs it",
                    path=path,
                    hint="delete the file and set the shard back to "
                         "\"pending\" in the manifest so resume re-runs "
                         "it") from error
        if complete_count is None:
            raise CheckpointError(
                f"shard file {path} has no shard-complete marker: the shard "
                "never finished. Set it back to \"pending\" in the manifest "
                "so resume re-runs it",
                path=path,
                hint="set the shard back to \"pending\" in the manifest so "
                     "resume re-runs it")
        if complete_count != len(outcomes):
            raise CheckpointError(
                f"shard file {path} records {len(outcomes)} outcomes but its "
                f"completion marker expects {complete_count}; the file lost "
                "lines — delete it and re-run the shard",
                path=path,
                hint="delete the file and re-run the shard")
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
                validation, the same population index appears in two shards,
                or the merged size does not match the population size.
        """
        pending = self.pending_shards()
        if pending:
            raise CheckpointError(
                f"cannot merge {self.directory}: shards {pending} are still "
                "pending — resume the census first "
                "(python -m repro.census resume)",
                path=self.directory / MANIFEST_NAME,
                hint="resume the census first (python -m repro.census resume)")
        merged: dict[int, ServerOutcome] = {}
        for shard_index in range(self.num_shards):
            for index, outcome in self.load_shard(shard_index):
                if index in merged:
                    raise CheckpointError(
                        f"population index {index} appears in more than one "
                        f"shard of {self.directory}; the shard files are "
                        "inconsistent — start a fresh checkpoint",
                        path=self.shard_path(shard_index),
                        hint="start a fresh checkpoint")
                merged[index] = outcome
        if expected_size is None:
            expected_size = self.manifest.get("population_size")
        if expected_size is not None and len(merged) != expected_size:
            raise CheckpointError(
                f"checkpoint {self.directory} merges {len(merged)} outcomes "
                f"but the population has {expected_size} servers; shard files "
                "are incomplete — re-run the missing shards",
                path=self.directory / MANIFEST_NAME,
                hint="re-run the missing shards")
        report = CensusReport()
        for index in sorted(merged):
            report.add(merged[index])
        return report
