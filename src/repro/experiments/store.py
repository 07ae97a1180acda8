"""Fingerprinted artifact cache of the experiment registry.

One :class:`ArtifactStore` manages one directory (one per scale profile):

* ``manifest.json`` — per-experiment status: the cache fingerprint the
  artifact was computed under, the artifact file name, its entry count and
  the wall-clock time of the computation. Rewritten atomically after every
  artifact (:func:`repro.store.write_json_atomic`, the same crash-safe write
  the census checkpoint uses).
* ``<experiment>.jsonl`` — the artifact itself as append-only JSONL: a
  ``header`` line carrying the fingerprint, one ``entry`` line per top-level
  payload key, and a final ``complete`` marker with the expected entry
  count.

An artifact is **current** when its recorded fingerprint equals the one the
runner computes for (experiment, profile, code) — see
:func:`repro.experiments.registry.experiment_fingerprint`. Current artifacts
make re-runs no-ops; anything else (changed profile, changed experiment
config, changed experiment code) re-computes.

Corruption is loud, never papered over: a truncated line, a missing
``complete`` marker, an entry-count mismatch or a fingerprint mismatch each
raise :class:`ArtifactError` naming the bad file and the fix. How files
are written, framed and hashed is :mod:`repro.store`'s decision.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.store import (
    StoreError,
    read_json_object,
    read_records,
    write_json_atomic,
    write_records,
)

#: On-disk format version; bumped on any incompatible layout change.
ARTIFACT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"


class ArtifactError(StoreError):
    """An artifact file or manifest is missing, corrupt, or stale."""


#: Recovery hint for a rejected or stale artifact file.
_RERUN_HINT = "re-run the experiment (python -m repro.report run)"


class ArtifactStore:
    """Manager of one artifact directory (manifest plus JSONL artifacts)."""

    def __init__(self, directory: str | Path, profile_name: str):
        """Bind the store to a directory; both are created lazily on write.

        Args:
            directory: The artifact directory of one scale profile.
            profile_name: Name of the profile the directory belongs to; a
                manifest recorded under a different profile is rejected.
        """
        self.directory = Path(directory)
        self.profile_name = profile_name
        self._manifest: dict | None = None

    # ------------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> Path:
        """Path of the store's ``manifest.json``."""
        return self.directory / MANIFEST_NAME

    def manifest(self) -> dict:
        """The parsed manifest (an empty skeleton when none exists yet).

        Returns:
            The manifest dict with ``format``, ``profile`` and per-experiment
            ``experiments`` entries.

        Raises:
            ArtifactError: If an existing manifest is unreadable, of an
                unsupported format version, or records a different profile.
        """
        if self._manifest is not None:
            return self._manifest
        manifest = read_json_object(
            self.manifest_path, ARTIFACT_FORMAT_VERSION, ArtifactError,
            f"delete the artifact directory and {_RERUN_HINT}")
        if manifest is None:
            manifest = {"format": ARTIFACT_FORMAT_VERSION,
                        "profile": self.profile_name, "experiments": {}}
        recorded = manifest.get("profile")
        if recorded != self.profile_name:
            raise ArtifactError(
                f"artifact directory {self.directory} holds artifacts of "
                f"profile {recorded!r}, not {self.profile_name!r}",
                path=self.manifest_path,
                hint="point --artifacts at a per-profile directory or "
                     "delete it")
        self._manifest = manifest
        return manifest

    def recorded_fingerprint(self, name: str) -> str | None:
        """Fingerprint the stored artifact was computed under.

        Args:
            name: Experiment name.

        Returns:
            The recorded hex digest, or ``None`` when no artifact exists.
        """
        entry = self.manifest()["experiments"].get(name)
        return entry.get("fingerprint") if entry else None

    def is_current(self, name: str, fingerprint: str) -> bool:
        """Whether a stored artifact makes re-running ``name`` a no-op.

        A corrupt or truncated artifact file is *not* current even when the
        manifest's fingerprint matches — otherwise ``run`` would report a
        cache hit while ``render`` keeps failing on the same bad file, with
        no path to recovery short of ``--force``.

        Args:
            name: Experiment name.
            fingerprint: The fingerprint of the contemplated run.

        Returns:
            True when an artifact exists, its recorded fingerprint matches,
            and its JSONL file validates end to end.
        """
        if self.recorded_fingerprint(name) != fingerprint:
            return False
        try:
            self.load(name, fingerprint)
        except ArtifactError:
            return False
        return True

    def artifact_path(self, name: str) -> Path:
        """Path of one experiment's JSONL artifact file.

        Args:
            name: Experiment name.

        Returns:
            The artifact path (which may not exist yet).
        """
        return self.directory / f"{name}.jsonl"

    # -------------------------------------------------------------- writing
    def write(self, name: str, fingerprint: str, payload: dict,
              elapsed_seconds: float = 0.0) -> None:
        """Persist one experiment's payload and update the manifest.

        The JSONL file is fully written and flushed before the manifest
        records the artifact, so a crash between the two leaves a stale
        manifest entry that a re-run simply overwrites.

        Args:
            name: Experiment name (also the artifact file stem).
            fingerprint: Cache fingerprint the payload was computed under.
            payload: JSON-serialisable dict; one JSONL entry per key.
            elapsed_seconds: Wall-clock time of the computation (recorded in
                the manifest for ``status``; never part of the payload, so
                artifacts and rendered output stay deterministic).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.artifact_path(name)
        header = {"kind": "header", "format": ARTIFACT_FORMAT_VERSION,
                  "experiment": name, "profile": self.profile_name,
                  "fingerprint": fingerprint}
        entries = ({"kind": "entry", "key": key, "value": value}
                   for key, value in payload.items())
        write_records(path, [header, *entries],
                      {"kind": "complete", "entries": len(payload)})
        manifest = self.manifest()
        manifest["experiments"][name] = {
            "fingerprint": fingerprint,
            "file": path.name,
            "entries": len(payload),
            "elapsed_seconds": round(float(elapsed_seconds), 3),
        }
        write_json_atomic(self.manifest_path, manifest)

    # -------------------------------------------------------------- reading
    def load(self, name: str, fingerprint: str | None = None) -> dict:
        """Read one artifact back, validating it end to end.

        Args:
            name: Experiment name.
            fingerprint: When given, the artifact's recorded fingerprint
                must match (pass the current fingerprint to reject stale
                artifacts at render time).

        Returns:
            The payload dict, keys in file order.

        Raises:
            ArtifactError: On a missing file, a truncated or unparsable
                line, a header/complete-marker problem, an entry-count
                mismatch, or a fingerprint mismatch.
        """
        path = self.artifact_path(name)
        read = read_records(path, kinds=("header", "entry"), counted="entry",
                            marker="complete", count_field="entries",
                            error=ArtifactError, hint=_RERUN_HINT)
        if read is None:
            raise ArtifactError(
                f"no artifact for experiment {name!r} at {path}", path=path,
                hint=f"run it first (python -m repro.report run --profile "
                     f"{self.profile_name} --only {name})")
        records, _ = read
        kinds = [record["kind"] for _, record in records]
        if kinds[:1] != ["header"] or "header" in kinds[1:]:
            raise ArtifactError(
                f"artifact file {path} does not open with exactly one "
                "header; the write never finished or two writers raced",
                path=path, hint=_RERUN_HINT)
        (_, header), *entries = records
        payload: dict = {}
        for line_number, record in entries:
            key = record.get("key")
            if not isinstance(key, str) or key in payload:
                raise ArtifactError(
                    f"artifact file {path} line {line_number} has a missing "
                    f"or duplicate entry key ({key!r})",
                    path=path, hint=_RERUN_HINT)
            payload[key] = record.get("value")
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise ArtifactError(
                f"artifact {path} is stale: it was computed under "
                f"fingerprint {header.get('fingerprint')!r} but the current "
                f"configuration/code fingerprints to {fingerprint!r}",
                path=path, hint=f"{_RERUN_HINT} before rendering")
        return payload

    # --------------------------------------------------------------- status
    def status(self) -> dict:
        """Machine-readable cache summary (what ``status`` prints).

        Returns:
            A dict with the directory, profile and per-experiment manifest
            entries.
        """
        manifest = self.manifest()
        return {
            "directory": str(self.directory),
            "profile": self.profile_name,
            "experiments": dict(manifest["experiments"]),
        }


def timed(function):
    """Call ``function()`` and return ``(result, elapsed_seconds)``.

    Args:
        function: Zero-argument callable.

    Returns:
        The function's result and its wall-clock duration.
    """
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started
