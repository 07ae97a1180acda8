"""The one persistence layer: how every store writes, reads, rejects and
hashes what it keeps.

Its users, the census checkpoint, the experiment artifact cache, the serving
work queue and model artifacts, keep only the checks of their own formats.
Manifests, ``queue.json`` and model files are replaced atomically
(:func:`write_atomic`); record files are written in place and fsynced
(:func:`write_records`), and their count-marked framing
(:func:`read_records`) exposes a torn one. Versioned JSON documents carry a
``format`` field (:func:`read_json_object`). Every rejected file raises a
:class:`StoreError` with the file and a recovery hint.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable

import numpy as np


class StoreError(RuntimeError):
    """A persisted file is missing, corrupt, stale or from another version.

    Attributes:
        path: The file the error is about (``None`` when not file-specific).
        hint: One-line recovery suggestion (``None`` when there is none).
    """

    def __init__(self, message: str, *, path: "str | Path | None" = None,
                 hint: str | None = None):
        """Build the error; the hint, when given, ends the message.

        Args:
            message: What is wrong.
            path: The offending file, when one is identifiable.
            hint: One-line recovery suggestion.
        """
        super().__init__(f"{message} — {hint}" if hint else message)
        self.path = Path(path) if path is not None else None
        self.hint = hint


# -------------------------------------------------------------------- writing
def _sync(stream) -> None:
    stream.flush()
    os.fsync(stream.fileno())


def write_atomic(path: str | Path, data: bytes) -> None:
    """Durably replace ``path`` with ``data``.

    Writes and fsyncs a temp file, renames it into place, then fsyncs the
    directory, so a crash at any point leaves the old file or the new one,
    never a torn one.

    Args:
        path: Destination file.
        data: The complete new content.
    """
    path = Path(path)
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "wb") as stream:
        stream.write(data)
        _sync(stream)
    os.replace(temp, path)
    # Persist the rename itself, so a power loss cannot leave an empty
    # manifest pointing at durably written data files.
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def write_json_atomic(path: str | Path, document: dict) -> None:
    """:func:`write_atomic` of ``document`` as indented, key-sorted JSON."""
    write_atomic(path, json.dumps(document, indent=2,
                                  sort_keys=True).encode("utf-8"))


def write_records(path: str | Path, records: Iterable[dict], marker: dict, *,
                  torn_after: int | None = None) -> bool:
    """Write a count-marked JSONL record file (truncating) and fsync it.

    Args:
        path: Destination file.
        records: The body records, one key-sorted line each.
        marker: The closing marker with its count (keys in caller order).
        torn_after: Fault injection only: after this many records, write
            half of the next line and stop, as a crash mid-write would.

    Returns:
        ``False`` when ``torn_after`` cut the write short, else ``True``.
    """
    with open(path, "w", encoding="utf-8") as stream:
        for count, record in enumerate(records):
            line = json.dumps(record, sort_keys=True)
            if torn_after is not None and count >= torn_after:
                stream.write(line[:max(1, len(line) // 2)])
                _sync(stream)
                return False
            stream.write(line + "\n")
        stream.write(json.dumps(marker) + "\n")
        _sync(stream)
    return True


# -------------------------------------------------------------------- reading
def read_json_object(path: str | Path, version: int,
                     error: type[StoreError], hint: str) -> dict | None:
    """Read a versioned JSON document (a manifest or ``queue.json``).

    Args:
        path: The document.
        version: The ``format`` value this code reads.
        error: The caller's :class:`StoreError` subclass.
        hint: Recovery hint for a rejected file.

    Returns:
        The parsed object, or ``None`` when the file does not exist.

    Raises:
        StoreError: As ``error``, if the file is not JSON, not a JSON
            object, or of another format version.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError as problem:
        raise error(f"{path} is not valid JSON ({problem}); the file is "
                    "corrupt", path=path, hint=hint) from problem
    if not isinstance(document, dict):
        raise error(f"{path} holds a JSON {type(document).__name__}, not an "
                    "object; the file is corrupt", path=path, hint=hint)
    found = document.get("format")
    if found != version:
        raise error(f"{path} has format version {found!r}, this code reads "
                    f"version {version}", path=path, hint=hint)
    return document


def read_records(path: str | Path, *, kinds: tuple[str, ...], counted: str,
                 marker: str, count_field: str, error: type[StoreError],
                 hint: str) -> tuple[list[tuple[int, dict]], dict] | None:
    """Read a count-marked JSONL record file, checking its framing only.

    The file must end in a newline, hold one JSON object per line, each of
    a known kind, and close with exactly one ``marker`` whose
    ``count_field`` equals the number of ``counted`` records.

    Args:
        path: The record file.
        kinds: The record kinds allowed before the marker.
        counted: The kind (one of ``kinds``) the marker counts.
        marker: The kind of the closing marker.
        count_field: The marker field holding the count.
        error: The caller's :class:`StoreError` subclass.
        hint: Recovery hint for a rejected file.

    Returns:
        The body records as ``(line_number, record)`` pairs in file order
        and the marker record, or ``None`` when the file does not exist.

    Raises:
        StoreError: As ``error``, on any framing violation.
    """
    path = Path(path)

    def reject(problem: str):
        return error(f"{path} {problem}", path=path, hint=hint)

    try:
        raw = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except ValueError as problem:
        raise reject(f"is not UTF-8 text ({problem}); the file is "
                     "corrupt") from problem
    if raw and not raw.endswith("\n"):
        raise reject("ends in a truncated line (no trailing newline): the "
                     "writing process died mid-record")
    records: list[tuple[int, dict]] = []
    closing: dict | None = None
    for line_number, line in enumerate(raw.splitlines(), start=1):
        try:
            record = json.loads(line)
        except ValueError as problem:
            raise reject(f"line {line_number} is not valid JSON ({problem}); "
                         "the file is corrupt") from problem
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == marker:
            if closing is not None:
                raise reject(f"carries two {marker} markers (two writers "
                             "raced on it)")
            closing = record
        elif kind in kinds:
            if closing is not None:
                raise reject(f"line {line_number} follows the {marker} "
                             "marker (two writers appended to it)")
            records.append((line_number, record))
        else:
            raise reject(f"line {line_number} has unknown record kind "
                         f"{kind!r}; an incompatible version wrote it")
    if closing is None:
        raise reject(f"has no {marker} marker: the write never finished")
    try:
        expected = int(closing[count_field])
    except (KeyError, TypeError, ValueError) as problem:
        raise reject(f"{marker} marker is structurally invalid ({problem!r}: "
                     f"missing or malformed {count_field!r})") from problem
    found = sum(1 for _, record in records if record["kind"] == counted)
    if expected != found:
        raise reject(f"holds {found} {counted} records but its {marker} "
                     f"marker expects {expected}; the file lost lines")
    return records, closing


# --------------------------------------------------------------------- hashes
def digest(*parts: "bytes | str | np.ndarray") -> str:
    """Hex SHA-256 over ``parts`` in order.

    Bytes are hashed as they are, text as UTF-8 and arrays as their raw
    C-order bytes.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        elif isinstance(part, np.ndarray):
            part = part.tobytes()
        hasher.update(part)
    return hasher.hexdigest()


def fingerprint(obj) -> str:
    """The :func:`digest` of ``obj`` as key-sorted JSON."""
    return digest(json.dumps(obj, sort_keys=True))


def key_bytes(*keys) -> bytes:
    """The first 8 bytes of the SHA-256 of ``str(key)`` joined with ``:``.

    Callers (shard assignment, fault draws, the evasion stream) read them as
    an integer in their own byte order.
    """
    return hashlib.sha256(
        ":".join(str(key) for key in keys).encode("utf-8")).digest()[:8]
