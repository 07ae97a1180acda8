"""Persistable trained-model artifacts (the serving layer's model format).

Training the paper's random forest takes seconds to minutes; serving must
not. This module serialises a trained
:class:`~repro.core.classifier.CaaiClassifier` — the flat stacked-forest
node tables (:class:`~repro.ml.decision_tree.FlatTree` arrays), the
classifier/extractor configuration and the classifier fingerprint — into one
versioned artifact file that a serving process loads back in milliseconds:
the stored arrays become each tree's ``FlatTree``, the only form a fitted
tree has, so a load walks no tree.

The on-disk layout is a small self-describing container::

    CAAI-MODEL v1\\n          magic + format version (ASCII line)
    <header-bytes>\\n          decimal length of the JSON header
    {...}                      JSON header (configuration, classes, per-tree
                               array descriptors, payload checksum)
    <payload>                  the raw little-endian array bytes, exactly
                               header["payload_nbytes"] of them

Every load verifies the container end to end — magic, version, header
integrity, payload length and SHA-256 checksum, and finally that the
reconstructed classifier's fingerprint
(:func:`~repro.core.checkpoint.classifier_fingerprint`) equals the one
recorded at save time. Equal fingerprints guarantee bit-identical
classification, so serving from an artifact is byte-identical to
retrain-and-run. Corruption fails loudly with a structured
:class:`ModelArtifactError` (a :class:`~repro.store.StoreError`, like the
checkpoint layer's :class:`~repro.core.checkpoint.CheckpointError`), never
silently. A save is durable: the container is written through
:func:`repro.store.write_atomic`, so a crash leaves the old artifact or the
new one, never a torn file.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.checkpoint import classifier_fingerprint
from repro.core.classifier import CaaiClassifier
from repro.core.features import FeatureExtractor
from repro.ml.decision_tree import DecisionTreeClassifier, FlatTree
from repro.ml.random_forest import RandomForestClassifier
from repro.store import StoreError, digest, write_atomic

#: Magic token opening every artifact file.
MODEL_ARTIFACT_MAGIC = "CAAI-MODEL"

#: On-disk artifact format version; bumped on any incompatible change.
MODEL_ARTIFACT_VERSION = 1

#: The serialised dtype of every array kind (little-endian, fixed width, so
#: artifacts are portable across platforms; index arrays are restored to the
#: platform's ``intp`` on load).
_ARRAY_DTYPES = {
    "feature": "<i8",
    "threshold": "<f8",
    "left": "<i8",
    "right": "<i8",
    "prediction": "<i8",
    "leaf_class_counts": "<i8",
}

#: The dtype every array kind is restored to in memory (must match what
#: ``fit`` produces, so fingerprints — which hash raw bytes — are identical).
_MEMORY_DTYPES = {
    "feature": np.intp,
    "threshold": np.float64,
    "left": np.intp,
    "right": np.intp,
    "prediction": np.intp,
    "leaf_class_counts": np.int64,
}


class ModelArtifactError(StoreError):
    """A model artifact is missing, corrupt, truncated, or version-skewed."""


_REFIT_HINT = "re-fit the artifact (python -m repro.model fit)"


def save_model(classifier: CaaiClassifier, path: str | Path, *,
               metadata: dict | None = None) -> dict:
    """Serialise a trained classifier to a versioned artifact file.

    Args:
        classifier: A trained :class:`~repro.core.classifier.CaaiClassifier`.
        path: Destination file (parent directories are created).
        metadata: Optional free-form JSON-serialisable provenance (the model
            CLI stores the training settings and fit time here); returned
            verbatim by :func:`inspect_model`.

    Returns:
        The artifact header that was written (fingerprint, sizes, classes).

    Raises:
        ModelArtifactError: If the classifier has not been trained.
    """
    if not classifier.is_trained:
        raise ModelArtifactError(
            "cannot save an untrained classifier",
            hint="train it first (or use python -m repro.model fit)")
    path = Path(path)
    forest = classifier.forest
    chunks: list[bytes] = []
    trees = []
    offset = 0
    for tree in forest.trees:
        flat = tree.flat_tree
        arrays = {}
        for name in _ARRAY_DTYPES:
            raw = np.ascontiguousarray(getattr(flat, name),
                                       dtype=_ARRAY_DTYPES[name]).tobytes()
            arrays[name] = {
                "shape": list(getattr(flat, name).shape),
                "offset": offset,
                "nbytes": len(raw),
            }
            chunks.append(raw)
            offset += len(raw)
        trees.append({"classes": tree.classes(), "arrays": arrays})
    payload = b"".join(chunks)
    extractor = classifier.extractor
    header = {
        "format": MODEL_ARTIFACT_VERSION,
        "classifier": {
            "n_trees": classifier.n_trees,
            "max_features": classifier.max_features,
            "confidence_threshold": classifier.confidence_threshold,
            "seed": classifier.seed,
        },
        "extractor": {
            "boundary_search_start_fraction":
                extractor.boundary_search_start_fraction,
            "first_growth_offset": extractor.first_growth_offset,
            "min_ack_loss": extractor.min_ack_loss,
            "max_ack_loss": extractor.max_ack_loss,
        },
        "classes": forest.classes(),
        "trees": trees,
        "fingerprint": classifier_fingerprint(classifier),
        "payload_nbytes": len(payload),
        "payload_sha256": digest(payload),
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, b"".join((
        f"{MODEL_ARTIFACT_MAGIC} v{MODEL_ARTIFACT_VERSION}\n".encode("ascii"),
        f"{len(header_bytes)}\n".encode("ascii"),
        header_bytes,
        payload)))
    return header


def load_model(path: str | Path) -> CaaiClassifier:
    """Load a trained classifier back from an artifact file, verified.

    The reconstructed classifier's fingerprint is recomputed and compared to
    the one recorded at save time, so a successful load *guarantees* the
    classifier votes bit-identically to the one that was saved.

    Args:
        path: An artifact file written by :func:`save_model`.

    Returns:
        The trained :class:`~repro.core.classifier.CaaiClassifier`.

    Raises:
        ModelArtifactError: On a missing file, wrong magic, version skew, a
            truncated or unparsable header, a short or tampered payload, or
            a fingerprint mismatch after reconstruction.
    """
    path = Path(path)
    header, payload = _read_container(path)
    classifier = _reconstruct(header, payload, path)
    fingerprint = classifier_fingerprint(classifier)
    recorded = header.get("fingerprint")
    if fingerprint != recorded:
        raise ModelArtifactError(
            f"model artifact {path} is internally inconsistent: the "
            f"reconstructed classifier fingerprints as {fingerprint} but the "
            f"artifact records {recorded}. The file was altered after it was "
            "written",
            path=path, hint=_REFIT_HINT)
    return classifier


def inspect_model(path: str | Path) -> dict:
    """Summarise an artifact without reconstructing the classifier.

    Args:
        path: An artifact file written by :func:`save_model`.

    Returns:
        A dict with the format version, fingerprint, configuration,
        classes, tree/node counts, payload size and stored metadata.

    Raises:
        ModelArtifactError: If the container fails any structural check
            (the payload checksum is verified; trees are not rebuilt).
    """
    path = Path(path)
    header, payload = _read_container(path)
    trees = header.get("trees", [])
    nodes = sum(tree["arrays"]["feature"]["shape"][0] for tree in trees)
    return {
        "path": str(path),
        "format": header["format"],
        "fingerprint": header["fingerprint"],
        "classifier": header["classifier"],
        "extractor": header["extractor"],
        "classes": header["classes"],
        "n_trees": len(trees),
        "total_nodes": nodes,
        "payload_nbytes": header["payload_nbytes"],
        "metadata": header.get("metadata", {}),
    }


def timed_load(path: str | Path) -> tuple[CaaiClassifier, float]:
    """Load an artifact and report the wall-clock cost of doing so.

    Args:
        path: An artifact file written by :func:`save_model`.

    Returns:
        ``(classifier, seconds)`` — the loaded classifier and the cold-start
        load time.

    Raises:
        ModelArtifactError: As for :func:`load_model`.
    """
    start = time.perf_counter()
    classifier = load_model(path)
    return classifier, time.perf_counter() - start


# -------------------------------------------------------------- internals
def _read_container(path: Path) -> tuple[dict, bytes]:
    """Read and structurally validate the artifact container."""
    if not path.exists():
        raise ModelArtifactError(
            f"no model artifact at {path}", path=path,
            hint="fit and save an artifact first (python -m repro.model fit)")
    raw = path.read_bytes()
    magic_end = raw.find(b"\n")
    magic = raw[:magic_end].decode("ascii", "replace") if magic_end > 0 else ""
    parts = magic.split()
    if len(parts) != 2 or parts[0] != MODEL_ARTIFACT_MAGIC:
        raise ModelArtifactError(
            f"{path} is not a CAAI model artifact (leading bytes "
            f"{raw[:24]!r})", path=path,
            hint="point --artifact at a file written by python -m repro.model")
    version = parts[1].lstrip("v")
    if not version.isdigit() or int(version) != MODEL_ARTIFACT_VERSION:
        raise ModelArtifactError(
            f"model artifact {path} has format version {parts[1]!r}, this "
            f"code reads version v{MODEL_ARTIFACT_VERSION}", path=path,
            hint="re-fit the artifact with this version of the code")
    length_end = raw.find(b"\n", magic_end + 1)
    length_text = raw[magic_end + 1:length_end] if length_end > 0 else b""
    if not length_text.isdigit():
        raise ModelArtifactError(
            f"model artifact {path} has a corrupt header-length line "
            f"({length_text!r}); the file is damaged",
            path=path, hint=_REFIT_HINT)
    header_start = length_end + 1
    header_end = header_start + int(length_text)
    if len(raw) < header_end:
        raise ModelArtifactError(
            f"model artifact {path} is truncated inside its header "
            f"(need {header_end} bytes, file has {len(raw)}); the save was "
            "cut short",
            path=path, hint=_REFIT_HINT)
    try:
        header = json.loads(raw[header_start:header_end].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ModelArtifactError(
            f"model artifact {path} has an unparsable header ({error}); the "
            "file is damaged",
            path=path, hint=_REFIT_HINT) from error
    payload = raw[header_end:]
    try:
        expected_nbytes = int(header["payload_nbytes"])
        expected_sha = header["payload_sha256"]
        header["format"], header["fingerprint"], header["classes"]
        header["classifier"], header["extractor"], header["trees"]
    except (KeyError, TypeError, ValueError) as error:
        raise ModelArtifactError(
            f"model artifact {path} header is missing required fields "
            f"({error!r}); the file is damaged",
            path=path, hint=_REFIT_HINT) from error
    if len(payload) < expected_nbytes:
        raise ModelArtifactError(
            f"model artifact {path} is truncated: the header declares "
            f"{expected_nbytes} payload bytes but only {len(payload)} are "
            "present. The save was cut short",
            path=path, hint=_REFIT_HINT)
    if len(payload) > expected_nbytes:
        raise ModelArtifactError(
            f"model artifact {path} carries {len(payload) - expected_nbytes} "
            "bytes of trailing garbage after the declared payload; the file "
            "was appended to",
            path=path, hint=_REFIT_HINT)
    computed = digest(payload)
    if computed != expected_sha:
        raise ModelArtifactError(
            f"model artifact {path} payload checksum mismatch (stored "
            f"{expected_sha}, computed {computed}); the node tables were "
            "tampered with or bit-rotted",
            path=path, hint=_REFIT_HINT)
    return header, payload


def _reconstruct(header: dict, payload: bytes, path: Path) -> CaaiClassifier:
    """Rebuild the classifier from a validated container."""
    try:
        trees = []
        for entry in header["trees"]:
            arrays = {}
            for name, serialised in _ARRAY_DTYPES.items():
                descriptor = entry["arrays"][name]
                start = int(descriptor["offset"])
                stop = start + int(descriptor["nbytes"])
                flat = np.frombuffer(payload[start:stop], dtype=serialised)
                shape = tuple(int(d) for d in descriptor["shape"])
                arrays[name] = np.ascontiguousarray(
                    flat.reshape(shape).astype(_MEMORY_DTYPES[name]))
            trees.append(DecisionTreeClassifier.from_flat_tree(
                FlatTree(**arrays), entry["classes"],
                max_features=header["classifier"]["max_features"]))
        forest = RandomForestClassifier.from_fitted_trees(
            trees, header["classes"],
            max_features=int(header["classifier"]["max_features"]),
            seed=int(header["classifier"]["seed"]))
        extractor = FeatureExtractor(**header["extractor"])
        return CaaiClassifier.from_trained_forest(
            forest,
            confidence_threshold=float(
                header["classifier"]["confidence_threshold"]),
            extractor=extractor)
    except ModelArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ModelArtifactError(
            f"model artifact {path} header describes an invalid forest "
            f"({error!r}); the file is damaged",
            path=path, hint=_REFIT_HINT) from error
