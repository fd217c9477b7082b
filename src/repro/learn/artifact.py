"""Frozen learned-policy artifacts.

An artifact is a single JSON file carrying everything the serving
path needs: the network weights, the feature schema they were trained
against (drift guard — serving refuses a schema mismatch), and the
training provenance (trainer config, episode count, final reward
statistics).  The file is written atomically and deterministically —
``sort_keys=True``, fixed separators, **no timestamps** — so training
twice with the same seed produces byte-identical files, which the
tier-1 determinism test asserts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from ..observability.journal import atomic_write
from .features import FEATURE_VERSION, feature_schema

__all__ = [
    "ARTIFACT_ENV_VAR",
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "PRETRAINED_PATH",
    "load_artifact",
    "make_artifact",
    "write_artifact",
]

ARTIFACT_FORMAT = "repro-learned-policy"
ARTIFACT_VERSION = 1

#: Environment variable the learned SAP consults for a frozen artifact
#: path.  Environment variables propagate into the lab's cell worker
#: subprocesses, so this is how ``learned-vs-pop`` evaluation cells
#: find the artifact trained in the parent process.
ARTIFACT_ENV_VAR = "REPRO_LEARNED_ARTIFACT"

#: The committed default artifact (the exact output of
#: ``train_policy(TrainerConfig())`` — byte-reproducible, so the file
#: is data, not an opaque binary).  The learned SAP falls back to it
#: when neither a constructor path nor :data:`ARTIFACT_ENV_VAR` names
#: one, which is what makes ``repro sweep run --study learned-vs-pop``
#: work out of the box.
PRETRAINED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "pretrained", "cifar10.json"
)


def make_artifact(
    weights: Dict[str, Any],
    hidden: int,
    provenance: Dict[str, Any],
) -> Dict[str, Any]:
    """Assemble the artifact document (pure; no I/O)."""
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "feature_schema": feature_schema(),
        "hidden": int(hidden),
        "weights": weights,
        "provenance": provenance,
    }


def write_artifact(path: str, artifact: Dict[str, Any]) -> None:
    """Atomically write ``artifact`` as deterministic JSON."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = json.dumps(
        artifact, sort_keys=True, separators=(",", ":"), indent=None
    )
    atomic_write(path, payload)


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and validate a frozen-policy artifact."""
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: not a {ARTIFACT_FORMAT} artifact "
            f"(format={artifact.get('format')!r})"
        )
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"{path}: unsupported artifact version "
            f"{artifact.get('version')!r} (expected {ARTIFACT_VERSION})"
        )
    schema = artifact.get("feature_schema") or {}
    if schema.get("version") != FEATURE_VERSION:
        raise ValueError(
            f"{path}: feature schema version {schema.get('version')!r} "
            f"does not match serving code ({FEATURE_VERSION}); retrain"
        )
    expected = feature_schema()["names"]
    if schema.get("names") != expected:
        raise ValueError(
            f"{path}: feature names {schema.get('names')!r} do not match "
            f"serving code {expected!r}; retrain"
        )
    if "weights" not in artifact:
        raise ValueError(f"{path}: artifact has no weights")
    return artifact
