"""Pluggable event exporters (in-memory here; JSONL to disk is
:class:`~repro.observability.journal.Journal`).

Every audit record, span, and lifecycle mirror flows through one
:class:`EventExporter`.  The contract is a single ``export(event)``
call per event with a JSON-serialisable mapping, plus ``close``.
Exporters must tolerate numpy scalars in event payloads — scheduler
inputs (confidences, durations) frequently arrive as ``np.float64``.
"""

from __future__ import annotations

import abc
import json
from typing import Any, Dict, List, Mapping

__all__ = ["EventExporter", "InMemoryExporter"]


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars (and other number-likes) for json.dumps."""
    for caster in (float, int):
        try:
            return caster(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def encode_event(event: Mapping[str, Any]) -> str:
    """One event as a compact single-line JSON document."""
    return json.dumps(event, separators=(",", ":"), default=_json_default)


class EventExporter(abc.ABC):
    """Sink for observability events."""

    @abc.abstractmethod
    def export(self, event: Mapping[str, Any]) -> None:
        """Deliver one event (must not mutate it)."""

    def close(self) -> None:
        """Flush and release any resources; idempotent."""

    def __enter__(self) -> "EventExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class InMemoryExporter(EventExporter):
    """Collects events in a list (tests, result attachment)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def export(self, event: Mapping[str, Any]) -> None:
        self.events.append(dict(event))

