"""Content-addressed artifact store for study cells.

Layout under one study directory::

    <root>/study.json      the StudySpec that owns this store
    <root>/cells/<key>.json   one completed cell (resolved config +
                              ExperimentResult.to_dict() + wall time)
    <root>/journal.jsonl   append-only completion journal (audit aid)
    <root>/report.md       rendered report (written by the runner/CLI)
    <root>/report.json     machine-readable report

``<key>`` is the blake2b content address of the *resolved* cell config
(:meth:`repro.lab.spec.Cell.key`), so the same logical cell always
lands on the same file no matter which process — or which session —
executed it.  Cell files are written atomically (temp file +
``os.replace``), which is what makes a SIGKILLed study resumable: a
cell either exists completely or not at all, and
:meth:`CellStore.completed_keys` is exactly the set of work that never
needs to run again.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Set, Union

from ..framework.experiment import PoolTimeline
from ..observability.journal import Journal, atomic_write
from .spec import StudySpec

__all__ = ["StudyMismatchError", "CellStore"]


class StudyMismatchError(ValueError):
    """The store belongs to a different study spec (or spec version)."""


class CellStore:
    """Durable, content-addressed storage for one study's cells."""

    SPEC_FILE = "study.json"
    JOURNAL_FILE = "journal.jsonl"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.cells_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ spec

    @property
    def spec_path(self) -> Path:
        return self.root / self.SPEC_FILE

    def save_spec(self, spec: StudySpec) -> None:
        """Pin the study spec; refuses to overwrite a different one.

        Re-saving an identical spec is a no-op, which is what lets
        ``sweep run`` on an existing directory act as a resume.
        """
        payload = spec.to_dict()
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text())
            if existing != payload:
                raise StudyMismatchError(
                    f"{self.root} already holds study "
                    f"{existing.get('name')!r} with a different spec; "
                    "use a fresh --out directory"
                )
            return
        atomic_write(
            self.spec_path, json.dumps(payload, indent=2, sort_keys=True)
        )

    def load_spec(self) -> StudySpec:
        """The spec pinned in this store (raises if none saved yet)."""
        if not self.spec_path.exists():
            raise FileNotFoundError(
                f"{self.spec_path} does not exist — not a study directory?"
            )
        payload = json.loads(self.spec_path.read_text())
        stale = sorted(set(payload) - {f.name for f in fields(StudySpec)})
        if stale:
            raise StudyMismatchError(
                f"{self.spec_path} carries retired fields "
                f"({', '.join(stale)}): store written by repro < 1.6; "
                "re-run into a fresh --out"
            )
        return StudySpec.from_dict(payload)

    # ------------------------------------------------------------ cells

    def cell_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.json"

    def has(self, key: str) -> bool:
        return self.cell_path(key).exists()

    def completed_keys(self) -> Set[str]:
        """Keys of every durably completed cell."""
        return {path.stem for path in self.cells_dir.glob("*.json")}

    def save_cell(self, key: str, payload: Dict[str, Any]) -> None:
        """Durably record one completed cell (atomic, idempotent)."""
        atomic_write(
            self.cell_path(key), json.dumps(payload, sort_keys=True)
        )
        telemetry = payload.get("telemetry") or {}
        journal_line = json.dumps(
            {
                "key": key,
                "label": payload.get("label"),
                "wall_seconds": payload.get("wall_seconds"),
                "cpu_seconds": telemetry.get("cpu_seconds"),
            },
            sort_keys=True,
        )
        with Journal(self.root / self.JOURNAL_FILE, fsync=True) as journal:
            journal.append(journal_line)

    def load_cell(self, key: str) -> Dict[str, Any]:
        """One completed cell, its result's pool timeline in the current
        form (cells are never rewritten)."""
        with open(self.cell_path(key), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        PoolTimeline.normalize(payload.get("result"))
        return payload

    def mtime_ns(self, key: str) -> int:
        """Nanosecond mtime of a completed cell (resume-skip evidence)."""
        return self.cell_path(key).stat().st_mtime_ns

    def journal(self) -> List[Dict[str, Any]]:
        """Completion journal entries, in completion order."""
        journal = Journal(self.root / self.JOURNAL_FILE)
        return [json.loads(line) for line in journal.lines()]

    # ------------------------------------------------------------ reports

    def write_report(self, markdown: str, payload: Dict[str, Any]) -> None:
        atomic_write(self.root / "report.md", markdown)
        atomic_write(
            self.root / "report.json",
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )

    @property
    def report_md_path(self) -> Path:
        return self.root / "report.md"

    @property
    def report_json_path(self) -> Path:
        return self.root / "report.json"
