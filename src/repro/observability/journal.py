"""One append-only JSON-lines journal, and one atomic file write.

Every append-only JSONL file the product keeps is written and read
through :class:`Journal`: a run's event journal
(``<root>/journal/<id>.jsonl``), the daemon's ``broker.jsonl`` and
``cost.jsonl`` trails, a study's completion journal
(``<study>/journal.jsonl``) and ``--emit-events``.

Durability: every line is flushed to the operating system as it is
appended, so a killed process (SIGKILL included) loses no line it
reported written.  ``fsync=True`` also forces each line to the disk;
only the lab's completion journal pays for that.  The file is opened
lazily, on the first line, and always in append mode: constructing a
journal creates nothing, and a journal on an existing file (a daemon
restart, a resumed study) continues it.  A journal never truncates.

Reading: :meth:`Journal.lines` yields only newline-terminated lines, so
a reader racing the writer, or reading what a killed writer left, never
sees a torn last line.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Optional, Union

from .exporters import EventExporter, encode_event

__all__ = ["Journal", "atomic_write"]


class Journal(EventExporter):
    """An append-only JSONL file, one document per line.

    Appends are serialised by one lock: a journal is fed by many
    threads at once (driver threads finishing spans, the audit trail,
    the cluster monitor re-exporting worker telemetry).
    """

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._file: Optional[IO[str]] = None
        self._lock = threading.Lock()
        self.events_written = 0

    def append(self, line: str) -> None:
        """Append one line (given without its newline) and flush it."""
        with self._lock:
            if self._file is None:
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())
            self.events_written += 1

    def export(self, event: Mapping[str, Any]) -> None:
        self.append(encode_event(event))

    def lines(self, offset: int = 0) -> Iterator[str]:
        """The stored lines without their newlines, skipping the first
        ``offset``.  A last line the writer has not finished is left out;
        a file never written yields nothing."""
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return
        with handle:
            for index, line in enumerate(handle):
                if not line.endswith(b"\n"):
                    return
                if index >= offset:
                    yield line[:-1].decode("utf-8")

    def close(self) -> None:
        """Release the file (idempotent; a later append reopens it)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def atomic_write(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` through a synced sibling temp file and
    a rename, so readers (and kills) see the old file or the new one,
    never a part."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
