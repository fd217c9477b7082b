"""The durable run store: SQLite index + JSONL write-ahead journal.

Two complementary persistence layers per experiment:

* **SQLite** (``store.db``) holds the queryable index: submission,
  status, timestamps, latest checkpoint, final result.  It is what the
  daemon's workers claim work from and what ``GET /experiments``
  serves.
* **A JSONL event journal** (``journal/<id>.jsonl``) is the append-only
  record of everything that happened: submission, minted
  configurations, status transitions, periodic checkpoints, the audit
  trail streamed from the run's :class:`~repro.observability.Recorder`,
  and the final result.  Payload-bearing events (configs, checkpoints,
  results) are appended *before* the SQLite row is updated, so after a
  crash the journal is never behind the index — ``repro resume`` and
  ``GET /experiments/{id}/events`` both read it directly.

The store is safe for concurrent use from the daemon's worker and HTTP
threads.  Each thread opens one SQLite connection on first use and
reuses it; the database runs in WAL mode with ``synchronous=NORMAL``,
so readers never block the writer and a commit survives a process kill
(not necessarily a power loss — the same promise as the journal).
Journal appends go through one cached
:class:`~repro.observability.journal.Journal` per running experiment,
flushed on every event so a killed process loses nothing already
reported; readers only ever see whole, newline-terminated lines.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..framework.experiment import PoolTimeline
from ..observability.exporters import EventExporter, encode_event
from ..observability.journal import Journal
from .submission import Submission

__all__ = [
    "QUEUED",
    "RUNNING",
    "COMPLETED",
    "FAILED",
    "CANCELLED",
    "INTERRUPTED",
    "TERMINAL_STATUSES",
    "RunRecord",
    "RunStore",
    "JournalExporter",
]

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: Statuses an experiment can never leave.
TERMINAL_STATUSES = frozenset({COMPLETED, FAILED, CANCELLED})

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    id               TEXT PRIMARY KEY,
    submission       TEXT NOT NULL,
    status           TEXT NOT NULL,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    checkpoint       TEXT,
    result           TEXT,
    error            TEXT,
    tenant           TEXT NOT NULL DEFAULT 'default',
    priority         INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_experiments_status
    ON experiments (status, created_at);
"""

# Columns added after the v1.1 schema; applied by ALTER TABLE when an
# older store.db is opened (CREATE IF NOT EXISTS won't grow a table).
_MIGRATIONS = {
    "tenant": "ALTER TABLE experiments"
              " ADD COLUMN tenant TEXT NOT NULL DEFAULT 'default'",
    "priority": "ALTER TABLE experiments"
                " ADD COLUMN priority INTEGER NOT NULL DEFAULT 0",
}

#: Every column :meth:`RunStore._decode` reads except ``result``.
_LIST_COLUMNS = (
    "id, submission, status, created_at, started_at, finished_at,"
    " cancel_requested, checkpoint, error"
)


@dataclass
class RunRecord:
    """One experiment as stored (the SQLite row, decoded)."""

    id: str
    submission: Dict[str, Any]
    status: str
    created_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_requested: bool = False
    checkpoint: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """JSON document served by the HTTP API.

        Args:
            include_result: drop the (large) result payload for list
                views; detail views keep it.
        """
        out: Dict[str, Any] = {
            "id": self.id,
            "submission": self.submission,
            "status": self.status,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_requested,
            "checkpoint": self.checkpoint,
            "error": self.error,
        }
        if include_result:
            out["result"] = self.result
        return out


class RunStore:
    """Durable experiment state under one root directory.

    ``store.db`` is opened in WAL mode, so ``store.db-wal`` and
    ``store.db-shm`` sit beside it while any connection is open; each
    thread keeps one connection for the store's lifetime, and
    :meth:`close` checkpoints the WAL back into ``store.db``.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = self.root / "store.db"
        self.journal_dir = self.root / "journal"
        self.journal_dir.mkdir(exist_ok=True)
        self._lock = threading.Lock()
        self._journals: Dict[str, Journal] = {}
        self._local = threading.local()
        # Long-polls (wait_for_status_change) sleep on this; every
        # status write notifies it.
        self._status_changed = threading.Condition()
        self._waiters_released = False
        with self._connect() as conn:
            # Persistent in the file: set once, every later connection
            # (this process or another) opens in WAL mode.
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(_SCHEMA)
            columns = {
                row["name"]
                for row in conn.execute("PRAGMA table_info(experiments)")
            }
            for column, statement in _MIGRATIONS.items():
                if column not in columns:
                    conn.execute(statement)

    # ------------------------------------------------------------- plumbing

    def _connect(self) -> sqlite3.Connection:
        """This thread's connection, opened on first use and reused."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(self.db_path, timeout=30.0)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
        return conn

    @staticmethod
    def _decode(row: sqlite3.Row, with_result: bool = True) -> RunRecord:
        """``with_result=False`` for rows selected as ``_LIST_COLUMNS``."""
        return RunRecord(
            id=row["id"],
            submission=json.loads(row["submission"]),
            status=row["status"],
            created_at=row["created_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            cancel_requested=bool(row["cancel_requested"]),
            checkpoint=(
                json.loads(row["checkpoint"]) if row["checkpoint"] else None
            ),
            result=(
                PoolTimeline.normalize(json.loads(row["result"]))
                if with_result and row["result"] else None
            ),
            error=row["error"],
        )

    def _require(self, conn: sqlite3.Connection, exp_id: str) -> sqlite3.Row:
        row = conn.execute(
            "SELECT * FROM experiments WHERE id = ?", (exp_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown experiment {exp_id!r}")
        return row

    def close(self) -> None:
        """Close cached journals and this thread's connection,
        checkpointing the WAL into ``store.db`` first (idempotent; a
        later call on the store reopens what it needs)."""
        with self._lock:
            for journal in self._journals.values():
                journal.close()
            self._journals.clear()
        conn = self._connect()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.close()
        self._local.conn = None

    # ---------------------------------------------------- status long-poll

    def _status_written(self) -> None:
        with self._status_changed:
            self._status_changed.notify_all()

    def wait_for_status_change(
        self, exp_id: str, status: str, timeout: float
    ) -> Optional[str]:
        """The experiment's status once it is no longer ``status``, or
        when ``timeout`` seconds pass, or when :meth:`release_waiters` is
        called — whichever comes first.

        Only status writes made through this store object wake the
        wait; a change by another process is seen at the timeout.
        Returns None for an unknown id.  Every wake-up reads the status
        alone: no record is decoded (a caller that serves the record
        reads it through :meth:`get_encoded`).
        """
        deadline = time.monotonic() + timeout
        with self._status_changed:
            while True:
                current = self.status(exp_id)
                remaining = deadline - time.monotonic()
                if (
                    current != status  # None too: an unknown id
                    or remaining <= 0
                    or self._waiters_released
                ):
                    return current
                self._status_changed.wait(remaining)

    def release_waiters(self) -> None:
        """Return every blocked :meth:`wait_for_status_change` now, and
        every later one at once (a shutting-down daemon calls this)."""
        with self._status_changed:
            self._waiters_released = True
            self._status_changed.notify_all()

    # -------------------------------------------------------------- journal

    def journal_path(self, exp_id: str) -> Path:
        return self.journal_dir / f"{exp_id}.jsonl"

    def append_event(self, exp_id: str, kind: str, **payload: Any) -> None:
        """Append one event to the experiment's journal and flush it.

        The flush-per-event discipline is what makes the journal a
        write-ahead log: anything acknowledged here survives a process
        kill, even if the SQLite mirror never happens.
        """
        event = {"kind": kind, "wall_time": time.time(), **payload}
        self._journal(exp_id).append(encode_event(event))

    def _journal(self, exp_id: str) -> Journal:
        """The experiment's journal, kept open until the run stops."""
        with self._lock:
            journal = self._journals.get(exp_id)
            if journal is None:
                journal = Journal(self.journal_path(exp_id))
                self._journals[exp_id] = journal
            return journal

    def _close_journal(self, exp_id: str) -> None:
        with self._lock:
            journal = self._journals.pop(exp_id, None)
        if journal is not None:
            journal.close()

    def journal_lines(self, exp_id: str, offset: int = 0) -> Iterator[str]:
        """The journal's lines as stored, skipping the first ``offset``
        (a last line the appender has not finished is left out)."""
        return Journal(self.journal_path(exp_id)).lines(offset)

    def read_events(self, exp_id: str, offset: int = 0) -> List[Dict[str, Any]]:
        """Decoded journal events, skipping the first ``offset`` lines."""
        return [json.loads(line) for line in self.journal_lines(exp_id, offset)]

    def journal_exporter(self, exp_id: str) -> "JournalExporter":
        """An observability exporter that streams into the journal."""
        return JournalExporter(self, exp_id)

    # ------------------------------------------------------------ lifecycle

    def submit(self, submission: Union[Submission, Dict[str, Any]]) -> RunRecord:
        """Persist a new experiment in the queue; returns its record."""
        if isinstance(submission, dict):
            submission = Submission.from_dict(submission)
        exp_id = f"exp-{uuid.uuid4().hex[:12]}"
        payload = submission.to_dict()
        now = time.time()
        self.append_event(exp_id, "submitted", submission=payload)
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO experiments"
                " (id, submission, status, created_at, tenant, priority)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    exp_id,
                    json.dumps(payload),
                    QUEUED,
                    now,
                    payload.get("tenant", "default"),
                    int(payload.get("priority", 0)),
                ),
            )
        return RunRecord(
            id=exp_id, submission=payload, status=QUEUED, created_at=now
        )

    def get(self, exp_id: str) -> Optional[RunRecord]:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM experiments WHERE id = ?", (exp_id,)
            ).fetchone()
        return self._decode(row) if row is not None else None

    def status(self, exp_id: str) -> Optional[str]:
        """The experiment's status alone, or None for an unknown id."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT status FROM experiments WHERE id = ?", (exp_id,)
            ).fetchone()
        return row["status"] if row is not None else None

    def get_encoded(self, exp_id: str) -> Optional[str]:
        """``encode_event(get(exp_id).to_dict())`` without decoding the
        result: the stored result text is spliced in as it is.  Equal
        byte for byte when the result was stored compact, as
        :meth:`mark_finished` writes it; equal once decoded for a result
        stored in any other JSON form.  None for an unknown id."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM experiments WHERE id = ?", (exp_id,)
            ).fetchone()
        if row is None:
            return None
        head = encode_event(
            self._decode(row, with_result=False).to_dict(include_result=False)
        )
        return f'{head[:-1]},"result":{row["result"] or "null"}}}'

    def list_experiments(self) -> List[RunRecord]:
        """Every experiment in creation order, without its result: the
        (large) result column is never read and ``result`` is None;
        :meth:`get` returns one experiment whole."""
        with self._connect() as conn:
            rows = conn.execute(
                f"SELECT {_LIST_COLUMNS} FROM experiments"
                " ORDER BY created_at, id"
            ).fetchall()
        return [self._decode(row, with_result=False) for row in rows]

    def claim_specific(self, exp_id: str) -> Optional[RunRecord]:
        """Atomically claim one specific queued (or interrupted)
        experiment — the broker's admission layer picks *which* id,
        this CAS makes exactly one worker win it.  Returns None when
        someone else won or the experiment left the claimable states.
        """
        with self._connect() as conn:
            for from_status in (QUEUED, INTERRUPTED):
                cursor = conn.execute(
                    "UPDATE experiments SET status = ?, started_at = ?"
                    " WHERE id = ? AND status = ?",
                    (RUNNING, time.time(), exp_id, from_status),
                )
                conn.commit()
                if cursor.rowcount:
                    self.append_event(exp_id, "status", status=RUNNING)
                    self._status_written()
                    return self.get(exp_id)
        return None

    def mark_interrupted(self, exp_id: str) -> None:
        """RUNNING -> INTERRUPTED: the run was preempted (broker
        reclaim) or otherwise stopped resumable-but-unfinished.  Not a
        terminal status — a later claim resumes it by deterministic
        replay, to the same result."""
        self.append_event(exp_id, "status", status=INTERRUPTED)
        with self._connect() as conn:
            self._require(conn, exp_id)
            conn.execute(
                "UPDATE experiments SET status = ? WHERE id = ?"
                " AND status = ?",
                (INTERRUPTED, exp_id, RUNNING),
            )
        self._status_written()
        self._close_journal(exp_id)

    def queue_entries(self) -> List[Dict[str, Any]]:
        """Queued + running rows as lightweight admission entries
        (id, tenant, priority, created_at, status, machines) in
        creation order."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT id, submission, tenant, priority, created_at,"
                " status"
                " FROM experiments WHERE status IN (?, ?, ?)"
                " ORDER BY created_at, id",
                (QUEUED, RUNNING, INTERRUPTED),
            ).fetchall()
        entries = []
        for row in rows:
            submission = json.loads(row["submission"])
            entries.append(
                {
                    "exp_id": row["id"],
                    "tenant": row["tenant"],
                    "priority": row["priority"],
                    "created_at": row["created_at"],
                    "status": row["status"],
                    "machines": Submission.from_dict(
                        submission
                    ).resolved_machines,
                }
            )
        return entries

    def mark_running(self, exp_id: str) -> None:
        """Move a queued (or resuming interrupted) experiment to RUNNING."""
        self.append_event(exp_id, "status", status=RUNNING)
        with self._connect() as conn:
            row = self._require(conn, exp_id)
            if row["status"] not in (QUEUED, INTERRUPTED):
                raise ValueError(
                    f"experiment {exp_id} is {row['status']}, not startable"
                )
            conn.execute(
                "UPDATE experiments SET status = ?, started_at = ?"
                " WHERE id = ?",
                (RUNNING, time.time(), exp_id),
            )
        self._status_written()

    def mark_finished(
        self,
        exp_id: str,
        status: str,
        result: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> float:
        """Record a terminal status (journal first, then the index).
        Returns the ``finished_at`` time written."""
        if status not in TERMINAL_STATUSES:
            raise ValueError(f"{status!r} is not a terminal status")
        self.append_event(exp_id, "status", status=status, error=error)
        encoded = None
        if result is not None:
            # Encoded once for both copies; the journal line is the one
            # append_event(kind="result", result=result) would write.
            encoded = encode_event(result)
            head = encode_event({"kind": "result", "wall_time": time.time()})
            self._journal(exp_id).append(f'{head[:-1]},"result":{encoded}}}')
        finished_at = time.time()
        with self._connect() as conn:
            self._require(conn, exp_id)
            conn.execute(
                "UPDATE experiments SET status = ?, finished_at = ?,"
                " result = ?, error = ? WHERE id = ?",
                (status, finished_at, encoded, error, exp_id),
            )
        self._status_written()
        self._close_journal(exp_id)
        return finished_at

    def request_cancel(self, exp_id: str) -> RunRecord:
        """Ask a queued/running experiment to stop.

        A queued experiment is cancelled immediately (no worker will
        claim it); a running one gets ``cancel_requested`` set, which
        the executor's stop-check polls.  Raises ``KeyError`` for an
        unknown id and ``ValueError`` once the experiment is terminal.
        """
        with self._connect() as conn:
            row = self._require(conn, exp_id)
            status = row["status"]
            if status in TERMINAL_STATUSES:
                raise ValueError(f"experiment {exp_id} is already {status}")
        if status == QUEUED:
            # Not claimed yet: cancel without waiting for a worker.
            self.append_event(exp_id, "cancel_requested")
            with self._connect() as conn:
                cursor = conn.execute(
                    "UPDATE experiments SET status = ?, finished_at = ?,"
                    " cancel_requested = 1 WHERE id = ? AND status = ?",
                    (CANCELLED, time.time(), exp_id, QUEUED),
                )
                conn.commit()
            if cursor.rowcount:
                self.append_event(exp_id, "status", status=CANCELLED)
                self._status_written()
                self._close_journal(exp_id)
                record = self.get(exp_id)
                assert record is not None
                return record
            # Lost the race with a claiming worker; fall through to the
            # running-experiment path.
        self.append_event(exp_id, "cancel_requested")
        with self._connect() as conn:
            conn.execute(
                "UPDATE experiments SET cancel_requested = 1 WHERE id = ?",
                (exp_id,),
            )
        record = self.get(exp_id)
        assert record is not None
        return record

    def cancel_requested(self, exp_id: str) -> bool:
        with self._connect() as conn:
            row = self._require(conn, exp_id)
        return bool(row["cancel_requested"])

    def recover_interrupted(self) -> List[str]:
        """Mark stale RUNNING experiments as INTERRUPTED.

        Called when a store is (re)opened by a daemon or ``repro
        resume``: any experiment still marked running belonged to a
        process that died.  Returns the affected ids.
        """
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT id FROM experiments WHERE status = ?", (RUNNING,)
            ).fetchall()
        interrupted = []
        for row in rows:
            self.append_event(row["id"], "status", status=INTERRUPTED)
            with self._connect() as conn:
                conn.execute(
                    "UPDATE experiments SET status = ? WHERE id = ?"
                    " AND status = ?",
                    (INTERRUPTED, row["id"], RUNNING),
                )
            interrupted.append(row["id"])
        if interrupted:
            self._status_written()
        return interrupted

    # ------------------------------------------------------ run-time payload

    def record_configs(
        self, exp_id: str, configs: List[Dict[str, Any]]
    ) -> None:
        """Journal the full minted configuration list (once per run).

        This is the replay anchor: with the submission (seeds) and this
        exact configuration stream, a deterministic runtime reproduces
        the experiment's trajectory — the basis of ``repro resume``.
        """
        self.append_event(exp_id, "configs", configs=configs)

    def minted_configs(self, exp_id: str) -> Optional[List[Dict[str, Any]]]:
        """The journaled configuration list, or None if never minted."""
        configs = None
        for event in self.read_events(exp_id):
            if event.get("kind") == "configs":
                configs = event["configs"]
        return configs

    def save_checkpoint(self, exp_id: str, state: Dict[str, Any]) -> None:
        """Persist a progress checkpoint (journal first, then index)."""
        self.append_event(exp_id, "checkpoint", state=state)
        with self._connect() as conn:
            conn.execute(
                "UPDATE experiments SET checkpoint = ? WHERE id = ?",
                (encode_event(state), exp_id),
            )


class JournalExporter(EventExporter):
    """Streams a run's audit trail into its store journal.

    Each observability event (audit record or span) is wrapped as a
    journal event of kind ``audit`` so service-level events and the
    scheduler's decision trail interleave in one ordered log.
    """

    def __init__(self, store: RunStore, exp_id: str) -> None:
        self._store = store
        self._exp_id = exp_id
        self.events_written = 0

    def export(self, event) -> None:
        self._store.append_event(self._exp_id, "audit", record=dict(event))
        self.events_written += 1
