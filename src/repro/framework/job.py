"""Job representation and state machine.

A :class:`Job` is one hyperparameter configuration moving through the
states PENDING → RUNNING ⇄ SUSPENDED → {TERMINATED, COMPLETED}.  The
Job Manager enforces legal transitions and is the one writer of
``priority`` and ``promising`` (it keeps the idle queue ordered and the
promising count by them); everything else reads job attributes
(history, priority, prediction cache) but mutates through the manager.
History grows through :meth:`Job.record` and shrinks through
:meth:`Job.truncate_history`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .events import AppStat

__all__ = ["JobState", "Job", "IllegalTransitionError"]


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"
    COMPLETED = "completed"


#: Legal state transitions (from -> allowed targets).
_TRANSITIONS = {
    JobState.PENDING: {JobState.RUNNING, JobState.TERMINATED},
    JobState.RUNNING: {
        JobState.SUSPENDED,
        JobState.TERMINATED,
        JobState.COMPLETED,
    },
    JobState.SUSPENDED: {JobState.RUNNING, JobState.TERMINATED},
    JobState.TERMINATED: set(),
    JobState.COMPLETED: set(),
}


class IllegalTransitionError(RuntimeError):
    """Raised on an illegal job state transition."""


@dataclass
class Job:
    """One configuration's scheduling state.

    Attributes:
        job_id: unique identifier minted by the HG.
        config: the hyperparameter configuration.
        state: current :class:`JobState`.
        priority: SAP-assigned priority (``label_job``); higher runs
            first among idle jobs.  None = FIFO order.
        machine_id: where the job currently runs (None when not running).
        history: ordered :class:`AppStat` records.
        confidence: last computed prediction confidence ``p`` (POP).
        expected_remaining_time: last computed ERT in seconds (POP).
        promising: whether the job is currently in the promising pool.
    """

    job_id: str
    config: Dict[str, Any]
    state: JobState = JobState.PENDING
    priority: Optional[float] = None
    machine_id: Optional[str] = None
    history: List[AppStat] = field(default_factory=list)
    confidence: Optional[float] = None
    expected_remaining_time: Optional[float] = None
    promising: bool = False
    #: ``(len(history), best metric, total training seconds)`` as of the
    #: last read; recomputed from the whole history when its length moved.
    _summary: Optional[Tuple[int, Optional[float], float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``, enforcing the state machine."""
        if new_state not in _TRANSITIONS[self.state]:
            raise IllegalTransitionError(
                f"{self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    # ------------------------------------------------------------- history

    def record(self, stat: AppStat) -> None:
        if stat.job_id != self.job_id:
            raise ValueError(
                f"stat for {stat.job_id!r} recorded on job {self.job_id!r}"
            )
        if self.history and stat.epoch <= self.history[-1].epoch:
            raise ValueError(
                f"{self.job_id}: non-monotonic epoch {stat.epoch} after "
                f"{self.history[-1].epoch}"
            )
        self.history.append(stat)

    def truncate_history(self, epoch: int) -> int:
        """Discard stats after ``epoch`` (work lost to a machine
        failure; the job resumes from its last checkpoint).

        Returns the number of epochs of work discarded.
        """
        if epoch < 0:
            raise ValueError("cannot truncate to a negative epoch")
        before = self.epochs_completed
        self.history = [stat for stat in self.history if stat.epoch <= epoch]
        # Re-recorded epochs can bring the length back with new values.
        self._summary = None
        return before - self.epochs_completed

    @property
    def epochs_completed(self) -> int:
        return self.history[-1].epoch if self.history else 0

    @property
    def metrics(self) -> List[float]:
        """Raw metric series, one entry per completed epoch."""
        return [stat.metric for stat in self.history]

    def _stats(self) -> Tuple[int, Optional[float], float]:
        # The same max()/sum() over the whole history as an uncached
        # read, so the values are bit-identical; a running ``+=`` would
        # not be (``sum`` of floats is compensated since Python 3.12).
        summary = self._summary
        if summary is None or summary[0] != len(self.history):
            history = self.history
            summary = self._summary = (
                len(history),
                max(stat.metric for stat in history) if history else None,
                sum(stat.duration for stat in history),
            )
        return summary

    @property
    def best_metric(self) -> Optional[float]:
        return self._stats()[1]

    @property
    def latest_metric(self) -> Optional[float]:
        return self.history[-1].metric if self.history else None

    @property
    def mean_epoch_duration(self) -> Optional[float]:
        """Measured average epoch duration (``Epoch_i`` in §3.1.1)."""
        if not self.history:
            return None
        return self._stats()[2] / len(self.history)

    @property
    def total_training_time(self) -> float:
        """Total seconds of training this job has consumed."""
        return self._stats()[2]

    @property
    def active(self) -> bool:
        """Not yet terminated or completed."""
        return self.state in (JobState.PENDING, JobState.RUNNING, JobState.SUSPENDED)
