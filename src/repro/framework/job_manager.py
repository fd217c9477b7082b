"""Job Manager (JM): job lifecycle and the idle-job queue (§4.2).

API follows the paper::

    get_idle_job() -> job | None
    start_job(job_id, machine_id)
    resume_job(job_id, machine_id)
    suspend_job(job_id)
    terminate_job(job_id)
    label_job(job_id, priority)

Priority labels order the idle queue (higher first); unlabelled jobs
are FIFO behind all labelled ones, exactly the behaviour §4.2
describes for re-queued suspended jobs.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..observability import NULL_RECORDER
from .job import Job, JobState

__all__ = ["JobManager"]


class JobManager:
    """Bookkeeping for every job in an experiment.

    The JM owns state transitions and queue ordering; it does not touch
    training runs — Node Agents (or the simulator's machine model) do
    the actual execution and report back through the scheduler.
    """

    def __init__(self, recorder=None) -> None:
        self._jobs: Dict[str, Job] = {}
        # Maintained by the commands below so that pool-wide counts cost
        # O(1) per epoch instead of a scan over every job ever added.
        # Insertion order matches ``_jobs`` because a job never becomes
        # active again once it leaves.
        self._active: Dict[str, Job] = {}
        self._num_running = 0
        self._idle: List[str] = []  # job ids; ordered on read by _sort_key
        self._fifo_counter = itertools.count()
        self._enqueue_order: Dict[str, int] = {}
        recorder = recorder if recorder is not None else NULL_RECORDER
        self._m_transitions = recorder.metrics.counter(
            "job_state_transitions_total",
            help="Job lifecycle transitions, by destination state",
        )
        self._m_idle = recorder.metrics.gauge(
            "jobs_idle", help="Depth of the idle-job queue"
        )

    # ------------------------------------------------------------ plumbing

    def add_job(self, job: Job) -> None:
        """Register a new PENDING job and queue it as idle."""
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        if job.state is not JobState.PENDING:
            raise ValueError("new jobs must be PENDING")
        self._jobs[job.job_id] = job
        self._active[job.job_id] = job
        self._enqueue(job.job_id)

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def active_jobs(self) -> List[Job]:
        """Jobs that are still in play (pending, running, or suspended)."""
        return list(self._active.values())

    def running_jobs(self) -> List[Job]:
        return [j for j in self._jobs.values() if j.state is JobState.RUNNING]

    @property
    def num_active(self) -> int:
        """``len(active_jobs())`` without building the list."""
        return len(self._active)

    @property
    def num_running(self) -> int:
        """``len(running_jobs())`` without scanning the pool."""
        return self._num_running

    # ---------------------------------------------------------- idle queue

    def _enqueue(self, job_id: str) -> None:
        self._enqueue_order[job_id] = next(self._fifo_counter)
        self._idle.append(job_id)
        self._m_idle.set(len(self._idle))

    def _dequeue(self, job_id: str) -> None:
        try:
            self._idle.remove(job_id)
        except ValueError:
            raise ValueError(f"job {job_id!r} is not idle") from None
        self._m_idle.set(len(self._idle))

    def _sort_key(self, job_id: str):
        job = self._jobs[job_id]
        # Labelled jobs first (higher priority first), then FIFO.
        has_priority = job.priority is not None
        priority = job.priority if has_priority else 0.0
        return (not has_priority, -priority, self._enqueue_order[job_id])

    def get_idle_job(self) -> Optional[Job]:
        """Highest-priority idle job (PENDING or SUSPENDED), else None.

        The job stays queued until ``start_job``/``resume_job`` claims
        it, so a SAP can inspect the head of the queue without side
        effects.
        """
        if not self._idle:
            return None
        best = min(self._idle, key=self._sort_key)
        return self._jobs[best]

    def idle_jobs(self) -> List[Job]:
        """All idle jobs in queue order."""
        ordered = sorted(self._idle, key=self._sort_key)
        return [self._jobs[job_id] for job_id in ordered]

    @property
    def num_idle(self) -> int:
        return len(self._idle)

    # ----------------------------------------------------------- commands

    def start_job(self, job_id: str, machine_id: str) -> Job:
        """PENDING -> RUNNING on ``machine_id``."""
        job = self.get(job_id)
        if job.state is not JobState.PENDING:
            raise ValueError(
                f"{job_id} cannot be started from state {job.state.value};"
                " use resume_job for suspended jobs"
            )
        self._dequeue(job_id)
        job.transition(JobState.RUNNING)
        job.machine_id = machine_id
        self._num_running += 1
        self._m_transitions.inc(to="running")
        return job

    def resume_job(self, job_id: str, machine_id: str) -> Job:
        """SUSPENDED -> RUNNING on ``machine_id`` (possibly a new one)."""
        job = self.get(job_id)
        if job.state is not JobState.SUSPENDED:
            raise ValueError(
                f"{job_id} cannot be resumed from state {job.state.value}"
            )
        self._dequeue(job_id)
        job.transition(JobState.RUNNING)
        job.machine_id = machine_id
        self._num_running += 1
        self._m_transitions.inc(to="running")
        return job

    def suspend_job(self, job_id: str) -> Job:
        """RUNNING -> SUSPENDED; job re-enters the idle queue."""
        job = self.get(job_id)
        job.transition(JobState.SUSPENDED)
        job.machine_id = None
        self._num_running -= 1
        self._enqueue(job_id)
        self._m_transitions.inc(to="suspended")
        return job

    def terminate_job(self, job_id: str) -> Job:
        """Any live state -> TERMINATED."""
        job = self.get(job_id)
        was_running = job.state is JobState.RUNNING
        if job_id in self._idle:
            self._dequeue(job_id)
        job.transition(JobState.TERMINATED)
        job.machine_id = None
        del self._active[job_id]
        if was_running:
            self._num_running -= 1
        self._m_transitions.inc(to="terminated")
        return job

    def complete_job(self, job_id: str) -> Job:
        """RUNNING -> COMPLETED (job exhausted its epoch budget)."""
        job = self.get(job_id)
        job.transition(JobState.COMPLETED)
        job.machine_id = None
        del self._active[job_id]
        self._num_running -= 1
        self._m_transitions.inc(to="completed")
        return job

    def label_job(self, job_id: str, priority: float) -> None:
        """Attach a scheduling priority to a job (§4.2 ``label_Job``)."""
        self.get(job_id).priority = float(priority)

    # ------------------------------------------------------------- digest

    def confidence_digest(self) -> Dict[str, object]:
        """POP-state digest of the active jobs, for cross-experiment
        brokering: every active confidence, plus the best job's
        confidence and its expected remaining time.  The broker pools
        the ``confidences`` of all admitted experiments into one global
        promising-set computation and prices reclaim victims by
        ``best_confidence / best_ert``.
        """
        active = self.active_jobs()
        confidences = [
            float(job.confidence) for job in active
            if job.confidence is not None
        ]
        best_confidence = max(confidences, default=0.0)
        best_ert = min(
            (
                float(job.expected_remaining_time) for job in active
                if job.confidence is not None
                and job.expected_remaining_time
            ),
            default=0.0,
        )
        return {
            "confidences": confidences,
            "best_confidence": best_confidence,
            "best_ert_seconds": best_ert,
        }
