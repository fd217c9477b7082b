"""Job Manager (JM): job lifecycle and the idle-job queue (§4.2).

API follows the paper::

    get_idle_job() -> job | None
    start_job(job_id, machine_id)
    resume_job(job_id, machine_id)
    suspend_job(job_id)
    terminate_job(job_id)
    label_job(job_id, priority)     # None clears the label
    mark_promising(job_id, flag)

Priority labels order the idle queue (higher first); unlabelled jobs
are FIFO behind all labelled ones, exactly the behaviour §4.2
describes for re-queued suspended jobs.  The queue is a maintained
index, so no read sorts the pool afresh; that is why ``label_job`` and
``mark_promising`` (which feeds ``num_promising``) are the only
writers of ``Job.priority`` and ``Job.promising``.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

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
        self._num_promising = 0  # active jobs with ``promising`` set
        # The idle jobs in queue order, kept by bisection on each one's
        # key.  Relabelling an idle job updates its key and marks the
        # order stale; the next access re-sorts once (a SAP may relabel
        # its whole queue per decision: one sort beats a move per label).
        self._idle: List[Job] = []
        self._idle_key: Dict[str, Tuple[bool, float, int]] = {}
        self._relabelled = False
        self._fifo_counter = itertools.count()
        # Transitions by destination, in first-seen order; the two
        # instruments below are views of it and of the idle queue.
        self._transitions: Dict[str, int] = {}
        metrics = (recorder if recorder is not None else NULL_RECORDER).metrics
        metrics.counter(
            "job_state_transitions_total",
            help="Job lifecycle transitions, by destination state",
        ).collect_from(
            lambda: {(("to", to),): n for to, n in self._transitions.items()}
        )
        # Every job added was queued, so the depth exists once one was.
        metrics.gauge(
            "jobs_idle", help="Depth of the idle-job queue"
        ).collect_from(lambda: {(): len(self._idle)} if self._jobs else {})

    # ------------------------------------------------------------ plumbing

    def add_job(self, job: Job) -> None:
        """Register a new PENDING job and queue it as idle."""
        if job.job_id in self._jobs:
            raise ValueError(f"duplicate job id {job.job_id!r}")
        if job.state is not JobState.PENDING:
            raise ValueError("new jobs must be PENDING")
        self._jobs[job.job_id] = job
        self._active[job.job_id] = job
        if job.promising:
            self._num_promising += 1
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

    @property
    def num_promising(self) -> int:
        """Active jobs marked promising, without scanning the pool."""
        return self._num_promising

    # ---------------------------------------------------------- idle queue

    @staticmethod
    def _queue_key(job: Job, order: int) -> Tuple[bool, float, int]:
        # Labelled jobs first (higher priority first), then FIFO.
        has_priority = job.priority is not None
        priority = job.priority if has_priority else 0.0
        return (not has_priority, -priority, order)

    def _key_of(self, job: Job) -> Tuple[bool, float, int]:
        return self._idle_key[job.job_id]

    def _settle(self) -> None:
        if self._relabelled:
            self._idle.sort(key=self._key_of)
            self._relabelled = False

    def _enqueue(self, job_id: str) -> None:
        self._settle()
        job = self._jobs[job_id]
        key = self._queue_key(job, next(self._fifo_counter))
        self._idle_key[job_id] = key
        self._idle.insert(bisect.bisect_left(self._idle, key, key=self._key_of), job)

    def _dequeue(self, job_id: str) -> None:
        key = self._idle_key.get(job_id)
        if key is None:
            raise ValueError(f"job {job_id!r} is not idle")
        self._settle()
        del self._idle[bisect.bisect_left(self._idle, key, key=self._key_of)]
        del self._idle_key[job_id]

    def get_idle_job(self) -> Optional[Job]:
        """Highest-priority idle job (PENDING or SUSPENDED), else None.

        The job stays queued until ``start_job``/``resume_job`` claims
        it, so a SAP can inspect the head of the queue without side
        effects.
        """
        self._settle()
        return self._idle[0] if self._idle else None

    def idle_jobs(self) -> List[Job]:
        """All idle jobs in queue order."""
        self._settle()
        return list(self._idle)

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
        self._count("running")
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
        self._count("running")
        return job

    def suspend_job(self, job_id: str) -> Job:
        """RUNNING -> SUSPENDED; job re-enters the idle queue."""
        job = self.get(job_id)
        job.transition(JobState.SUSPENDED)
        job.machine_id = None
        self._num_running -= 1
        self._enqueue(job_id)
        self._count("suspended")
        return job

    def terminate_job(self, job_id: str) -> Job:
        """Any live state -> TERMINATED."""
        job = self.get(job_id)
        was_running = job.state is JobState.RUNNING
        if job_id in self._idle_key:
            self._dequeue(job_id)
        job.transition(JobState.TERMINATED)
        job.machine_id = None
        self._retire(job)
        if was_running:
            self._num_running -= 1
        self._count("terminated")
        return job

    def complete_job(self, job_id: str) -> Job:
        """RUNNING -> COMPLETED (job exhausted its epoch budget)."""
        job = self.get(job_id)
        job.transition(JobState.COMPLETED)
        job.machine_id = None
        self._retire(job)
        self._num_running -= 1
        self._count("completed")
        return job

    def _count(self, to: str) -> None:
        self._transitions[to] = self._transitions.get(to, 0) + 1

    def _retire(self, job: Job) -> None:
        """Drop a job that just left play from the active index; its
        ``promising`` flag stays as the SAP last set it."""
        del self._active[job.job_id]
        if job.promising:
            self._num_promising -= 1

    def label_job(self, job_id: str, priority: Optional[float]) -> None:
        """Attach a scheduling priority to a job (§4.2 ``label_Job``);
        ``None`` clears the label, returning the job to FIFO order."""
        job = self.get(job_id)
        job.priority = None if priority is None else float(priority)
        key = self._idle_key.get(job_id)
        if key is not None:
            self._idle_key[job_id] = self._queue_key(job, key[2])
            self._relabelled = True

    def mark_promising(self, job_id: str, promising: bool) -> None:
        """Set whether a job is in the SAP's promising pool."""
        job = self.get(job_id)
        promising = bool(promising)
        if job.promising != promising and job_id in self._active:
            self._num_promising += 1 if promising else -1
        job.promising = promising

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
