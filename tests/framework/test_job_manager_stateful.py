"""Stateful property-based test of the Job Manager.

Drives random sequences of queue/lifecycle operations and checks the
structural invariants that every scheduler in the repository relies
on.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.framework.job import Job, JobState
from repro.framework.job_manager import JobManager


class JobManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.jm = JobManager()
        self.counter = 0
        self.machine_counter = 0
        # Enqueue order, tracked here: a job is queued when added and
        # again each time it is suspended.
        self.enqueue_counter = 0
        self.enqueued = {}

    def _enqueued(self, job):
        self.enqueued[job.job_id] = self.enqueue_counter
        self.enqueue_counter += 1

    # ------------------------------------------------------------- helpers

    def _jobs_in(self, *states):
        return [job for job in self.jm.jobs() if job.state in states]

    # --------------------------------------------------------------- rules

    @rule()
    def add_job(self):
        job = Job(job_id=f"j{self.counter}", config={"i": self.counter})
        self.counter += 1
        self.jm.add_job(job)
        self._enqueued(job)

    @rule(data=st.data())
    def start_idle_job(self, data):
        pending = self._jobs_in(JobState.PENDING)
        if not pending:
            return
        job = data.draw(st.sampled_from(pending))
        machine = f"m{self.machine_counter}"
        self.machine_counter += 1
        self.jm.start_job(job.job_id, machine)
        assert job.state is JobState.RUNNING
        assert job.machine_id == machine

    @rule(data=st.data())
    def suspend_running_job(self, data):
        running = self._jobs_in(JobState.RUNNING)
        if not running:
            return
        job = data.draw(st.sampled_from(running))
        self.jm.suspend_job(job.job_id)
        self._enqueued(job)
        assert job.machine_id is None

    @rule(data=st.data())
    def resume_suspended_job(self, data):
        suspended = self._jobs_in(JobState.SUSPENDED)
        if not suspended:
            return
        job = data.draw(st.sampled_from(suspended))
        machine = f"m{self.machine_counter}"
        self.machine_counter += 1
        self.jm.resume_job(job.job_id, machine)
        assert job.state is JobState.RUNNING

    @rule(data=st.data())
    def terminate_live_job(self, data):
        live = self._jobs_in(
            JobState.PENDING, JobState.RUNNING, JobState.SUSPENDED
        )
        if not live:
            return
        job = data.draw(st.sampled_from(live))
        self.jm.terminate_job(job.job_id)
        assert not job.active

    @rule(data=st.data())
    def complete_running_job(self, data):
        running = self._jobs_in(JobState.RUNNING)
        if not running:
            return
        job = data.draw(st.sampled_from(running))
        self.jm.complete_job(job.job_id)

    @rule(data=st.data(), priority=st.floats(min_value=0.0, max_value=1.0))
    def label_some_job(self, data, priority):
        jobs = self.jm.jobs()
        if not jobs:
            return
        job = data.draw(st.sampled_from(jobs))
        self.jm.label_job(job.job_id, priority)
        assert job.priority == priority

    @rule(data=st.data())
    def clear_some_label(self, data):
        labelled = [job for job in self.jm.jobs() if job.priority is not None]
        if not labelled:
            return
        job = data.draw(st.sampled_from(labelled))
        self.jm.label_job(job.job_id, None)
        assert job.priority is None

    @rule(data=st.data(), priority=st.floats(min_value=0.0, max_value=1.0))
    def tie_two_idle_jobs(self, data, priority):
        idle = [job.job_id for job in self.jm.idle_jobs()]
        if len(idle) < 2:
            return
        pair = data.draw(
            st.lists(st.sampled_from(idle), min_size=2, max_size=2, unique=True)
        )
        for job_id in pair:
            self.jm.label_job(job_id, priority)

    @rule(data=st.data(), promising=st.booleans())
    def mark_some_job(self, data, promising):
        jobs = self.jm.jobs()
        if not jobs:
            return
        job = data.draw(st.sampled_from(jobs))
        self.jm.mark_promising(job.job_id, promising)
        assert job.promising is promising

    @rule(data=st.data())
    def retire_promising_job(self, data):
        promising = [
            job for job in self.jm.active_jobs() if job.promising
        ]
        if not promising:
            return
        job = data.draw(st.sampled_from(promising))
        if job.state is JobState.RUNNING and data.draw(st.booleans()):
            self.jm.complete_job(job.job_id)
        else:
            self.jm.terminate_job(job.job_id)
        assert job.promising

    # ----------------------------------------------------------- invariants

    @invariant()
    def idle_queue_matches_states(self):
        """Exactly the PENDING and SUSPENDED jobs are idle."""
        idle_ids = {job.job_id for job in self.jm.idle_jobs()}
        expected = {
            job.job_id
            for job in self._jobs_in(JobState.PENDING, JobState.SUSPENDED)
        }
        assert idle_ids == expected
        assert self.jm.num_idle == len(expected)

    @invariant()
    def get_idle_job_is_queue_head(self):
        head = self.jm.get_idle_job()
        ordered = self.jm.idle_jobs()
        if ordered:
            assert head is ordered[0]
        else:
            assert head is None

    @invariant()
    def labelled_idle_jobs_sorted_first(self):
        ordered = self.jm.idle_jobs()
        labels = [job.priority is not None for job in ordered]
        # all labelled jobs precede all unlabelled ones
        assert labels == sorted(labels, reverse=True)
        labelled = [j.priority for j in ordered if j.priority is not None]
        assert labelled == sorted(labelled, reverse=True)

    @invariant()
    def idle_jobs_in_reference_order(self):
        """The maintained queue equals a sort of the idle set by the
        key the queue was once sorted by on every read."""

        def key(job):
            has_priority = job.priority is not None
            priority = job.priority if has_priority else 0.0
            return (not has_priority, -priority, self.enqueued[job.job_id])

        expected = sorted(
            self._jobs_in(JobState.PENDING, JobState.SUSPENDED), key=key
        )
        ordered = self.jm.idle_jobs()
        assert [job.job_id for job in ordered] == [
            job.job_id for job in expected
        ]

    @invariant()
    def promising_count_matches_scan(self):
        scanned = sum(1 for job in self.jm.jobs() if job.active and job.promising)
        assert self.jm.num_promising == scanned

    @invariant()
    def running_jobs_have_machines(self):
        for job in self.jm.running_jobs():
            assert job.machine_id is not None

    @invariant()
    def maintained_indices_match_scans(self):
        """The active index and running count equal full scans."""
        scanned_active = [job for job in self.jm.jobs() if job.active]
        active = self.jm.active_jobs()
        assert len(active) == len(scanned_active)
        assert all(a is b for a, b in zip(active, scanned_active))
        assert self.jm.num_active == len(scanned_active)
        assert self.jm.num_running == len(self._jobs_in(JobState.RUNNING))

    @invariant()
    def terminal_jobs_not_idle(self):
        for job in self.jm.jobs():
            if not job.active:
                assert job.machine_id is None


TestJobManagerStateful = JobManagerMachine.TestCase
TestJobManagerStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
