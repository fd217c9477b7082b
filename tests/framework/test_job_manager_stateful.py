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

    # ------------------------------------------------------------- helpers

    def _jobs_in(self, *states):
        return [job for job in self.jm.jobs() if job.state in states]

    # --------------------------------------------------------------- rules

    @rule()
    def add_job(self):
        job = Job(job_id=f"j{self.counter}", config={"i": self.counter})
        self.counter += 1
        self.jm.add_job(job)

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
