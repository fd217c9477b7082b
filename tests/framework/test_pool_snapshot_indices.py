"""The pool snapshot's maintained counts agree with full scans, and its
audit record is written only at a change point.

``_record_pool_snapshot`` reads the Job Manager's maintained
``num_active``/``num_running`` instead of scanning the pool.  A
test-only scheduler subclass re-derives every recorded snapshot from
full scans over all jobs, at every snapshot, across the registered
policies at a pool size where a stale index would show.  The timeline
keeps every sample; the audit trail gets a ``pool_snapshot`` record
exactly when the sample differs from the last one written.
"""

from __future__ import annotations

import pytest

import repro.sim.runner as sim_runner
from repro.analysis.experiments import standard_configs
from repro.framework.experiment import ExperimentSpec
from repro.framework.job import JobState
from repro.framework.scheduler import HyperDriveScheduler
from repro.observability import Recorder
from repro.registry import build_policy
from repro.sim.runner import run_simulation

N_CONFIGS = 40
MACHINES = 8
FIELDS = ("promising", "running", "active", "promising_slots")


class ScanCheckingScheduler(HyperDriveScheduler):
    """Asserts each recorded snapshot against a scan of every job."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checked = 0
        self.written = 0
        self.last_written = None

    def _record_pool_snapshot(self, now: float) -> None:
        before = len(self.recorder.audit.records)
        super()._record_pool_snapshot(now)
        jobs = self.job_manager.jobs()
        active = [job for job in jobs if job.active]
        recorded = self.result.pool_timeline[-1]
        assert recorded.timestamp == now
        assert recorded.active == len(active)
        assert recorded.running == sum(
            1 for job in jobs if job.state is JobState.RUNNING
        )
        assert recorded.promising == sum(1 for job in active if job.promising)
        indexed = self.job_manager.active_jobs()
        assert len(indexed) == len(active)
        assert all(a is b for a, b in zip(indexed, active))
        sample = tuple(getattr(recorded, field) for field in FIELDS)
        audited = self.recorder.audit.records[before:]
        if sample == self.last_written:
            assert audited == []
        else:
            (record,) = audited
            assert record.kind == "pool_snapshot"
            assert record.timestamp == now
            assert tuple(record.data[field] for field in FIELDS) == sample
            self.last_written = sample
            self.written += 1
        gauge = self.recorder.metrics.get("jobs_active")
        assert gauge.value() == len(active)
        self.checked += 1


@pytest.mark.parametrize(
    "policy_name",
    ["default", "bandit", "hyperband", "successive-halving", "learned", "pop"],
)
def test_recorded_pool_counts_equal_full_scans(
    policy_name, cifar10_workload, fast_predictor, monkeypatch
):
    schedulers = []

    def factory(*args, **kwargs):
        scheduler = ScanCheckingScheduler(*args, **kwargs)
        schedulers.append(scheduler)
        return scheduler

    monkeypatch.setattr(sim_runner, "HyperDriveScheduler", factory)
    recorder = Recorder()
    result = run_simulation(
        cifar10_workload,
        build_policy(policy_name),
        configs=standard_configs(cifar10_workload, N_CONFIGS),
        spec=ExperimentSpec(
            num_machines=MACHINES,
            num_configs=N_CONFIGS,
            seed=0,
            stop_on_target=False,
        ),
        predictor=fast_predictor,
        recorder=recorder,
    )
    (scheduler,) = schedulers
    assert scheduler.checked == len(result.pool_timeline) > 0
    # Change points only, and far fewer of them than samples.
    assert scheduler.written == len(recorder.audit.query(kind="pool_snapshot"))
    assert 0 < scheduler.written < scheduler.checked
    # The run stops on an empty pool; the index must agree it is empty.
    if result.finished_at < scheduler.spec.tmax:
        assert scheduler.job_manager.num_active == 0
        assert not any(job.active for job in result.jobs)
