"""Unit tests for the POP policy's decision logic.

These drive the policy through a hand-built context (real Job/Resource
Managers, scripted predictions) so each decision rule is tested in
isolation; end-to-end behaviour is covered in tests/integration.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.core.pop import POPPolicy
from repro.curves.predictor import CurvePrediction
from repro.framework.appstat_db import AppStatDB
from repro.framework.events import AppStat, Decision, IterationFinished
from repro.framework.job import JobState
from repro.framework.job_manager import JobManager
from repro.framework.policy_api import PolicyContext
from repro.framework.resource_manager import ResourceManager
from repro.workloads.base import DomainSpec

DOMAIN = DomainSpec(
    kind="supervised",
    metric_name="validation_accuracy",
    target=0.77,
    kill_threshold=0.15,
    random_performance=0.10,
    max_epochs=120,
    eval_boundary=10,
)


def prediction_with_level(level: float, n_future: int = 10) -> CurvePrediction:
    """A scripted flat prediction at ``level``."""
    return CurvePrediction(
        observed=np.array([0.1]),
        horizon=np.arange(2, 2 + n_future),
        samples=np.full((20, n_future), level),
    )


class Harness:
    """Minimal stand-in for the scheduler around a policy."""

    def __init__(self, num_machines=4, tmax=48 * 3600.0):
        self.jm = JobManager()
        self.rm = ResourceManager(num_machines)
        self.db = AppStatDB()
        self.now = 0.0
        self.predictions: Dict[str, CurvePrediction] = {}
        self.started = []
        self.ctx = PolicyContext(
            job_manager=self.jm,
            resource_manager=self.rm,
            appstat_db=self.db,
            domain=DOMAIN,
            tmax=tmax,
            target=0.77,
            now=lambda: self.now,
            start=self._start,
            predict=self._predict,
        )

    def _start(self, job_id, machine_id):
        job = self.jm.get(job_id)
        if job.state is JobState.PENDING:
            self.jm.start_job(job_id, machine_id)
        else:
            self.jm.resume_job(job_id, machine_id)
        self.started.append((job_id, machine_id))

    def _predict(self, job_id, n_future):
        try:
            return self.predictions[job_id]
        except KeyError:
            raise ValueError("no scripted prediction") from None

    def add_job(self, job_id, metrics=(), running_on=None):
        from repro.framework.job import Job

        job = Job(job_id=job_id, config={"x": 1})
        self.jm.add_job(job)
        if running_on is not None:
            self.jm.start_job(job_id, running_on)
            self.rm.reserve_idle_machine()
        for epoch, metric in enumerate(metrics, 1):
            job.record(
                AppStat(
                    job_id=job_id,
                    epoch=epoch,
                    metric=metric,
                    duration=60.0,
                    timestamp=epoch * 60.0,
                    machine_id=running_on or "machine-00",
                )
            )
        return job

    def event(self, job_id, epoch, metric=0.5):
        return IterationFinished(
            job_id=job_id,
            epoch=epoch,
            metric=metric,
            timestamp=self.now,
            machine_id="machine-00",
            job_finished=False,
        )


@pytest.fixture()
def harness():
    return Harness()


@pytest.fixture()
def policy(harness):
    pop = POPPolicy()
    pop.bind(harness.ctx)
    return pop


def test_non_learner_terminated_before_prediction(harness, policy):
    rng = np.random.default_rng(0)
    metrics = list(0.10 + 0.002 * rng.standard_normal(10))
    harness.add_job("j0", metrics, running_on="machine-00")
    decision = policy.on_iteration_finish(harness.event("j0", 10, 0.1))
    assert decision is Decision.TERMINATE


def test_off_boundary_continues_without_prediction(harness, policy):
    harness.add_job("j0", [0.2] * 7, running_on="machine-00")
    decision = policy.on_iteration_finish(harness.event("j0", 7))
    assert decision is Decision.CONTINUE
    job = harness.jm.get("j0")
    assert job.confidence is None


def test_boundary_stores_confidence(harness, policy):
    harness.add_job("j0", list(np.linspace(0.1, 0.4, 10)), running_on="machine-00")
    harness.predictions["j0"] = prediction_with_level(0.9)
    decision = policy.on_iteration_finish(harness.event("j0", 10))
    assert decision is Decision.CONTINUE
    job = harness.jm.get("j0")
    assert job.confidence == pytest.approx(1.0)
    assert job.promising


def test_confidence_kill_requires_two_predictions(harness, policy):
    harness.add_job("j0", list(np.linspace(0.1, 0.3, 10)), running_on="machine-00")
    harness.predictions["j0"] = prediction_with_level(0.2)  # never reaches 0.77
    first = policy.on_iteration_finish(harness.event("j0", 10))
    assert first is not Decision.TERMINATE
    job = harness.jm.get("j0")
    # extend history to next boundary
    for epoch in range(11, 21):
        job.record(
            AppStat("j0", epoch, 0.3, 60.0, epoch * 60.0, "machine-00")
        )
    second = policy.on_iteration_finish(harness.event("j0", 20))
    assert second is Decision.TERMINATE


def test_opportunistic_suspended_when_jobs_wait(harness, policy):
    harness.add_job("j0", list(np.linspace(0.1, 0.3, 10)), running_on="machine-00")
    harness.add_job("j1")  # idle pending job is waiting
    harness.predictions["j0"] = prediction_with_level(0.5)
    decision = policy.on_iteration_finish(harness.event("j0", 10))
    # conf 0 -> but only one prediction so no kill; opportunistic + a
    # waiting job -> suspend.
    assert decision is Decision.SUSPEND


def test_opportunistic_continues_when_queue_empty(harness, policy):
    harness.add_job("j0", list(np.linspace(0.1, 0.3, 10)), running_on="machine-00")
    harness.predictions["j0"] = prediction_with_level(0.5)
    decision = policy.on_iteration_finish(harness.event("j0", 10))
    assert decision is Decision.CONTINUE


def test_confidence_smoothing_blends(harness):
    pop = POPPolicy(confidence_smoothing=0.5)
    pop.bind(harness.ctx)
    job = harness.add_job(
        "j0", list(np.linspace(0.1, 0.4, 10)), running_on="machine-00"
    )
    harness.predictions["j0"] = prediction_with_level(0.9)  # conf 1.0
    pop.on_iteration_finish(harness.event("j0", 10))
    assert job.confidence == pytest.approx(1.0)
    for epoch in range(11, 21):
        job.record(AppStat("j0", epoch, 0.4, 60.0, epoch * 60.0, "machine-00"))
    harness.predictions["j0"] = prediction_with_level(0.5)  # conf 0.0
    pop.on_iteration_finish(harness.event("j0", 20))
    assert job.confidence == pytest.approx(0.5)


def test_promising_labelled_with_priority(harness, policy):
    job = harness.add_job(
        "j0", list(np.linspace(0.1, 0.4, 10)), running_on="machine-00"
    )
    harness.predictions["j0"] = prediction_with_level(0.9)
    policy.on_iteration_finish(harness.event("j0", 10))
    assert job.priority == pytest.approx(job.confidence)


def test_allocate_jobs_prefers_promising_pool(harness, policy):
    # Two suspended jobs: one promising (high conf), one not.
    j0 = harness.add_job("j0", [0.3] * 10, running_on="machine-00")
    j1 = harness.add_job("j1", [0.3] * 10, running_on="machine-01")
    harness.jm.suspend_job("j0")
    harness.rm.release_machine("machine-00")
    harness.jm.suspend_job("j1")
    harness.rm.release_machine("machine-01")
    j1.confidence = 0.9
    harness.jm.mark_promising("j1", True)
    harness.jm.label_job("j1", 0.9)
    policy.promising_slots = 1
    policy.allocate_jobs()
    # j1 (promising) starts first despite j0's earlier FIFO position.
    assert harness.started[0][0] == "j1"
    # Work conserving: j0 starts too since machines remain.
    assert ("j0", harness.started[1][1]) == harness.started[1]


def test_allocate_jobs_stops_when_no_machines(harness, policy):
    harness.add_job("j0")
    for _ in range(4):
        harness.rm.reserve_idle_machine()
    policy.allocate_jobs()
    assert harness.started == []


def test_constructor_validation():
    with pytest.raises(ValueError, match="grace_multiplier"):
        POPPolicy(grace_multiplier=0)
    with pytest.raises(ValueError, match="confidence_smoothing"):
        POPPolicy(confidence_smoothing=1.0)


def test_eval_boundary_defaults_to_domain(harness, policy):
    assert policy.eval_boundary == DOMAIN.eval_boundary
    assert policy.grace_epochs == 2 * DOMAIN.eval_boundary


def test_eval_boundary_override():
    pop = POPPolicy(eval_boundary=25)
    assert pop._eval_boundary == 25
