"""The per-epoch instruments are views, yet every read sees what writing
them at every epoch would give.

The scheduler's epochs, epoch durations, kills, suspends and best
metric, the engine's event count and queue depth, the Job Manager's
transitions and idle depth, the Node Agents' snapshot histograms and
the decision span's summary are computed when the registry is read.
The reference run unbinds every view and writes each instrument where
the simulator used to: test-only subclasses of the scheduler, engine,
Job Manager and Node Agent call ``inc``/``observe``/``set`` per epoch,
per event and per transition.  Every registry read at every progress
hook, and the final result, must be the same under both, for every
registered policy and across a shrink-and-grow resize.
"""

from __future__ import annotations

import heapq

import pytest

import repro.framework.scheduler as scheduler_module
import repro.sim.runner as sim_runner
from repro.analysis.experiments import standard_configs
from repro.framework.events import LifecycleKind
from repro.framework.experiment import ExperimentSpec
from repro.framework.job_manager import JobManager
from repro.framework.node_agent import NodeAgent
from repro.observability import Recorder
from repro.observability.metrics import Histogram, _Scalar
from repro.registry import POLICIES, build_policy
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_simulation

#: Families whose values are wall-clock times, which differ run to run.
WALL_CLOCK = ("predictor_fit_seconds",)
MACHINES, CONFIGS = 8, 20


class WritingScheduler(scheduler_module.HyperDriveScheduler):
    """Writes the scheduler's instruments at every processed epoch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        metrics = self.recorder.metrics
        self.w_epochs = metrics.counter("scheduler_epochs_total")
        self.w_durations = metrics.histogram("epoch_duration_seconds")
        self.w_kills = metrics.counter("scheduler_kills_total")
        self.w_suspends = metrics.counter("scheduler_suspends_total")
        self.w_best = metrics.gauge("experiment_best_metric")
        self._decision_stats = None  # a counting span per decision

    def process_epoch(self, machine_id, result):
        epochs, best = self.result.epochs_trained, self.result.best_metric
        logged = len(self.result.lifecycle)
        followup = super().process_epoch(machine_id, result)
        if self.result.epochs_trained > epochs:
            self.w_epochs.inc()
            self.w_durations.observe(result.duration)
            if self.result.best_metric is not best:
                self.w_best.set(float(result.metric))
        for event in self.result.lifecycle[logged:]:
            if event.kind is LifecycleKind.SUSPENDED:
                self.w_suspends.inc()
            elif event.kind is LifecycleKind.TERMINATED:
                self.w_kills.inc(reason=event.detail.get("reason", "policy"))
        return followup


class WritingEngine(SimulationEngine):
    """The event loop as it was: a counter and a gauge per event."""

    def __init__(self, recorder=None) -> None:
        super().__init__(recorder=recorder)
        self.w_events = recorder.metrics.counter("sim_events_total")
        self.w_depth = recorder.metrics.gauge("sim_queue_depth")

    def run(self, until=None, stop_when=None):
        self._stopped = False
        while self._heap and not self._stopped:
            if stop_when is not None and stop_when():
                break
            event_time, _, callback = self._heap[0]
            if until is not None and event_time > until:
                self._now = until
                break
            heapq.heappop(self._heap)
            self._now = event_time
            self.w_events.inc()
            self.w_depth.set(len(self._heap))
            callback()
        return self._now


class WritingJobManager(JobManager):
    """A transition counter per command and the idle gauge per change."""

    def __init__(self, recorder=None) -> None:
        super().__init__(recorder=recorder)
        self.w_transitions = recorder.metrics.counter(
            "job_state_transitions_total"
        )
        self.w_idle = recorder.metrics.gauge("jobs_idle")

    def _enqueue(self, job_id):
        super()._enqueue(job_id)
        self.w_idle.set(self.num_idle)

    def _dequeue(self, job_id):
        super()._dequeue(job_id)
        self.w_idle.set(self.num_idle)

    def start_job(self, job_id, machine_id):
        job = super().start_job(job_id, machine_id)
        self.w_transitions.inc(to="running")
        return job

    def resume_job(self, job_id, machine_id):
        job = super().resume_job(job_id, machine_id)
        self.w_transitions.inc(to="running")
        return job

    def suspend_job(self, job_id):
        job = super().suspend_job(job_id)
        self.w_transitions.inc(to="suspended")
        return job

    def terminate_job(self, job_id):
        job = super().terminate_job(job_id)
        self.w_transitions.inc(to="terminated")
        return job

    def complete_job(self, job_id):
        job = super().complete_job(job_id)
        self.w_transitions.inc(to="completed")
        return job


class WritingAgent(NodeAgent):
    """Observes both snapshot histograms per capture."""

    def capture_snapshot(self):
        snapshot = super().capture_snapshot()
        metrics = self._recorder.metrics
        metrics.histogram("snapshot_latency_seconds").observe(snapshot.latency)
        metrics.histogram("snapshot_size_bytes").observe(snapshot.size_bytes)
        return snapshot


def write_per_epoch(monkeypatch) -> None:
    """Unbind every view and write the instruments per epoch instead."""
    bucket = Histogram.bucket
    monkeypatch.setattr(_Scalar, "collect_from", lambda self, source: None)
    monkeypatch.setattr(Histogram, "bucket", lambda self, **labels: [])
    monkeypatch.setattr(
        Histogram, "observe",
        lambda self, value, **labels: bucket(self, **labels).append(float(value)),
    )
    monkeypatch.setattr(sim_runner, "HyperDriveScheduler", WritingScheduler)
    monkeypatch.setattr(sim_runner, "SimulationEngine", WritingEngine)
    monkeypatch.setattr(scheduler_module, "JobManager", WritingJobManager)
    monkeypatch.setattr(scheduler_module, "NodeAgent", WritingAgent)


def registry_reads(recorder):
    """Every read the registry offers, with wall-clock families dropped."""
    metrics = recorder.metrics
    reads = {"to_dict": metrics.to_dict()}
    for name in WALL_CLOCK:
        reads["to_dict"].pop(name, None)
    reads["render_text"] = [
        line for line in metrics.render_text().splitlines()
        if not any(name in line for name in WALL_CLOCK)
    ]
    snapshot = recorder.snapshot()
    for name in WALL_CLOCK:
        snapshot["metrics"].pop(name, None)
    for stats in snapshot["spans"].values():
        stats.pop("wall_seconds")
    reads["snapshot"] = snapshot
    calls = {}
    for family in metrics.instruments():
        if family.name in WALL_CLOCK:
            continue
        if isinstance(family, Histogram):
            for sample in family.to_dict()["samples"]:
                labels = sample["labels"]
                key = (family.name, tuple(sorted(labels.items())))
                calls[key] = (
                    family.count(**labels),
                    family.sum(**labels),
                    tuple(family.quantile(q, **labels) for q in (0.0, 0.5, 1.0)),
                )
        else:
            samples = family.samples()
            calls[(family.name, "samples")] = samples
            for labels, _ in samples:
                calls[(family.name, tuple(sorted(labels.items())))] = (
                    family.value(**labels)
                )
    reads["calls"] = repr(sorted(calls.items(), key=repr))
    return reads


def shrink_then_grow(scheduler):
    epochs = scheduler.result.epochs_trained
    if epochs == 30:
        scheduler.resize(2)
    elif epochs == 90:
        scheduler.resize(MACHINES)


def run(workload, predictor, policy, plan=None, read_every=1):
    recorder = Recorder()
    reads = []

    def hook(scheduler):
        reads.append(registry_reads(recorder))
        if plan is not None:
            plan(scheduler)

    result = run_simulation(
        workload,
        build_policy(policy),
        configs=standard_configs(workload, CONFIGS),
        spec=ExperimentSpec(
            num_machines=MACHINES, num_configs=CONFIGS, seed=0,
            tmax=6 * 3600.0,
        ),
        predictor=predictor,
        recorder=recorder,
        progress_hook=hook if read_every else plan,
        progress_every_epochs=read_every or 1,
    )
    final = result.to_dict()
    for stats in final["observability"]["spans"].values():
        stats.pop("wall_seconds")
    for name in WALL_CLOCK:
        final["observability"]["metrics"].pop(name, None)
    return reads, final


def assert_views_read_as_written(workload, predictor, policy, monkeypatch,
                                 plan=None):
    reads, final = run(workload, predictor, policy, plan)
    with monkeypatch.context() as patch:
        write_per_epoch(patch)
        ref_reads, ref_final = run(workload, predictor, policy, plan)
    assert len(reads) == final["epochs_trained"] > 0
    assert len(reads) == len(ref_reads)
    for index, (read, ref) in enumerate(zip(reads, ref_reads)):
        for kind in read:
            assert read[kind] == ref[kind], f"{policy}: read {index} ({kind})"
    assert final == ref_final


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_views_read_as_if_written_every_epoch(
    policy, cifar10_workload, fast_predictor, monkeypatch
):
    assert_views_read_as_written(
        cifar10_workload, fast_predictor, policy, monkeypatch
    )


@pytest.mark.parametrize("policy", ["pop", "bandit"])
def test_views_read_as_if_written_every_epoch_across_a_resize(
    policy, cifar10_workload, fast_predictor, monkeypatch
):
    assert_views_read_as_written(
        cifar10_workload, fast_predictor, policy, monkeypatch,
        plan=shrink_then_grow,
    )


@pytest.mark.parametrize("policy", ["hyperband", "default"])
def test_a_run_read_mid_run_stores_what_an_unread_run_stores(
    policy, cifar10_workload, fast_predictor
):
    _, read = run(cifar10_workload, fast_predictor, policy, read_every=7)
    _, unread = run(cifar10_workload, fast_predictor, policy, read_every=0)
    assert read["observability"] == unread["observability"]
    durations = read["observability"]["metrics"]["epoch_duration_seconds"]
    assert durations["samples"][0]["count"] == read["epochs_trained"]
