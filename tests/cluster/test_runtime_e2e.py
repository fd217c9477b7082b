"""End-to-end cluster runtime tests (real worker processes).

These spawn actual OS processes per machine, so they are the slowest
tests in the suite — each scenario is a full experiment over the framed
TCP transport with heartbeats running.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.analysis.experiments import standard_configs
from repro.autoscale import ON_DEMAND, SPOT, FleetControl, FleetOptions
from repro.cluster import (
    ClusterStartupError,
    DropHeartbeats,
    FaultPlan,
    KillAtEpoch,
    SpotRevocation,
    run_cluster,
)
from repro.framework.experiment import ExperimentSpec
from repro.framework.job import JobState
from repro.observability import Recorder
from repro.policies.bandit import BanditPolicy
from repro.policies.default import DefaultPolicy
from repro.registry import build_policy
from repro.runtime.local import run_live
from repro.workloads.cifar10 import Cifar10Workload

N_CONFIGS = 6
KILL_EPOCH = 7
CHECKPOINT_INTERVAL = 3


def make_spec(**overrides):
    defaults = dict(
        num_machines=3,
        num_configs=N_CONFIGS,
        seed=0,
        stop_on_target=False,
        checkpoint_interval=CHECKPOINT_INTERVAL,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def run_small_cluster(workload, policy, predictor, fault_plan=None,
                      recorder=None, time_scale=2e-5, **kwargs):
    return run_cluster(
        workload,
        policy,
        configs=standard_configs(workload, N_CONFIGS),
        spec=make_spec(),
        predictor=predictor,
        time_scale=time_scale,
        fault_plan=fault_plan,
        recorder=recorder,
        heartbeat_interval=0.05,
        **kwargs,
    )


def test_argument_validation(cifar10_workload):
    with pytest.raises(ValueError, match="exactly one"):
        run_cluster(cifar10_workload, BanditPolicy())
    configs = standard_configs(cifar10_workload, 2)
    with pytest.raises(ValueError, match="time_scale"):
        run_cluster(
            cifar10_workload, BanditPolicy(), configs=configs, time_scale=0.0
        )
    with pytest.raises(ValueError, match="retry_budget"):
        run_cluster(
            cifar10_workload, BanditPolicy(), configs=configs, retry_budget=-1
        )
    with pytest.raises(ValueError, match="machine_mtbf.*FaultPlan"):
        run_cluster(
            cifar10_workload, BanditPolicy(), configs=configs,
            spec=make_spec(machine_mtbf=4000.0),
        )


def test_cluster_matches_in_process_live_runtime(cifar10_workload, fast_predictor):
    """The decoupling claim: the scheduler and policy run unchanged
    whether Node Agents are in-process objects or worker processes on
    the other end of a socket.  Same spec, both runtimes, same answer."""
    configs = standard_configs(cifar10_workload, N_CONFIGS)
    spec = make_spec()
    live = run_live(
        cifar10_workload,
        BanditPolicy(),
        configs=configs,
        spec=spec,
        time_scale=2e-5,
    )
    clustered = run_cluster(
        cifar10_workload,
        BanditPolicy(),
        configs=configs,
        spec=spec,
        predictor=fast_predictor,
        time_scale=2e-5,
    )
    assert clustered.epochs_trained == live.epochs_trained
    assert clustered.best_metric == pytest.approx(live.best_metric, rel=1e-9)
    states_live = sorted((j.job_id, j.state.value) for j in live.jobs)
    states_cluster = sorted((j.job_id, j.state.value) for j in clustered.jobs)
    assert states_cluster == states_live
    assert clustered.machine_failures == 0


def test_sigkill_worker_migrates_job_and_matches_clean_run(
    cifar10_workload, fast_predictor
):
    """The acceptance scenario: SIGKILL one of three workers mid-run.
    The run completes, the dead node's job resumes from its snapshot at
    the right epoch on a survivor, and the result equals a failure-free
    run with the same seed.

    DefaultPolicy runs every configuration to completion, so equality
    is strict down to per-epoch metrics: if migration resumed from the
    wrong epoch or corrupted the restored state, the displaced job's
    curve would diverge from the clean run's.  (Policies that make
    time-sensitive cross-job decisions — bandit eliminations, POP
    suspends — can legitimately schedule differently around the
    detection gap, so they are exercised elsewhere.)"""
    clean = run_small_cluster(cifar10_workload, DefaultPolicy(), fast_predictor)

    recorder = Recorder()
    plan = FaultPlan((KillAtEpoch("machine-01", KILL_EPOCH),))
    faulted = run_small_cluster(
        cifar10_workload, DefaultPolicy(), fast_predictor,
        fault_plan=plan, recorder=recorder,
    )

    # The worker really died and was noticed.
    assert faulted.machine_failures == 1
    downs = recorder.audit.query("cluster_node_down")
    assert [(r.machine_id, r.data["reason"]) for r in downs] == [
        ("machine-01", "connection_lost")
    ]

    # Its job migrated to a survivor and resumed from the snapshot: the
    # kill lands mid-epoch KILL_EPOCH, so the last periodic checkpoint
    # (epoch 6 with checkpoint_interval=3) is the resume point and the
    # in-flight epoch was never recorded — nothing counted lost.
    migrations = recorder.audit.query("cluster_migration")
    assert len(migrations) == 1
    migration = migrations[0]
    assert migration.machine_id != "machine-01"
    assert migration.data["resume_epoch"] == KILL_EPOCH - 1
    assert faulted.epochs_lost_to_failures == 0
    assert recorder.metrics.get("cluster_migrations_total").total == 1

    # The migrated job ran to a terminal state like everything else.
    terminal = {JobState.COMPLETED, JobState.TERMINATED}
    job_states = {j.job_id: j.state for j in faulted.jobs}
    assert job_states[migration.job_id] in terminal
    assert all(state in terminal for state in job_states.values())

    # Failure recovery is transparent: same outcome as the clean run.
    assert faulted.epochs_trained == clean.epochs_trained
    assert faulted.best_metric == pytest.approx(clean.best_metric, rel=1e-9)
    assert faulted.best_job_id == clean.best_job_id
    assert faulted.reached_target == clean.reached_target
    states_clean = sorted((j.job_id, j.state.value) for j in clean.jobs)
    states_faulted = sorted((j.job_id, j.state.value) for j in faulted.jobs)
    assert states_faulted == states_clean
    # ... down to every job's per-epoch metric curve, which is the
    # strongest statement that the snapshot restore was bit-exact.
    curves_clean = {j.job_id: j.metrics for j in clean.jobs}
    curves_faulted = {j.job_id: j.metrics for j in faulted.jobs}
    assert curves_faulted == curves_clean


def test_fault_injection_is_deterministic(cifar10_workload, fast_predictor):
    """Two POP runs with the same seed and fault plan produce the same
    fault audit trail (modulo wall-clock timestamps and which survivor
    the job lands on): the injected failure hits the same machine at
    the same epoch and the job resumes from the same snapshot."""

    def one_run():
        recorder = Recorder()
        plan = FaultPlan((KillAtEpoch("machine-01", KILL_EPOCH),))
        result = run_small_cluster(
            cifar10_workload, build_policy("pop"), fast_predictor,
            fault_plan=plan, recorder=recorder,
        )
        projection = []
        for record in recorder.audit.records:
            if record.kind == "cluster_node_down":
                projection.append(
                    (record.kind, record.machine_id, record.data["reason"])
                )
            elif record.kind in (
                "cluster_migration", "cluster_retry_budget_exhausted"
            ):
                # The destination machine is whichever survivor frees
                # first — scheduling, not fault injection — so it is
                # excluded; everything else must reproduce exactly.
                projection.append(
                    (
                        record.kind,
                        record.job_id,
                        record.data.get("resume_epoch"),
                        record.data.get("resume_latency"),
                    )
                )
        return result, projection

    first_result, first_trail = one_run()
    second_result, second_trail = one_run()
    assert first_trail == second_trail
    # POP's kill decisions ride on curve predictions, whose per-machine
    # streams depend on which survivor hosts which job — a scheduling
    # race, not fault-injection nondeterminism — so only the failure
    # handling itself is asserted identical, not the full trajectory.
    assert first_result.machine_failures == second_result.machine_failures == 1


def test_silent_node_is_declared_dead_then_recovers(
    cifar10_workload, fast_predictor
):
    """Drop pongs long enough to trip the miss threshold: the node is
    declared dead and its job migrates; when pongs resume the node
    rejoins the pool and the run still completes."""
    recorder = Recorder()
    plan = FaultPlan((DropHeartbeats("machine-01", after=5, count=12),))
    result = run_small_cluster(
        cifar10_workload,
        build_policy("pop"),
        fast_predictor,
        fault_plan=plan,
        recorder=recorder,
        time_scale=2e-4,  # slow enough that recovery happens mid-run
        miss_threshold=3,
    )
    downs = recorder.audit.query("cluster_node_down")
    assert [(r.machine_id, r.data["reason"]) for r in downs] == [
        ("machine-01", "heartbeat_timeout")
    ]
    resumed = [
        r
        for r in recorder.audit.query("cluster_node_up")
        if r.data["reason"] == "heartbeats_resumed"
    ]
    assert [r.machine_id for r in resumed] == ["machine-01"]
    assert result.machine_failures == 1
    assert len(recorder.audit.query("cluster_migration")) == 1
    terminal = {JobState.COMPLETED, JobState.TERMINATED}
    assert all(job.state in terminal for job in result.jobs)


def test_spot_revocation_with_grace_matches_clean_run(
    cifar10_workload, fast_predictor
):
    """The elasticity acceptance scenario: a spot revocation notice
    with a live grace window.  The doomed worker's job suspends at the
    next epoch boundary, snapshot-migrates to a survivor, and the
    instance dies as an *expected* departure — zero failures, zero lost
    epochs, and per-epoch curves identical to a run that was never
    revoked."""
    clean = run_small_cluster(cifar10_workload, DefaultPolicy(), fast_predictor)

    recorder = Recorder()
    # grace is in experiment seconds; at time_scale 2e-5 this is a
    # ~0.5 s real window — many epoch boundaries, so the drain always
    # beats the kill.
    plan = FaultPlan(
        (SpotRevocation("machine-01", epoch=KILL_EPOCH, grace=25_000.0),)
    )
    revoked = run_small_cluster(
        cifar10_workload, DefaultPolicy(), fast_predictor,
        fault_plan=plan, recorder=recorder,
    )

    # The notice was heard and classified as an expected departure:
    # no silent-death bookkeeping anywhere.
    notices = recorder.audit.query("cluster_spot_revocation")
    assert [r.machine_id for r in notices] == ["machine-01"]
    assert recorder.audit.query("cluster_node_down") == []
    departed = recorder.audit.query("cluster_node_departed")
    assert [(r.machine_id, r.data["reason"]) for r in departed] == [
        ("machine-01", "spot_revocation")
    ]
    assert revoked.machine_failures == 0
    assert revoked.epochs_lost_to_failures == 0

    # The graceful path relands the job through the ordinary
    # suspend/resume machinery, never the failure-migration path (a
    # departed-with-job would have fallen back to it and counted a
    # failure above).
    assert recorder.audit.query("cluster_migration") == []

    # Migration is transparent: identical to the unrevoked run, down to
    # every job's per-epoch metric curve.
    assert revoked.epochs_trained == clean.epochs_trained
    assert revoked.best_metric == pytest.approx(clean.best_metric, rel=1e-9)
    states_clean = sorted((j.job_id, j.state.value) for j in clean.jobs)
    states_revoked = sorted((j.job_id, j.state.value) for j in revoked.jobs)
    assert states_revoked == states_clean
    curves_clean = {j.job_id: j.metrics for j in clean.jobs}
    curves_revoked = {j.job_id: j.metrics for j in revoked.jobs}
    assert curves_revoked == curves_clean


def test_elastic_fleet_meters_cost_and_publishes_status(
    cifar10_workload, fast_predictor, tmp_path
):
    """A metered mixed fleet: the run charges machine-seconds at
    class-distinct rates, journals a reconciling cost trail, and
    publishes fleet status through the control handle."""
    import json

    recorder = Recorder()
    control = FleetControl()
    cost_path = tmp_path / "cost.jsonl"
    fleet = FleetOptions(
        experiment_id="exp-e2e",
        spot_fraction=0.34,  # newest 1 of 3 machines is spot
        cost_path=cost_path,
    )
    result = run_small_cluster(
        cifar10_workload, DefaultPolicy(), fast_predictor,
        recorder=recorder, fleet=fleet, fleet_control=control,
    )
    assert result.machine_failures == 0

    # The control handle saw the final publish.
    status = control.status()
    assert status["classes"] == {
        "machine-00": ON_DEMAND,
        "machine-01": ON_DEMAND,
        "machine-02": SPOT,
    }
    assert status["cost"]["spent_dollars"] > 0.0

    # The trail reconciles: summed machine-seconds at the model's rates
    # equal the dollars charged.
    with open(cost_path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    summary = records[-1]
    assert summary["event"] == "cost_summary"
    assert summary["experiment"] == "exp-e2e"
    seconds = summary["machine_seconds"]
    rates = summary["rates"]
    expected = sum(
        seconds.get(cls, 0.0) / 3600.0 * rate
        for cls, rate in (
            (ON_DEMAND, rates["on_demand_rate"]),
            (SPOT, rates["spot_rate"]),
        )
    )
    assert summary["spent_dollars"] == pytest.approx(expected, rel=1e-6)

    # Gauges made it into the recorder; the final publish lands after
    # shutdown, so workers_up has drained back to zero but the
    # cumulative machine-second meters keep the whole run's usage.
    workers_up = recorder.metrics.get("cost_workers_up")
    assert workers_up.value(**{"class": ON_DEMAND}) == 0.0
    machine_seconds = recorder.metrics.get("cost_machine_seconds")
    assert machine_seconds.value(**{"class": ON_DEMAND}) > 0.0
    assert recorder.metrics.get("cost_spent_dollars").value(
        experiment="exp-e2e"
    ) == pytest.approx(summary["spent_dollars"], rel=1e-6)


class _DiesInWorker(Cifar10Workload):
    """Builds in the head; a spawned worker fails to unpickle it, so the
    worker process exits before it can say hello."""

    def __setstate__(self, state):
        raise RuntimeError("this workload does not load in a worker")


def test_worker_dying_before_its_hello_fails_the_launch_at_once(fast_predictor):
    workload = _DiesInWorker()
    before = set(multiprocessing.active_children())
    started = time.monotonic()
    with pytest.raises(ClusterStartupError, match="exited with code 1"):
        run_cluster(
            workload,
            BanditPolicy(),
            configs=standard_configs(workload, 2),
            spec=make_spec(num_machines=2),
            predictor=fast_predictor,
            startup_timeout=60.0,
        )
    assert time.monotonic() - started < 30.0
    assert set(multiprocessing.active_children()) <= before
