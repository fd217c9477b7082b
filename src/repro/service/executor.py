"""Execute and resume stored experiments.

``execute`` drives one experiment from the run store through the
simulator, the live runtime or the cluster runtime — one call with one
set of hooks — wiring these service concerns into the run:

* **Journal**: the run's audit trail streams into the store journal
  through a :class:`~repro.service.store.JournalExporter`; the minted
  configuration list is journaled before the first epoch.
* **Checkpoints**: every ``checkpoint_every`` epochs is a boundary.
  The scheduler's
  :meth:`~repro.framework.scheduler.HyperDriveScheduler.checkpoint_state`
  is persisted at the first boundary, then at most once per
  ``poll_wall_seconds`` (the cancellation throttle, the cadence anyone
  polls at), and once more when the run returns if it trained epochs
  since the last one written — progress for ``repro status``/``watch``
  and the ``resumed`` marker.  A run whose boundaries are slower than
  the throttle persists every one; a simulated run, which passes
  hundreds a second, persists a few.  The broker sync and
  ``on_checkpoint`` stay at every boundary.
* **Cancellation**: every runtime takes the same ``stop_check``.  It
  reads broker preemption on every call and the store's
  ``cancel_requested`` flag at most once per ``poll_wall_seconds``; the
  simulator calls it between events, the threaded runtimes once per
  monitor round.  A cancelled run's partial result is recorded under
  the CANCELLED status.
* **Telemetry**: when the caller owns a
  :class:`~repro.observability.aggregator.TelemetryAggregator` (the
  daemon does), the run's registry is ingested under the experiment id
  at a checkpoint at most once per ``poll_wall_seconds``, the
  cancellation throttle, and at completion; cluster runs ship their
  per-worker registries into the same aggregator — that is what the
  daemon's ``/telemetry`` and merged ``/metrics`` render.

``resume`` is the paper's suspend/resume story (§5.1) at experiment
granularity: an experiment whose process died is reconstructed from its
journal — the submission seeds plus the exact minted configuration
stream — and re-driven to completion.  Because both runtimes are
deterministic given those inputs, the resumed run retraces the
interrupted trajectory past the last checkpoint and finishes exactly as
an uninterrupted run would (see ``docs/service.md`` for the semantics
and their limits on the live runtime).
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Callable, Dict, Optional

from ..observability import Recorder
from .store import (
    CANCELLED,
    COMPLETED,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    RunRecord,
    RunStore,
)
from .submission import Submission

__all__ = ["execute", "resume"]

CheckpointHook = Callable[[Dict[str, Any]], None]


class _BrokerControl:
    """The executor's side of the broker lease protocol.

    One instance per run: registers the experiment, blocks admission
    until at least one slot is granted, shrinks the fresh scheduler to
    the granted slots before the first job starts, and at every
    checkpoint reports POP state and follows the plan → resize →
    commit handshake.  A plan of 0 slots means the broker fully
    preempted the run: the control sets :attr:`preempted` and the
    executor stops the run and marks it INTERRUPTED — resumable by
    deterministic replay, like any other interruption.
    """

    def __init__(self, broker, store, exp_id, submission, want,
                 poll_wall_seconds) -> None:
        self.broker = broker
        self.store = store
        self.exp_id = exp_id
        self.submission = submission
        self.want = max(1, int(want))
        self.poll = max(0.01, min(poll_wall_seconds, 0.05))
        self.preempted = threading.Event()
        self.registered = False
        self.initial = self.want

    def admit(self) -> bool:
        """Register and wait until the broker grants ≥1 slot.  Returns
        False when the experiment was cancelled while waiting."""
        self.broker.register(
            self.exp_id,
            tenant=self.submission.tenant,
            priority=self.submission.priority,
            want=self.want,
            deadline_hours=self.submission.deadline_hours,
            budget_slot_hours=self.submission.budget_slot_hours,
        )
        self.registered = True
        while True:
            decision = self.broker.plan(self.exp_id)
            if decision.target >= 1:
                granted = self.broker.commit(self.exp_id)
                if granted.held >= 1:
                    self.initial = granted.held
                    return True
            if self.store.cancel_requested(self.exp_id):
                return False
            time.sleep(self.poll)

    def setup(self, scheduler) -> None:
        """Pre-``begin`` hook: shrink to the granted slot count so the
        run never trains on machines it holds no lease for."""
        target = self.initial
        fleet = getattr(scheduler, "fleet_manager", None)
        if fleet is not None:
            # An elastic cluster may have booted fewer workers than the
            # broker granted; scale only to what is actually up now and
            # let the fleet monitor grow into the rest.
            target = fleet.request_capacity(target)
        if target < scheduler.resource_manager.num_in_service:
            scheduler.resize(target)

    def sync(self, scheduler) -> None:
        """Checkpoint-time handshake: report POP state, then follow the
        broker's target — resize down *before* leases are surrendered,
        resize up only *after* new leases are granted."""
        self.broker.report(
            self.exp_id, **scheduler.job_manager.confidence_digest()
        )
        decision = self.broker.plan(self.exp_id)
        if decision.target < 1:
            self.preempted.set()
            return
        fleet = getattr(scheduler, "fleet_manager", None)
        rm = scheduler.resource_manager
        current = rm.num_in_service
        if decision.target < current:
            if fleet is not None:
                # Keep the worker fleet in step: drained processes are
                # reaped by the runtime's monitor once the leases drain.
                fleet.request_capacity(decision.target)
            scheduler.resize(decision.target)
            if rm.num_in_service <= decision.target:
                # Drain completed synchronously (idle machines): the
                # revoked leases can return to the pool right away.
                self.broker.commit(self.exp_id)
            # else: busy machines still draining toward the target;
            # their leases are surrendered at a later sync.
        else:
            granted = self.broker.commit(self.exp_id)
            target = granted.held
            if fleet is not None:
                # Grow only as fast as real worker processes boot; the
                # remainder arrives via the monitor's reconcile loop.
                target = fleet.request_capacity(granted.held)
            if target != current:
                scheduler.resize(target)

    def release(self, reason: str) -> None:
        if self.registered:
            self.broker.release(self.exp_id, reason=reason)
            self.registered = False


def execute(
    store: RunStore,
    exp_id: str,
    on_checkpoint: Optional[CheckpointHook] = None,
    poll_wall_seconds: float = 0.25,
    cluster_workers: Optional[int] = None,
    aggregator=None,
    broker=None,
    fleet=None,
    fleet_control=None,
) -> RunRecord:
    """Run one stored experiment to a terminal status.

    The experiment must be QUEUED (offline callers) or RUNNING (daemon
    workers that already claimed it).  Returns the final record; on an
    execution error the experiment is marked FAILED and the exception
    re-raised.

    Args:
        store: the run store holding the experiment.
        exp_id: experiment id.
        on_checkpoint: test/ops hook invoked with the checkpoint state
            at every boundary, persisted or not.
        poll_wall_seconds: wall-clock throttle on cancellation polls,
            on persisted checkpoints and on the run's telemetry
            ingests.
        cluster_workers: when set, live submissions execute on the
            multi-process cluster runtime with this many worker
            processes (``repro serve --cluster-workers``).
        aggregator: optional
            :class:`~repro.observability.aggregator.TelemetryAggregator`
            receiving the run's registry (node = experiment id) and,
            on cluster runs, every worker's shipped telemetry.
        broker: optional
            :class:`~repro.broker.ResourceBroker`; when given, the run
            leases its slots from the shared pool (see
            :class:`_BrokerControl`) and may be shrunk, grown, or
            preempted mid-flight.
        fleet: optional :class:`~repro.autoscale.FleetOptions`
            template; cluster runs get a per-experiment copy (id and
            budget filled from the submission) and become elastic,
            spot-revocable, and cost-metered.
        fleet_control: optional
            :class:`~repro.autoscale.FleetControl` handle for this run
            (the daemon queues spot revocations through it).
    """
    record = store.get(exp_id)
    if record is None:
        raise KeyError(f"unknown experiment {exp_id!r}")
    if record.status == QUEUED:
        store.mark_running(exp_id)
    elif record.status != RUNNING:
        raise ValueError(
            f"experiment {exp_id} is {record.status}; only queued/running "
            "experiments can be executed"
        )
    return _run(
        store, exp_id, on_checkpoint, poll_wall_seconds, cluster_workers,
        aggregator, broker, fleet, fleet_control,
    )


def resume(
    store: RunStore,
    exp_id: str,
    on_checkpoint: Optional[CheckpointHook] = None,
    poll_wall_seconds: float = 0.25,
    cluster_workers: Optional[int] = None,
    aggregator=None,
    broker=None,
    fleet=None,
    fleet_control=None,
) -> RunRecord:
    """Resume an INTERRUPTED experiment from its journal.

    Replays the journaled configuration stream under the stored
    submission (same seeds), which on the deterministic runtimes
    retraces the interrupted run and continues it to completion.  The
    last checkpoint is journaled alongside the ``resumed`` marker so
    the recovery point is auditable.

    Accepts RUNNING as well as INTERRUPTED: a daemon worker re-running
    a broker-preempted experiment claims it (INTERRUPTED → RUNNING via
    the store's compare-and-set) *before* calling here.
    """
    record = store.get(exp_id)
    if record is None:
        raise KeyError(f"unknown experiment {exp_id!r}")
    if record.status not in (INTERRUPTED, RUNNING):
        raise ValueError(
            f"experiment {exp_id} is {record.status}; only interrupted "
            "experiments can be resumed (run recover_interrupted first)"
        )
    checkpoint = record.checkpoint or {}
    store.append_event(
        exp_id,
        "resumed",
        from_epoch=checkpoint.get("epochs_trained", 0),
        from_clock=checkpoint.get("clock", 0.0),
    )
    if record.status == INTERRUPTED:
        store.mark_running(exp_id)
    return _run(
        store, exp_id, on_checkpoint, poll_wall_seconds, cluster_workers,
        aggregator, broker, fleet, fleet_control,
    )


def _run(
    store: RunStore,
    exp_id: str,
    on_checkpoint: Optional[CheckpointHook],
    poll_wall_seconds: float,
    cluster_workers: Optional[int] = None,
    aggregator=None,
    broker=None,
    fleet=None,
    fleet_control=None,
) -> RunRecord:
    record = store.get(exp_id)
    assert record is not None
    submission = Submission.from_dict(record.submission)
    workload = submission.build_workload()
    policy = submission.build_policy()
    spec = submission.build_spec()

    # Live submissions may be offloaded to the multi-process cluster
    # runtime; simulator submissions always run in-process, so the
    # daemon's worker-pool size — not --cluster-workers — bounds
    # concurrent simulated experiments.
    use_cluster = bool(cluster_workers) and submission.live

    # Replay anchor: mint once, journal, and always run from the
    # journaled list — a resumed run sees the identical stream.
    configs = store.minted_configs(exp_id)
    if configs is None:
        configs = submission.mint_configs(workload)
        store.record_configs(exp_id, configs)

    recorder = Recorder(exporter=store.journal_exporter(exp_id))

    control: Optional[_BrokerControl] = None
    if broker is not None:
        want = cluster_workers if use_cluster else spec.num_machines
        control = _BrokerControl(
            broker, store, exp_id, submission, want, poll_wall_seconds
        )
        if not control.admit():
            # Cancelled while queued for slots: no partial result exists.
            control.release(CANCELLED)
            record.status, record.cancel_requested = CANCELLED, True
            record.finished_at = store.mark_finished(exp_id, CANCELLED)
            return record

    # The run's registry reaches the aggregator at most once per
    # poll_wall_seconds while it runs, and once at the end.
    published = {"next": time.monotonic() + poll_wall_seconds}

    def publish_telemetry(final: bool = False) -> None:
        if aggregator is None:
            return
        now = time.monotonic()
        if final or now >= published["next"]:
            published["next"] = now + poll_wall_seconds
            aggregator.ingest_registry(
                exp_id, recorder.metrics, meta={"status": RUNNING}
            )

    # The first boundary's state is persisted at once, later ones at
    # most once per poll_wall_seconds, and the final one after the run.
    saved: Dict[str, Any] = {"next": 0.0, "epochs": -1, "scheduler": None}

    def save(state: Dict[str, Any]) -> None:
        store.save_checkpoint(exp_id, state)
        saved["epochs"] = state["epochs_trained"]
        record.checkpoint = state

    def checkpoint_hook(scheduler) -> None:
        saved["scheduler"] = scheduler
        now = time.monotonic()
        due = now >= saved["next"]
        state = None
        if due or on_checkpoint is not None:
            state = scheduler.checkpoint_state()
        if due:
            saved["next"] = now + poll_wall_seconds
            save(state)
        publish_telemetry()
        if control is not None:
            control.sync(scheduler)
        if on_checkpoint is not None:
            on_checkpoint(state)

    poll = {"next": 0.0, "cancelled": False}

    def stop_check() -> bool:
        if control is not None and control.preempted.is_set():
            return True
        now = time.monotonic()
        if now >= poll["next"]:
            poll["next"] = now + poll_wall_seconds
            poll["cancelled"] = store.cancel_requested(exp_id)
        return poll["cancelled"]

    # Every runtime takes the same hooks: they differ only in what
    # executes an epoch (§7).
    hooks = dict(
        configs=configs,
        recorder=recorder,
        stop_check=stop_check,
        progress_hook=checkpoint_hook,
        progress_every_epochs=submission.checkpoint_every,
        setup_hook=control.setup if control is not None else None,
    )
    try:
        if use_cluster:
            from ..cluster.runtime import run_cluster as runtime

            options = _cluster_options(
                exp_id, submission, spec, cluster_workers, aggregator,
                fleet, fleet_control,
            )
        elif submission.live:
            from ..runtime.local import run_live as runtime

            options = {"spec": spec, "time_scale": submission.time_scale}
        else:
            from ..sim.runner import run_simulation as runtime

            options = {"spec": spec}
        result = runtime(workload, policy, **options, **hooks)
    except Exception as exc:
        if control is not None:
            control.release(FAILED)
        store.mark_finished(
            exp_id, FAILED, error=f"{type(exc).__name__}: {exc}"
        )
        raise
    finally:
        publish_telemetry(final=True)
    scheduler = saved["scheduler"]
    if scheduler is not None and (
        scheduler.result.epochs_trained > saved["epochs"]
    ):
        save(scheduler.checkpoint_state())
    # The record returned is the one read at the start, brought up to
    # date here: the result just stored is not read back and decoded.
    record.cancel_requested = store.cancel_requested(exp_id)
    if (
        control is not None
        and control.preempted.is_set()
        and not record.cancel_requested
    ):
        # Broker reclaimed every slot: park the run as INTERRUPTED.  No
        # result is recorded — deterministic replay resumes it later
        # and finishes exactly as an uninterrupted run would.
        control.release("preempted")
        store.mark_interrupted(exp_id)
        record.status = INTERRUPTED
        return record
    record.status = CANCELLED if record.cancel_requested else COMPLETED
    if control is not None:
        control.release(record.status)
    record.result = result.to_dict()
    record.finished_at = store.mark_finished(
        exp_id, record.status, result=record.result
    )
    return record


def _cluster_options(
    exp_id, submission, spec, cluster_workers, aggregator, fleet,
    fleet_control,
) -> Dict[str, Any]:
    """``run_cluster``'s own arguments for one run (§4's deployed
    shape: one worker process per machine).  The daemon's
    ``--cluster-workers`` flag fixes the fleet size regardless of the
    submitted machine count."""
    if cluster_workers < 1:
        raise ValueError("cluster_workers must be >= 1")
    if fleet is not None:
        # Personalise the daemon's fleet template for this run: the
        # meter charges this experiment, against its own budget.
        fleet = replace(
            fleet,
            experiment_id=exp_id,
            budget_slot_hours=(
                fleet.budget_slot_hours
                if fleet.budget_slot_hours is not None
                else submission.budget_slot_hours
            ),
        )
    return {
        "spec": replace(spec, num_machines=cluster_workers),
        "time_scale": submission.time_scale,
        "aggregator": aggregator,
        "fleet": fleet,
        "fleet_control": fleet_control,
    }
