"""The cluster runtime: scheduler at the head, Node Agents in worker
processes.

This is the closest the repo gets to the paper's deployed shape (§4):
the Job & Resource Manager (our :class:`HyperDriveScheduler`) runs in
the head process and drives per-machine Node Agents over a network
protocol.  Every worker is a real OS process hosting a real
:class:`~repro.framework.node_agent.NodeAgent`; the head talks to it
through :class:`~repro.cluster.agent.RemoteAgent` proxies over the
framed TCP transport.

The control flow is :mod:`repro.runtime.local`'s — the cluster's
experiment subclasses its :class:`~repro.runtime.local.ThreadedExperiment`
(one driver thread per machine, training outside the scheduler lock,
scaled-wall sleeps for epoch durations, a clock that starts at 0.0 once
the fleet is up) — so live and cluster results are directly
comparable.  What the cluster adds through the driver's hooks:

* **Membership** — heartbeats detect dead or silent workers
  (:mod:`repro.cluster.membership`).
* **Failure recovery** — a dead node's job is suspended, its history
  truncated to the last snapshot, and the POP policy reallocates it to
  a survivor, which resumes from the snapshot and pays its suspend
  latency again as resume cost.  Each job has a bounded retry budget;
  exhausting it terminates the job instead of migrating it forever.
* **Fault injection** — a :class:`~repro.cluster.faults.FaultPlan`
  ships deterministic kill/drop/delay triggers to the workers.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..autoscale import (
    ON_DEMAND,
    SPOT,
    Autoscaler,
    CostMeter,
    FleetControl,
    FleetOptions,
    machine_classes,
)
from ..curves.predictor import CurvePredictor
from ..framework.experiment import ExperimentResult, ExperimentSpec
from ..generators.base import HyperparameterGenerator
from ..observability.aggregator import TelemetryAggregator
from ..policies.base import SchedulingPolicy
from ..runtime.local import ThreadedExperiment, check_threaded_arguments
from ..sim.runner import default_predictor, initial_jobs
from ..workloads.base import Workload
from .agent import RemoteAgent
from .faults import FaultPlan
from .membership import HeartbeatMonitor
from .transport import TELEMETRY, ClusterTransport, NodeFailure
from .worker import worker_main

__all__ = ["run_cluster", "ClusterStartupError"]

logger = logging.getLogger(__name__)


class ClusterStartupError(RuntimeError):
    """The worker fleet failed to assemble within the startup window."""


class _ClusterExperiment(ThreadedExperiment):
    """One cluster run: worker processes + head-side driver threads."""

    thread_prefix = "cluster-driver"
    # The node died under its driver; membership handles recovery.
    recoverable = (NodeFailure,)

    def __init__(
        self,
        workload: Workload,
        policy: SchedulingPolicy,
        spec: ExperimentSpec,
        predictor: CurvePredictor,
        time_scale: float,
        fault_plan: FaultPlan,
        heartbeat_interval: float = 0.1,
        miss_threshold: int = 3,
        retry_budget: int = 3,
        startup_timeout: float = 30.0,
        aggregator: Optional[TelemetryAggregator] = None,
        telemetry_interval: float = 0.25,
        fleet: Optional[FleetOptions] = None,
        fleet_control: Optional[FleetControl] = None,
        **common: Any,
    ) -> None:
        self.transport = ClusterTransport()
        # Node Agents live in worker processes; the scheduler gets
        # socket proxies and no head-side predictor (predictions are
        # remote, §5.2's distributed shape).  Driver mailboxes are
        # head-local topics on the transport, distinct from the machine
        # topics, which route over sockets once workers register.
        super().__init__(
            workload,
            policy,
            spec,
            time_scale,
            agent_factory=lambda machine_id, **_ignored: RemoteAgent(
                machine_id, self.transport, clock=self._clock,
            ),
            bus=self.transport,
            **common,
        )
        self.fault_plan = fault_plan
        self.retry_budget = retry_budget
        self.startup_timeout = startup_timeout
        self._workload = workload
        self._predictor = predictor
        self._m_migrations = self.recorder.metrics.counter(
            "cluster_migrations_total",
            help="Jobs rescheduled off dead nodes onto survivors",
        )
        # ---- elastic fleet / cost metering (repro.autoscale) ----
        self.fleet = fleet
        self.fleet_control = fleet_control
        if fleet is not None and fleet.autoscale is not None:
            self._fleet_min, self._fleet_max = fleet.autoscale
        else:
            self._fleet_min = self._fleet_max = len(self.machine_ids)
        # Elastic runs boot only the minimum fleet; the rest of the
        # machine ledger stays drained until a grow spawns processes.
        self._initial_machines = self.machine_ids[: self._fleet_min]
        self._desired_capacity = len(self._initial_machines)
        # Once the broker starts steering capacity, the internal
        # demand autoscaler stands down.
        self._external_capacity: Optional[int] = None
        spot_fraction = fleet.spot_fraction if fleet is not None else 0.0
        self._classes = machine_classes(self.machine_ids, spot_fraction)
        self.cost_meter: Optional[CostMeter] = None
        self._fleet_autoscaler: Optional[Autoscaler] = None
        if fleet is not None:
            self.cost_meter = CostMeter(
                fleet.experiment_id,
                model=fleet.cost_model,
                budget_slot_hours=fleet.budget_slot_hours,
                recorder=self.recorder,
                cost_path=fleet.cost_path,
                exporter=fleet.cost_exporter,
            )
            if fleet.autoscale is not None:
                self._fleet_autoscaler = Autoscaler(
                    self._fleet_min,
                    self._fleet_max,
                    # Cooldown in wall seconds, scaled so fast-clock
                    # test runs still get a few control rounds.
                    cooldown_seconds=max(0.2, 5.0 * time_scale),
                )
                # Daemon hook: the broker's capacity sync discovers
                # this handle and routes pool grants through
                # request_capacity before resizing.
                self.scheduler.fleet_manager = self
        self._m_workers_up = self.recorder.metrics.gauge(
            "cost_workers_up", help="Worker processes alive, by machine class"
        )
        self._last_cost_clock: Optional[float] = None
        self._next_cost_record = 0.0
        self._budget_exhausted_logged = False
        self._membership_box = self.transport.declare_topic("membership")
        # Workers ship telemetry unconditionally; the mailbox is always
        # declared so the frames never trip strict delivery.  They are
        # only *used* when an aggregator exists.
        self._telemetry_box = self.transport.declare_topic(TELEMETRY)
        self.telemetry_interval = telemetry_interval
        if aggregator is None and self.recorder.enabled:
            aggregator = TelemetryAggregator()
        self.aggregator = aggregator
        if self.aggregator is not None:
            self.aggregator.on_event = self._on_shipped_event
        self.heartbeat = HeartbeatMonitor(
            self.transport,
            self._initial_machines,
            interval=heartbeat_interval,
            miss_threshold=miss_threshold,
            recorder=self.recorder,
        )
        self._next_head_ingest = 0.0
        self._processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._retries: Dict[str, int] = {}
        # Jobs knocked off dead machines, awaiting their restart (the
        # policy may resume them immediately or queue them until a
        # survivor frees up).  Guarded by the scheduler lock.
        self._displaced: Dict[str, Dict[str, float]] = {}
        # Resume latency charged to a machine's next epoch after it
        # picks up a migrated job (guarded by the scheduler lock).
        self._resume_charges: Dict[str, float] = {}

    # ------------------------------------------------------------ telemetry

    def _on_shipped_event(self, node: str, event: Dict[str, Any]) -> None:
        """Re-export a worker's shipped span/audit event, tagged with
        its node, into the head's journal (if one is attached)."""
        exporter = getattr(self.recorder, "exporter", None)
        if exporter is not None:
            exporter.export({**event, "node": node})

    def _drain_telemetry(self) -> None:
        messages = self._telemetry_box.drain()
        if self.aggregator is None:
            return
        for message in messages:
            self.aggregator.ingest(message.sender, message.payload)

    def _ingest_head(self) -> None:
        """Fold the head's own registry (scheduler, membership, bus
        gauges — including the node-labelled heartbeat RTT histogram)
        into the aggregator under ``node="head"``."""
        if self.aggregator is None or not self.recorder.enabled:
            return
        self.aggregator.ingest_registry(
            "head", self.recorder.metrics,
            meta={"heartbeat": self.heartbeat.snapshot()},
        )

    # ------------------------------------------------------------- start-up

    def _spawn_worker(self, machine_id: str) -> None:
        """Launch (or relaunch) one worker process for ``machine_id``."""
        host, port = self.transport.address
        context = multiprocessing.get_context("spawn")
        # Seed by ledger position, not spawn order, so a respawned
        # machine trains identically to its first incarnation.
        index = self.machine_ids.index(machine_id)
        process = context.Process(
            target=worker_main,
            args=(
                host,
                port,
                machine_id,
                self._workload,
                self._predictor,
                self.spec.seed + index,
                self.fault_plan.for_machine(machine_id).to_dicts(),
                self.time_scale,
                self.telemetry_interval,
            ),
            name=f"cluster-worker-{machine_id}",
            daemon=True,
        )
        process.start()
        self._processes[machine_id] = process

    def _launch(self) -> None:
        """Start the transport, launch the initial worker fleet and wait
        for its hellos; the experiment clock starts only after this."""
        self.transport.start()
        # Pinging starts only once the whole fleet has said hello: while
        # its peers are still importing, an early worker can be starved
        # of CPU long enough to miss pings, and a node declared down
        # before the barrier would keep it from ever opening.  A launch
        # that fails leaves no worker process behind.
        try:
            for machine_id in self._initial_machines:
                self._spawn_worker(machine_id)
            self._await_hellos()
        except BaseException:
            self._abort_launch()
            raise
        # Membership callbacks attach only after the startup barrier, so
        # the initial hellos do not masquerade as recoveries.
        self.heartbeat.on_down = self._on_down_signal
        self.heartbeat.on_up = self._on_up_signal
        self.heartbeat.on_departed = self._on_departed_signal
        self.heartbeat.start()
        membership = threading.Thread(
            target=self._membership_loop, name="cluster-membership", daemon=True
        )
        membership.start()
        self._threads.append(membership)
        if len(self._initial_machines) < len(self.machine_ids):
            # Elastic start: only the booted minimum is in service; the
            # rest of the ledger waits drained for a grow.
            with self.lock:
                self.scheduler.resize(len(self._initial_machines))

    def _await_hellos(self) -> None:
        """The startup barrier, waited in short slices so that a worker
        which exits before its hello fails the launch at once."""
        deadline = time.monotonic() + self.startup_timeout
        while not self.heartbeat.wait_all_up(0.05):
            for machine_id in self._initial_machines:
                exitcode = self._processes[machine_id].exitcode
                if exitcode is not None:
                    raise ClusterStartupError(
                        f"worker {machine_id} exited with code {exitcode} "
                        "before registering"
                    )
            if time.monotonic() >= deadline:
                missing = [
                    machine_id
                    for machine_id in self._initial_machines
                    if not self.heartbeat.is_up(machine_id)
                ]
                raise ClusterStartupError(
                    f"workers never registered within {self.startup_timeout}s: "
                    + ", ".join(missing)
                )

    def _abort_launch(self) -> None:
        """Stop every spawned worker and the transport of a failed launch."""
        for process in self._processes.values():
            process.terminate()
        for process in self._processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join()
        self.transport.close()

    # ------------------------------------------------------------ membership

    def _on_down_signal(self, machine_id: str) -> None:
        """Heartbeat verdict: fail RPCs *now*, defer the scheduler work.

        Runs on a transport reader thread (socket death) or the
        heartbeat thread (miss threshold).  ``mark_dead`` happens here,
        before anything queues, so a driver blocked in an RPC against
        this node wakes with :class:`NodeFailure` within its poll slice
        instead of waiting out its timeout.  The migration itself runs
        on the membership thread: it issues RPCs of its own, and those
        must never execute on a connection's reader thread (the reply
        would have to be delivered by the very thread awaiting it).
        """
        self.scheduler.agents[machine_id].mark_dead()
        self.transport.send("membership", "down", machine_id, sender="heartbeat")

    def _on_up_signal(self, machine_id: str) -> None:
        self.transport.send("membership", "up", machine_id, sender="heartbeat")

    def _on_departed_signal(self, machine_id: str, reason: str) -> None:
        """An *announced* departure (drain, spot revocation) landed."""
        self.scheduler.agents[machine_id].mark_dead()
        self.transport.send(
            "membership",
            "departed",
            {"machine_id": machine_id, "reason": reason},
            sender="heartbeat",
        )

    def _membership_loop(self) -> None:
        """Serialise node up/down handling off the transport threads."""
        while not self.stop_event.is_set():
            message = self._membership_box.get(timeout=0.02)
            if message is None:
                continue
            if message.kind == "down":
                self._node_down(message.payload)
            elif message.kind == "up":
                self._node_up(message.payload)
            elif message.kind == "revocation":
                payload = message.payload or {}
                self._node_revoked(
                    payload["machine_id"],
                    float(payload.get("grace", 0.0)),
                    source="worker",
                )
            elif message.kind == "departed":
                payload = message.payload or {}
                self._node_departed(
                    payload["machine_id"], payload.get("reason", "")
                )

    def _node_down(self, machine_id: str) -> None:
        """A worker died or went silent: free its slot, migrate its job."""
        agent: RemoteAgent = self.scheduler.agents[machine_id]
        agent.mark_dead()
        if self.stop_event.is_set():
            return
        with self._locked():
            if self.scheduler.resource_manager.is_failed(machine_id):
                return  # raced with another down-path for the same node
            displaced = agent.job_id
            self.scheduler.machine_failed(machine_id)
            agent.forget()
            if displaced is not None:
                self._retries[displaced] = self._retries.get(displaced, 0) + 1
                if self._retries[displaced] > self.retry_budget:
                    # The job keeps landing on dying machines; stop
                    # feeding it slots.
                    self._displaced.pop(displaced, None)
                    self.scheduler.job_manager.terminate_job(displaced)
                    self.scheduler.appstat_db.drop_snapshot(displaced)
                    self.recorder.audit.record(
                        "cluster_retry_budget_exhausted",
                        job_id=displaced,
                        machine_id=machine_id,
                        retries=self._retries[displaced],
                    )
                else:
                    snapshot = self.scheduler.appstat_db.load_snapshot(displaced)
                    self._displaced[displaced] = {
                        "resume_epoch": snapshot.epoch if snapshot else 0,
                        "resume_latency": snapshot.latency if snapshot else 0.0,
                    }
            if self.scheduler.done:
                started = []
            else:
                self.scheduler.policy.allocate_jobs()
                started = self._take_started()
        self._notify_started(started)

    def _node_up(self, machine_id: str) -> None:
        """A down node answered again (reconnect or resumed pongs)."""
        agent: RemoteAgent = self.scheduler.agents[machine_id]
        if self.stop_event.is_set():
            return
        with self._locked():
            # Always re-arm RPCs: a freshly (re)spawned scale-up worker
            # says hello while its machine is still parked drained — it
            # is not "failed", but its agent must accept calls again.
            agent.mark_alive()
            if not self.scheduler.resource_manager.is_failed(machine_id):
                return
            self.scheduler.machine_recovered(machine_id)
            started = self._take_started()
        self._notify_started(started)

    def _node_revoked(
        self, machine_id: str, grace: float, source: str = "worker"
    ) -> None:
        """A spot revocation notice arrived: migrate before the kill.

        The machine is marked as an *expected* departure (so its death
        is not a failure), then gracefully evicted: its job suspends at
        the next epoch boundary through the normal drain path — losing
        zero epochs — and resumes from the snapshot on a survivor.
        Quarantine keeps capacity grows from resurrecting the doomed
        instance between the notice and the kill.
        """
        if self.stop_event.is_set():
            return
        self.recorder.audit.record(
            "cluster_spot_revocation",
            machine_id=machine_id,
            grace=grace,
            source=source,
        )
        self.heartbeat.expect_departure(machine_id, "spot_revocation")
        with self._locked():
            if self.scheduler.resource_manager.is_failed(machine_id):
                return
            self.scheduler.evict_machine(machine_id, quarantine=True)

    def _node_departed(self, machine_id: str, reason: str) -> None:
        """An announced departure completed (the process is gone)."""
        agent: RemoteAgent = self.scheduler.agents[machine_id]
        agent.mark_dead()
        if self.stop_event.is_set():
            return
        if agent.job_id is not None:
            # The grace window was shorter than the epoch boundary: the
            # job never migrated off.  That *is* a failure — fall back
            # to the truncate-to-snapshot migration path.
            self._node_down(machine_id)
            return
        # Clean exit: the job (if any) already moved; just stop
        # tracking the corpse.  The machine stays drained in the RM —
        # quarantined (revoked) machines are never resurrected, drained
        # ones may be respawned by a later grow.
        self.heartbeat.remove_node(machine_id)

    def _take_started(self) -> List[str]:
        """Collect newly started machines; settle displaced-job landings.

        Called under the scheduler lock.  A job knocked off a dead node
        may restart immediately (a survivor was idle) or minutes later
        (the policy queued it) — either way its first restart passes
        through here, where the snapshot's suspend latency is charged
        to the new machine as resume cost and the migration is audited.
        """
        started = self.scheduler.take_started_machines()
        for machine_id in started:
            job_id = self.scheduler.agents[machine_id].job_id
            if job_id is None or job_id not in self._displaced:
                continue
            charge = self._displaced.pop(job_id)
            self._resume_charges[machine_id] = charge["resume_latency"]
            self._m_migrations.inc()
            self.recorder.audit.record(
                "cluster_migration",
                job_id=job_id,
                machine_id=machine_id,
                resume_epoch=charge["resume_epoch"],
                resume_latency=charge["resume_latency"],
            )
        return started

    # ---------------------------------------------------------------- hooks

    def _resume_delay(self, machine_id: str) -> float:
        with self._locked():
            return self._resume_charges.pop(machine_id, 0.0)

    def _epoch_span(self, machine_id: str, agent: RemoteAgent):
        # One root span per epoch: the train RPC it issues carries this
        # trace id to the worker, and the settlement's
        # ``scheduler.process_epoch`` span nests inside it — head
        # scheduler → worker epoch → head settlement, one trace.
        return self.recorder.tracer.span(
            "cluster.epoch", machine_id=machine_id, job_id=agent.job_id or ""
        )

    def _epoch_lost(self, agent: RemoteAgent) -> bool:
        # Declared dead while its driver slept out the epoch: the result
        # belongs to a failed machine and must not be recorded.
        return agent.dead or agent.job_id is None

    def _tick(self) -> bool:
        self._drain_telemetry()
        now = time.monotonic()
        if now >= self._next_head_ingest:
            self._next_head_ingest = now + self.telemetry_interval
            self._ingest_head()
        if self.fleet is not None:
            self._fleet_tick()
        if self.heartbeat.nodes_up == 0:
            # The whole fleet is gone; nothing can make progress.
            logger.error("all cluster nodes are down; aborting run")
            return False
        return True

    # ---------------------------------------------------------------- fleet

    def request_capacity(self, target: int) -> int:
        """Steer the fleet toward ``target`` machines (broker sync hook).

        Called under the scheduler lock from the daemon's capacity
        sync.  Shrinks apply immediately (the caller resizes the
        scheduler; drained processes are reaped by the monitor);
        grows are deferred until real worker processes have booted.
        Returns the capacity the caller may resize to *right now*.
        """
        clamped = max(self._fleet_min, min(self._fleet_max, target))
        self._desired_capacity = clamped
        self._external_capacity = clamped
        rm = self.scheduler.resource_manager
        in_service = rm.num_in_service
        if clamped <= in_service:
            return clamped
        # Grow: only machines that are already up can join immediately
        # — and only as the resurrection-order prefix, since that is
        # the order set_target_capacity will un-drain them in.
        extra = 0
        for machine_id in rm.drained_machines:
            if rm.is_quarantined(machine_id):
                continue
            if not self.heartbeat.is_up(machine_id):
                break
            extra += 1
            if in_service + extra >= clamped:
                break
        return min(clamped, in_service + extra)

    def _fleet_tick(self) -> None:
        """One monitor-loop round of fleet work: deliver head-initiated
        revocations, run the demand autoscaler, reconcile processes
        with the desired capacity, and meter cost."""
        if self.fleet_control is not None:
            for request in self.fleet_control.drain_revocations():
                self._deliver_revocation(request)
        if self._fleet_autoscaler is not None:
            if self._external_capacity is None:
                with self._locked():
                    rm = self.scheduler.resource_manager
                    size = rm.num_in_service
                    busy = rm.num_busy
                    queue_depth = self.scheduler.job_manager.num_idle
                decision = self._fleet_autoscaler.evaluate(
                    size=size, busy=busy, queue_depth=queue_depth
                )
                if decision is not None:
                    self._desired_capacity = decision.target
                    self.recorder.audit.record(
                        "autoscale",
                        scope="fleet",
                        target=decision.target,
                        direction=decision.direction,
                        reason=decision.reason,
                        pressure=round(decision.pressure, 4),
                    )
            self._reconcile_fleet()
        self._meter_costs()

    def _reconcile_fleet(self) -> None:
        """Drive processes and the scheduler toward the desired size."""
        target = self._desired_capacity
        rm = self.scheduler.resource_manager
        with self._locked():
            in_service = rm.num_in_service
            resurrectable = [
                machine_id
                for machine_id in rm.drained_machines
                if not rm.is_quarantined(machine_id)
            ]
        grow_prefix: List[str] = []
        if in_service < target:
            grow_prefix = resurrectable[: target - in_service]
            for machine_id in grow_prefix:
                process = self._processes.get(machine_id)
                if process is None or not process.is_alive():
                    self.heartbeat.add_node(machine_id)
                    self._spawn_worker(machine_id)
                    self.recorder.audit.record(
                        "cluster_node_spawned", machine_id=machine_id
                    )
            # Two-phase grow: resize only once every joining machine is
            # genuinely up, so the scheduler never assigns work to a
            # still-booting process.
            if grow_prefix and all(
                self.heartbeat.is_up(machine_id) for machine_id in grow_prefix
            ):
                with self._locked():
                    self.scheduler.resize(target)
                    started = self._take_started()
                self._notify_started(started)
        elif in_service > target:
            with self._locked():
                self.scheduler.resize(target)
        # Reap worker processes of machines that finished draining —
        # except those a pending grow is about to resurrect, and except
        # quarantined (revoked) machines, which die on their own timer.
        keep = set(grow_prefix)
        for machine_id in resurrectable:
            if machine_id in keep:
                continue
            process = self._processes.get(machine_id)
            if process is None or not process.is_alive():
                continue
            if not self.heartbeat.is_up(machine_id):
                continue  # still booting or already on its way out
            self.heartbeat.expect_departure(machine_id, "drain")
            agent: RemoteAgent = self.scheduler.agents[machine_id]
            try:
                agent.shutdown()
            except NodeFailure:
                pass
            self.recorder.audit.record(
                "cluster_node_reaped", machine_id=machine_id
            )

    def _deliver_revocation(self, request) -> None:
        """Turn one ``FleetControl`` revocation into a doomed worker."""
        rm = self.scheduler.resource_manager
        machine_id = request.machine_id
        if machine_id is None:
            candidates = [
                candidate
                for candidate, cls in sorted(self._classes.items())
                if cls == SPOT
                and self.heartbeat.is_up(candidate)
                and not rm.is_quarantined(candidate)
            ]
            machine_id = candidates[0] if candidates else None
        if machine_id is None or not self.heartbeat.is_up(machine_id):
            self.recorder.audit.record(
                "cluster_spot_revocation_skipped",
                machine_id=machine_id or "",
                reason="no eligible spot worker",
            )
            return
        grace = request.grace
        if grace is None:
            grace = self.fleet.grace_seconds if self.fleet else 30.0
        self._node_revoked(machine_id, grace, source="head")
        try:
            self.scheduler.agents[machine_id].revoke(grace)
        except (NodeFailure, RuntimeError):
            pass  # it died early; membership handles the fallout

    def _meter_costs(self, publish: bool = False) -> None:
        """Charge wall-metered machine-seconds (experiment clock) for
        every live worker process, and periodically journal a tick."""
        if self.cost_meter is None:
            return
        now = self._clock()
        last = self._last_cost_clock
        self._last_cost_clock = now
        up = {ON_DEMAND: 0, SPOT: 0}
        delta = now - last if last is not None else 0.0
        for machine_id, process in self._processes.items():
            if not process.is_alive():
                continue
            cls = self._classes[machine_id]
            up[cls] += 1
            if delta > 0:
                self.cost_meter.charge(cls, delta, machine_id)
        for cls, count in up.items():
            self._m_workers_up.set(float(count), **{"class": cls})
        if self.cost_meter.exhausted and not self._budget_exhausted_logged:
            self._budget_exhausted_logged = True
            spent = round(self.cost_meter.spent_dollars, 6)
            self.recorder.audit.record(
                "cost_budget_exhausted",
                experiment=self.cost_meter.exp_id,
                spent_dollars=spent,
            )
            self.cost_meter.record("budget_exhausted", spent_dollars=spent)
        wall = time.monotonic()
        if publish or wall >= self._next_cost_record:
            self._next_cost_record = wall + max(self.telemetry_interval, 0.25)
            self.cost_meter.record(
                "cost_tick",
                clock=round(now, 3),
                workers_up=dict(up),
                spent_dollars=round(self.cost_meter.spent_dollars, 6),
            )
            if self.fleet_control is not None:
                self.fleet_control.publish(
                    {
                        "workers_up": dict(up),
                        "desired_capacity": self._desired_capacity,
                        "classes": dict(self._classes),
                        "cost": self.cost_meter.summary(),
                    }
                )

    def _teardown(self) -> None:
        self.heartbeat.stop()
        for machine_id in self.machine_ids:
            agent: RemoteAgent = self.scheduler.agents[machine_id]
            if not agent.dead and self.transport.has_connection(machine_id):
                agent.shutdown()
        self.transport.close()
        for process in self._processes.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        # Frames that arrived between the monitor's last drain and the
        # transport teardown (notably the workers' shutdown flushes) are
        # still queued; fold them in so the final export is complete.
        self._drain_telemetry()
        self._ingest_head()
        if self.cost_meter is not None:
            self._meter_costs(publish=True)
            self.cost_meter.close()


def run_cluster(
    workload: Workload,
    policy: SchedulingPolicy,
    generator: Optional[HyperparameterGenerator] = None,
    spec: Optional[ExperimentSpec] = None,
    predictor: Optional[CurvePredictor] = None,
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    time_scale: float = 1e-3,
    fault_plan: Optional[FaultPlan] = None,
    recorder=None,
    heartbeat_interval: float = 0.1,
    miss_threshold: int = 3,
    retry_budget: int = 3,
    startup_timeout: float = 30.0,
    stop_check: Optional[Callable[[], bool]] = None,
    progress_hook: Optional[Callable] = None,
    progress_every_epochs: int = 50,
    setup_hook: Optional[Callable] = None,
    aggregator: Optional[TelemetryAggregator] = None,
    telemetry_interval: float = 0.25,
    fleet: Optional[FleetOptions] = None,
    fleet_control: Optional[FleetControl] = None,
) -> ExperimentResult:
    """Run one experiment on the multi-process cluster runtime.

    Args:
        workload: the training problem (must be picklable — it ships to
            worker processes at spawn).
        policy: the SAP under test (runs unchanged at the head).
        generator: HG minting configurations (or pass ``configs``).
        spec: experiment parameters; ``spec.num_machines`` worker
            processes are spawned.  ``machine_mtbf`` is rejected:
            failures come from ``fault_plan``.
        predictor: curve predictor, instantiated *in each worker*
            (§5.2's distributed prediction, now genuinely distributed).
        configs: explicit configuration list.
        time_scale: wall seconds per simulated second.
        fault_plan: deterministic fault injection schedule.
        recorder: observability facade; cluster membership, heartbeat
            RTT, and migration metrics land here.
        heartbeat_interval: seconds between ping rounds.
        miss_threshold: consecutive missed pings before a silent node
            is declared dead.
        retry_budget: migrations allowed per job before it is
            terminated instead of rescheduled.
        startup_timeout: seconds to wait for the fleet to register.
        stop_check / progress_hook / progress_every_epochs /
            setup_hook: as in :func:`repro.runtime.local.run_live`.
        aggregator: telemetry sink merging per-node registries shipped
            by the workers; auto-created whenever a real recorder is
            attached (pass your own to share one across runs, as the
            service daemon does).
        telemetry_interval: wall seconds between worker telemetry
            batches (and head self-ingests).
        fleet: elasticity and economics: ``autoscale=(min, max)``
            worker-process bounds (``max`` must equal
            ``spec.num_machines`` — the ledger is the upper bound),
            spot fraction, revocation grace, cost model and budget.
            ``None`` keeps the fixed-fleet, unmetered behaviour.
        fleet_control: live command/status handle (the daemon queues
            spot revocations and reads fleet status through it).

    Returns:
        The finalised :class:`ExperimentResult` on the simulated-seconds
        axis, comparable to ``run_live`` and ``run_simulation`` output:
        the clock starts at 0.0 once every initial worker said hello,
        so spawn time is not charged to ``spec.tmax``.

    Raises:
        ClusterStartupError: a worker exited before its hello (raised
            at once, with its exit code) or never said it within
            ``startup_timeout``; no worker process outlives the call.
        RuntimeError: a driver thread failed to stop during shutdown.
    """
    if spec is None:
        spec = ExperimentSpec()
    check_threaded_arguments(
        spec, time_scale, progress_every_epochs,
        "inject cluster failures with a FaultPlan",
    )
    if retry_budget < 0:
        raise ValueError("retry_budget must be >= 0")
    if fleet is not None and fleet.autoscale is not None:
        if fleet.autoscale[1] != spec.num_machines:
            raise ValueError(
                "fleet.autoscale max must equal spec.num_machines "
                f"({fleet.autoscale[1]} != {spec.num_machines})"
            )
    jobs = initial_jobs(generator, configs, spec.num_configs)
    experiment = _ClusterExperiment(
        workload=workload,
        policy=policy,
        spec=spec,
        predictor=predictor if predictor is not None else default_predictor(),
        time_scale=time_scale,
        fault_plan=fault_plan if fault_plan is not None else FaultPlan(),
        recorder=recorder,
        heartbeat_interval=heartbeat_interval,
        miss_threshold=miss_threshold,
        retry_budget=retry_budget,
        startup_timeout=startup_timeout,
        stop_check=stop_check,
        progress_hook=progress_hook,
        progress_every_epochs=progress_every_epochs,
        setup_hook=setup_hook,
        aggregator=aggregator,
        telemetry_interval=telemetry_interval,
        fleet=fleet,
        fleet_control=fleet_control,
    )
    return experiment.run(jobs)
