"""The worker process: a real Node Agent behind an RPC mailbox.

Each cluster worker is one OS process hosting one
:class:`~repro.framework.node_agent.NodeAgent` — the paper's
per-machine execution daemon (§4.2 ➅) — behind a
:class:`~repro.cluster.transport.WorkerEndpoint`.  The head drives it
with ``rpc`` frames mirroring the agent's method surface
(``assign`` / ``train_epoch`` / ``capture_snapshot`` / ``predict`` /
``release`` / ``shutdown``); the worker processes requests serially
from its mailbox and replies to the head-local ``reply/<machine-id>``
topic.

Observability: when the head aggregates telemetry, each worker owns a
full :class:`~repro.observability.recorder.Recorder` — metrics
registry, span tracer on a head-synchronised experiment clock, audit
trail — and a :class:`TelemetryShipper` thread that periodically ships
metric snapshots plus span/audit deltas to the head as TELEMETRY
frames.  RPC frames then carry the head's trace context (and
experiment clock); the worker re-activates it around dispatch so
``worker.train_epoch`` and the agent's snapshot/predict spans join the
head-minted trace.  A head with no aggregator reads none of it, so its
workers run the null recorder and ship nothing.

Fault injection hooks live here and in the endpoint:

* ``kill_at_epoch`` — after the agent finishes its N-th epoch *in this
  process*, the worker SIGKILLs itself before replying, so the epoch's
  work is genuinely lost (the head must fall back to the last
  snapshot).
* ``spot_revocation`` — after the agent finishes its N-th epoch the
  worker sends a ``revocation`` notice to the head's membership topic
  and arms a SIGKILL ``grace`` experiment-seconds out; the head uses
  the window to migrate the job off before the kill lands.
* ``drop_heartbeats`` / ``delay_send`` — enforced inside
  :class:`~repro.cluster.transport.WorkerEndpoint`.

Workers are spawned with the ``spawn`` multiprocessing context: a fresh
interpreter imports this module and calls :func:`worker_main` with
picklable arguments (workload, predictor, fault sub-plan).
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from typing import Any, Dict, Optional

from ..curves.predictor import CurvePrediction, CurvePredictor
from ..framework.node_agent import NodeAgent
from ..framework.snapshot import Snapshot, cost_model_for_domain
from ..observability import NULL_RECORDER, Recorder
from ..observability.tracing import TraceContext, trace_context
from ..workloads.base import Workload
from .faults import FaultPlan, SpotRevocation
from .transport import TELEMETRY, NodeFailure, WorkerEndpoint

__all__ = [
    "worker_main",
    "snapshot_to_wire",
    "snapshot_from_wire",
    "TelemetryShipper",
]

logger = logging.getLogger(__name__)

RPC = "rpc"
RPC_REPLY = "rpc_reply"


class _WorkerClock:
    """The head's experiment clock, reconstructed worker-side.

    Every RPC envelope carries the head's clock reading; the worker
    anchors there and extrapolates between RPCs by scaled wall time, so
    worker spans land on the same time axis as head spans (modulo one
    network hop of skew — fine for timelines, not for ordering proofs).
    """

    __slots__ = ("_time_scale", "_base", "_anchored_at")

    def __init__(self, time_scale: float) -> None:
        self._time_scale = time_scale
        self._base = 0.0
        self._anchored_at = time.monotonic()

    def sync(self, head_clock: float) -> None:
        self._base = float(head_clock)
        self._anchored_at = time.monotonic()

    def __call__(self) -> float:
        elapsed = time.monotonic() - self._anchored_at
        return self._base + elapsed / self._time_scale


class TelemetryShipper:
    """Ships a node's telemetry to the head on a fixed wall interval.

    Metrics go as full snapshots (latest wins at the aggregator, so a
    lost frame costs staleness, not correctness); finished spans and
    audit records go as deltas: everything recorded since the last
    batch, dropped from the recorder once its send succeeds, so a
    long-lived worker holds only what it has not shipped yet.  A failed
    send drops nothing — the next tick retries the same delta.
    Shipping must never hurt the worker: every failure is swallowed
    (logged at debug level).
    """

    def __init__(
        self,
        endpoint: WorkerEndpoint,
        recorder: Recorder,
        interval: float = 0.25,
    ) -> None:
        self._endpoint = endpoint
        self._recorder = recorder
        self.interval = interval
        self._seq = 0
        # The shipper thread and the shutdown RPC's final flush both
        # ship; one batch at a time, so no record is dropped unsent.
        self._ship_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop,
            name=f"telemetry-{self._endpoint.machine_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self, flush: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if flush:
            self.ship()

    def _loop(self) -> None:
        # First batch immediately: the node announces itself to the
        # aggregator as soon as it is up, so even a worker that dies
        # young (kill_at_epoch faults, real crashes) leaves a record.
        self.ship()
        while not self._stop.wait(self.interval):
            self.ship()

    def ship(self) -> bool:
        """Send one batch; True on success (its records dropped)."""
        with self._ship_lock:
            spans = self._recorder.tracer.spans
            audit = self._recorder.audit.records
            # The main loop only appends, so the first n records stay
            # the first n until this batch deletes them.
            n_spans, n_audit = len(spans), len(audit)
            try:
                batch = {
                    "seq": self._seq,
                    "metrics": self._recorder.metrics.to_dict(),
                    "spans": [s.to_dict() for s in spans[:n_spans]],
                    "audit": [r.to_dict() for r in audit[:n_audit]],
                }
                self._endpoint.send(TELEMETRY, TELEMETRY, batch)
            except NodeFailure:
                return False  # link down; retry the same delta next tick
            except Exception:  # noqa: BLE001 — telemetry must not kill training
                logger.debug("telemetry batch failed", exc_info=True)
                return False
            del spans[:n_spans]
            del audit[:n_audit]
            self._seq += 1
            return True


def snapshot_to_wire(snapshot: Optional[Snapshot]) -> Optional[Dict[str, Any]]:
    """Flatten a Snapshot for the frame codec (ndarrays survive)."""
    if snapshot is None:
        return None
    return {
        "job_id": snapshot.job_id,
        "epoch": snapshot.epoch,
        "state": snapshot.state,
        "size_bytes": snapshot.size_bytes,
        "latency": snapshot.latency,
        "timestamp": snapshot.timestamp,
    }


def snapshot_from_wire(wire: Optional[Dict[str, Any]]) -> Optional[Snapshot]:
    if wire is None:
        return None
    return Snapshot(
        job_id=wire["job_id"],
        epoch=int(wire["epoch"]),
        state=wire["state"],
        size_bytes=float(wire["size_bytes"]),
        latency=float(wire["latency"]),
        timestamp=float(wire.get("timestamp", 0.0)),
    )


def prediction_to_wire(prediction: CurvePrediction) -> Dict[str, Any]:
    return {
        "observed": prediction.observed,
        "horizon": prediction.horizon,
        "samples": prediction.samples,
    }


class _WorkerHost:
    """Dispatches RPC frames onto the hosted Node Agent."""

    def __init__(
        self,
        machine_id: str,
        endpoint: WorkerEndpoint,
        agent: NodeAgent,
        kill_epoch: Optional[int],
        recorder: Optional[Recorder] = None,
        clock: Optional[_WorkerClock] = None,
        shipper: Optional[TelemetryShipper] = None,
        revocation: Optional[SpotRevocation] = None,
        time_scale: float = 1e-3,
    ) -> None:
        self.machine_id = machine_id
        self.endpoint = endpoint
        self.agent = agent
        self._kill_epoch = kill_epoch
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._clock = clock
        self._shipper = shipper
        self._revocation = revocation
        self._time_scale = time_scale
        self._revocation_sent = False
        self._epochs_trained = 0
        self.running = True

    # ------------------------------------------------------------- dispatch

    def handle(self, payload: Dict[str, Any],
               trace: Optional[Dict[str, Any]] = None) -> None:
        seq = payload.get("seq")
        method = payload.get("method")
        args = payload.get("args") or {}
        # The head's clock rides on every RPC; re-anchor before any span
        # opens so worker timestamps stay on the head's time axis.
        if self._clock is not None and trace and "clock" in trace:
            self._clock.sync(trace["clock"])
        try:
            with trace_context(TraceContext.from_dict(trace)):
                value = self._invoke(method, args)
        except Exception as exc:  # noqa: BLE001 — errors travel to the head
            logger.exception("worker %s: rpc %s failed", self.machine_id, method)
            self._reply({"seq": seq, "ok": False,
                         "error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply({"seq": seq, "ok": True, "value": value})

    def _reply(self, payload: Dict[str, Any]) -> None:
        try:
            self.endpoint.send(f"reply/{self.machine_id}", RPC_REPLY, payload)
        except NodeFailure:
            pass  # link died; the head has already given up on this RPC

    def _invoke(self, method: Optional[str], args: Dict[str, Any]) -> Any:
        if method == "assign":
            if self.agent.busy:
                # The head is authoritative.  A worker declared dead for
                # silence (dropped heartbeats) keeps hosting its old run
                # even though the head has migrated that job elsewhere;
                # when the head trusts this node again its first assign
                # supersedes the stale state.
                self.agent.release()
            self.agent.assign(
                args["job_id"],
                args["config"],
                seed=int(args.get("seed", 0)),
                snapshot=snapshot_from_wire(args.get("snapshot")),
            )
            return None
        if method == "train_epoch":
            with self._recorder.tracer.span(
                "worker.train_epoch",
                machine_id=self.machine_id,
                job_id=self.agent.job_id or "",
            ) as span:
                result = self.agent.train_epoch()
                span.set(epoch=result.epoch, duration=result.duration)
            self._epochs_trained += 1
            if (
                self._kill_epoch is not None
                and self._epochs_trained >= self._kill_epoch
            ):
                # Injected crash: die before the result frame leaves the
                # process, losing the epoch exactly as a real mid-epoch
                # failure would.
                os.kill(os.getpid(), signal.SIGKILL)
            if (
                self._revocation is not None
                and not self._revocation_sent
                and self._epochs_trained >= self._revocation.epoch
            ):
                # Spot revocation notice: announce to the head *now*,
                # arm the kill for grace seconds out, and keep serving
                # RPCs in between — the head uses the window to migrate
                # the job off this machine before the kill lands.
                self._announce_revocation(self._revocation.grace)
            run = self.agent.run
            return {
                "epoch": result.epoch,
                "duration": result.duration,
                "metric": result.metric,
                "done": result.done,
                "extras": dict(result.extras),
                "run_finished": bool(run is not None and run.finished),
            }
        if method == "capture_snapshot":
            return snapshot_to_wire(self.agent.capture_snapshot())
        if method == "predict":
            prediction = self.agent.predict(int(args["n_future"]))
            return prediction_to_wire(prediction)
        if method == "release":
            self.agent.release()
            return None
        if method == "curve_history":
            return self.agent.curve_history
        if method == "revoke":
            # Head-initiated revocation (daemon /fleet/revoke): the
            # head already knows, so arm the kill without a notice.
            self._arm_kill(float(args.get("grace", 0.0)))
            return None
        if method == "shutdown":
            # Final telemetry flush *before* the reply: the head tears
            # the link down right after it hears back, and the last
            # spans/audit records should not die with the process.
            if self._shipper is not None:
                self._shipper.ship()
            self.running = False
            return None
        raise ValueError(f"unknown rpc method {method!r}")

    # ----------------------------------------------------------- revocation

    def _announce_revocation(self, grace: float) -> None:
        self._revocation_sent = True
        self._recorder.audit.record(
            "worker_spot_revocation",
            machine_id=self.machine_id,
            grace=grace,
        )
        try:
            self.endpoint.send(
                "membership",
                "revocation",
                {"machine_id": self.machine_id, "grace": grace},
            )
        except NodeFailure:
            pass  # link down; the kill still lands, as a plain failure
        self._arm_kill(grace)

    def _arm_kill(self, grace: float) -> None:
        # Grace is in *experiment* seconds; the wall timer scales it.
        delay = max(0.0, grace) * self._time_scale
        timer = threading.Timer(
            delay, os.kill, args=(os.getpid(), signal.SIGKILL)
        )
        timer.daemon = True
        timer.start()


def worker_main(
    host: str,
    port: int,
    machine_id: str,
    workload: Workload,
    predictor: Optional[CurvePredictor],
    seed: int,
    fault_specs: list,
    time_scale: float = 1e-3,
    telemetry_interval: Optional[float] = 0.25,
) -> None:
    """Entry point of one worker process (multiprocessing spawn target).

    ``telemetry_interval`` is the wall seconds between telemetry
    batches, or None when the head aggregates no telemetry: the worker
    then records nothing and starts no shipper.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the head owns shutdown
    plan = FaultPlan.from_dicts(fault_specs)
    clock: Optional[_WorkerClock] = None
    recorder = NULL_RECORDER
    if telemetry_interval is not None:
        clock = _WorkerClock(time_scale)
        recorder = Recorder(clock=clock, trace=True)
        # Guaranteed non-empty registry: every node renders at least one
        # node-labelled sample on the merged export from its first batch.
        recorder.metrics.gauge(
            "worker_up", help="1 while this worker process is alive"
        ).set(1.0)
    agent = NodeAgent(
        machine_id=machine_id,
        workload=workload,
        snapshot_cost_model=cost_model_for_domain(workload.domain.kind),
        predictor=predictor,
        seed=seed,
        recorder=recorder,
    )
    endpoint = WorkerEndpoint(
        host, port, machine_id, fault_plan=plan.for_machine(machine_id)
    )
    try:
        endpoint.connect()
    except OSError:
        if not endpoint.reconnect():
            return
    shipper: Optional[TelemetryShipper] = None
    if telemetry_interval is not None:
        shipper = TelemetryShipper(endpoint, recorder, interval=telemetry_interval)
        shipper.start()
    host_loop = _WorkerHost(
        machine_id, endpoint, agent, plan.kill_epoch(machine_id),
        recorder=recorder, clock=clock, shipper=shipper,
        revocation=plan.spot_revocation(machine_id),
        time_scale=time_scale,
    )
    try:
        while host_loop.running:
            message = endpoint.mailbox.get(timeout=1.0)
            if message is None:
                continue
            if message.kind == "connection_lost":
                # The head will have rescheduled our job elsewhere by
                # the time we are back, so local run state is stale.
                agent.release()
                if not endpoint.reconnect():
                    return
                continue
            if message.kind == RPC:
                host_loop.handle(message.payload, trace=message.trace)
    finally:
        if shipper is not None:
            shipper.stop(flush=True)
        endpoint.close()
