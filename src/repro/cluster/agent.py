"""Head-side proxy with the Node Agent's exact surface.

The scheduler is constructed with an ``agent_factory`` that returns
:class:`RemoteAgent` instances instead of in-process
:class:`~repro.framework.node_agent.NodeAgent` objects.  Every method
becomes a synchronous RPC over the cluster transport; the scheduler and
the POP policy cannot tell the difference — the decoupling the paper
gets from GRPC (§5) and this repo demonstrates by running the same
experiment spec on both runtimes in one test.

Concurrency contract: one RPC at a time per machine (``_rpc_lock``),
matching the worker's serial mailbox loop.  Replies correlate by
sequence number; stale replies (from an RPC the head abandoned) are
discarded.  RPCs against a machine marked dead — or whose link dies
mid-call — raise :class:`~repro.cluster.transport.NodeFailure`, which
the cluster runtime's driver threads catch outside the scheduler lock.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from ..curves.predictor import CurvePrediction
from ..framework.snapshot import Snapshot
from ..observability.tracing import current_trace
from ..workloads.base import EpochResult
from .transport import ClusterTransport, NodeFailure
from .worker import RPC, RPC_REPLY, snapshot_from_wire, snapshot_to_wire

import numpy as np

__all__ = ["RemoteAgent"]


class _RunView:
    """Stands in for ``agent.run``: the scheduler only reads ``finished``."""

    __slots__ = ("finished",)

    def __init__(self, finished: bool) -> None:
        self.finished = finished


class RemoteAgent:
    """Node-Agent surface whose implementation lives in a worker process."""

    def __init__(
        self,
        machine_id: str,
        transport: ClusterTransport,
        rpc_timeout: float = 60.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.machine_id = machine_id
        self._transport = transport
        self._timeout = rpc_timeout
        # Experiment clock shipped, with the trace context, on every RPC
        # so the worker can stamp its spans on the head's time axis.
        # None when nothing reads worker spans: RPCs then carry no trace.
        self._clock = clock
        self._reply_topic = f"reply/{machine_id}"
        self._replies = transport.declare_topic(self._reply_topic)
        self._rpc_lock = threading.Lock()
        self._seq = 0
        self._dead = threading.Event()
        self._job_id: Optional[str] = None
        self._run_finished = False
        self.predictions_made = 0

    # ----------------------------------------------------------- membership

    def mark_dead(self) -> None:
        """Fail any in-flight and future RPCs against this machine."""
        self._dead.set()

    def mark_alive(self) -> None:
        """Re-arm after the node recovered (reconnect / resumed pongs)."""
        self._dead.clear()

    @property
    def dead(self) -> bool:
        return self._dead.is_set()

    # -------------------------------------------------- Node Agent surface

    @property
    def busy(self) -> bool:
        return self._job_id is not None

    @property
    def job_id(self) -> Optional[str]:
        return self._job_id

    @property
    def run(self) -> Optional[_RunView]:
        if self._job_id is None:
            return None
        return _RunView(self._run_finished)

    def assign(
        self,
        job_id: str,
        config: Dict[str, Any],
        seed: int = 0,
        snapshot: Optional[Snapshot] = None,
    ) -> None:
        if self.busy:
            raise RuntimeError(
                f"{self.machine_id} already hosts job {self._job_id!r}"
            )
        self._call(
            "assign",
            job_id=job_id,
            config=dict(config),
            seed=seed,
            snapshot=snapshot_to_wire(snapshot),
        )
        self._job_id = job_id
        self._run_finished = False

    def train_epoch(self) -> EpochResult:
        value = self._call("train_epoch")
        self._run_finished = bool(value["run_finished"])
        return EpochResult(
            epoch=int(value["epoch"]),
            duration=float(value["duration"]),
            metric=float(value["metric"]),
            done=bool(value["done"]),
            extras=dict(value.get("extras") or {}),
        )

    def capture_snapshot(self) -> Snapshot:
        snapshot = snapshot_from_wire(self._call("capture_snapshot"))
        assert snapshot is not None
        return snapshot

    def predict(self, n_future: int) -> CurvePrediction:
        value = self._call("predict", n_future=n_future)
        self.predictions_made += 1
        return CurvePrediction(
            observed=np.asarray(value["observed"], dtype=float),
            horizon=np.asarray(value["horizon"]),
            samples=np.asarray(value["samples"], dtype=float),
        )

    @property
    def curve_history(self) -> List[float]:
        return list(self._call("curve_history"))

    def release(self) -> None:
        self._job_id = None
        self._run_finished = False
        if self._dead.is_set():
            return  # nothing to tell a dead node
        try:
            self._call("release")
        except NodeFailure:
            # Released *because* the node died: local bookkeeping above
            # is all that matters.
            pass

    def forget(self) -> None:
        """Drop local job state without an RPC (node died mid-job)."""
        self._job_id = None
        self._run_finished = False

    def shutdown(self) -> None:
        """Ask the worker process to exit its loop (best effort)."""
        try:
            self._call("shutdown", timeout=5.0)
        except NodeFailure:
            pass

    def revoke(self, grace: float) -> None:
        """Arm a head-initiated spot kill ``grace`` experiment-seconds
        out (the worker dies silently; the head already knows)."""
        self._call("revoke", grace=grace)

    # ------------------------------------------------------------- internal

    def _call(self, method: str, timeout: Optional[float] = None, **args: Any) -> Any:
        deadline = timeout if timeout is not None else self._timeout
        trace: Optional[Dict[str, Any]] = None
        if self._clock is not None:
            context = current_trace()
            trace = {} if context is None else dict(context.to_dict())
            trace["clock"] = self._clock()
        with self._rpc_lock:
            if self._dead.is_set():
                raise NodeFailure(self.machine_id, "node is down")
            self._seq += 1
            seq = self._seq
            self._transport.send(
                self.machine_id,
                RPC,
                {"seq": seq, "method": method, "args": args},
                sender="head",
                trace=trace,
            )
            return self._await_reply(seq, method, deadline)

    def _await_reply(self, seq: int, method: str, deadline: float) -> Any:
        remaining = deadline
        poll = 0.1
        while remaining > 0:
            if self._dead.is_set():
                raise NodeFailure(self.machine_id, f"died during rpc {method!r}")
            wait = min(poll, remaining)
            message = self._replies.get(timeout=wait)
            remaining -= wait
            if message is None:
                continue
            payload = message.payload or {}
            if payload.get("seq") != seq:
                continue  # stale reply from an abandoned call
            if not payload.get("ok"):
                raise RuntimeError(
                    f"rpc {method!r} on {self.machine_id} failed: "
                    f"{payload.get('error')}"
                )
            return payload.get("value")
        raise NodeFailure(self.machine_id, f"rpc {method!r} timed out")
