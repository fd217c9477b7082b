"""Node Agent: per-machine execution daemon (§4.2 ➅).

The agent owns the training run assigned to its machine, reports every
epoch's application statistics, captures suspend snapshots, and — per
the distributed-curve-prediction optimisation of §5.2 — keeps the
learning-curve history of its job locally and runs the curve predictor
itself rather than at the central scheduler.  When a job is resumed on
a different machine, its curve history travels with the snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..curves.predictor import CurvePrediction, CurvePredictor
from ..observability import NULL_RECORDER
from ..workloads.base import EpochResult, TrainingRun, Workload
from .snapshot import Snapshot, SnapshotCostModel

__all__ = ["NodeAgent"]


class NodeAgent:
    """Executes one job at a time on one machine.

    Args:
        machine_id: the machine this agent daemonises.
        workload: factory for training runs.
        snapshot_cost_model: latency/size model for suspends.
        predictor: learning-curve predictor run locally on this agent
            (may be shared across agents; predictors are stateless).
        seed: seed for snapshot cost sampling.
        recorder: observability facade; the shared null recorder when
            instrumentation is off.
    """

    def __init__(
        self,
        machine_id: str,
        workload: Workload,
        snapshot_cost_model: SnapshotCostModel,
        predictor: Optional[CurvePredictor] = None,
        seed: int = 0,
        recorder=None,
    ) -> None:
        self.machine_id = machine_id
        self._workload = workload
        self._cost_model = snapshot_cost_model
        self._predictor = predictor
        self._rng = np.random.default_rng(seed)
        self._run: Optional[TrainingRun] = None
        self._job_id: Optional[str] = None
        # Local curve history (normalised), per §5.2's distributed
        # prediction: shipped in/out with snapshots.
        self._curve: List[float] = []
        self.predictions_made = 0
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        metrics = self._recorder.metrics
        self._m_predictions = metrics.counter(
            "agent_predictions_total",
            help="Curve predictions run on Node Agents (§5.2)",
        )
        # Bound once: agents sharing a registry append to the same two
        # buckets in capture order.
        self._snapshot_latencies = metrics.histogram(
            "snapshot_latency_seconds",
            help="Modelled suspend/checkpoint capture latency",
        ).bucket()
        self._snapshot_sizes = metrics.histogram(
            "snapshot_size_bytes", help="Modelled snapshot sizes"
        ).bucket()

    # ----------------------------------------------------------- lifecycle

    @property
    def busy(self) -> bool:
        return self._job_id is not None

    @property
    def job_id(self) -> Optional[str]:
        return self._job_id

    @property
    def curve_history(self) -> List[float]:
        """Normalised metric history of the hosted job."""
        return list(self._curve)

    def assign(
        self,
        job_id: str,
        config: Dict[str, Any],
        seed: int = 0,
        snapshot: Optional[Snapshot] = None,
    ) -> None:
        """Start a fresh run, or resume from ``snapshot``.

        On resume the run object is rebuilt from the workload and the
        snapshot state restored into it — the same state-transfer path
        a cross-machine resume takes in the real system.
        """
        if self.busy:
            raise RuntimeError(
                f"{self.machine_id} already hosts job {self._job_id!r}"
            )
        run = self._workload.create_run(config, seed=seed)
        if snapshot is not None:
            if snapshot.job_id != job_id:
                raise ValueError(
                    f"snapshot belongs to {snapshot.job_id!r}, not {job_id!r}"
                )
            run.restore_state(snapshot.state)
            self._curve = list(snapshot.state.get("curve_history", []))
        else:
            self._curve = []
        self._run = run
        self._job_id = job_id

    def train_epoch(self) -> EpochResult:
        """Train the hosted job for one epoch and record its stat."""
        if self._run is None:
            raise RuntimeError(f"{self.machine_id} has no job assigned")
        result = self._run.step()
        self._curve.append(self._workload.domain.normalize(result.metric))
        return result

    def capture_snapshot(self) -> Snapshot:
        """Capture resumable state plus modelled latency/size.

        The curve history rides along inside the state so the next
        hosting agent can continue local prediction (§5.2).
        """
        if self._run is None or self._job_id is None:
            raise RuntimeError(f"{self.machine_id} has no job to snapshot")
        with self._recorder.tracer.span(
            "agent.capture_snapshot",
            machine_id=self.machine_id,
            job_id=self._job_id,
        ):
            state = self._run.snapshot_state()
            state["curve_history"] = list(self._curve)
            snapshot = Snapshot(
                job_id=self._job_id,
                epoch=self._run.epochs_completed,
                state=state,
                size_bytes=self._cost_model.sample_size(self._rng),
                latency=self._cost_model.sample_latency(self._rng),
            )
        self._snapshot_latencies.append(float(snapshot.latency))
        self._snapshot_sizes.append(float(snapshot.size_bytes))
        return snapshot

    def release(self) -> None:
        """Drop the hosted run (after suspend/terminate/complete)."""
        self._run = None
        self._job_id = None
        self._curve = []

    @property
    def run(self) -> Optional[TrainingRun]:
        return self._run

    # ---------------------------------------------------------- prediction

    def predict(self, n_future: int) -> CurvePrediction:
        """Run the learning-curve predictor on the local history."""
        if self._predictor is None:
            raise RuntimeError("no predictor configured on this agent")
        if len(self._curve) < self._predictor.min_observations():
            raise ValueError(
                f"history too short ({len(self._curve)}) for prediction"
            )
        self.predictions_made += 1
        self._m_predictions.inc()
        # Hand the predictor an immutable snapshot of the history: the
        # live runtime predicts outside the scheduler lock while
        # training continues — the list must not mutate under it.
        observed = tuple(self._curve)
        with self._recorder.tracer.span(
            "agent.predict",
            machine_id=self.machine_id,
            job_id=self._job_id,
            n_observed=len(observed),
            n_future=n_future,
        ):
            return self._predictor.predict(observed, n_future)
