"""Experiment definition and results (Experiment Runner, §4.2 ➀).

An :class:`ExperimentSpec` is what a client hands to HyperDrive: the
workload, the SAP, the hyperparameter generation technique, the number
of machines, and the user inputs ``Tmax`` and ``y_target`` (§3.1.1).
Running one produces an :class:`ExperimentResult` with everything the
paper's figures are computed from.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..framework.events import LifecycleEvent
from ..framework.job import Job
from ..framework.snapshot import Snapshot

__all__ = ["ExperimentSpec", "PoolSnapshot", "ExperimentResult"]


@dataclass
class ExperimentSpec:
    """Parameters of one hyperparameter-exploration experiment.

    Attributes:
        num_machines: slot count ``S``.
        num_configs: how many configurations the HG provides (100 in
            the paper's evaluation).
        tmax: maximum experiment duration in seconds (user input
            ``Tmax``); defaults to 48 simulated hours.
        target: raw-scale target performance; None = the workload
            domain's published target (0.77 accuracy / reward 200).
        seed: experiment seed (training-run noise, snapshot costs).
        prediction_seconds: modelled wall cost of one learning-curve
            prediction on a Node Agent.
        overlap_prediction: §5.2 — True runs prediction concurrently
            with training (charging a small contention slowdown to the
            overlapping epoch); False blocks the machine.
        prediction_contention: fractional slowdown of an epoch that
            overlaps a prediction.
        stop_on_target: end the experiment when a job first reports a
            metric at/above target (the paper's time-to-target metric).
        dynamic_target: §9's dynamic-target mode — instead of stopping,
            raise the target by ``target_increment`` each time it is
            reached and keep searching until ``tmax`` (or the work runs
            out).  Mutually exclusive with ``stop_on_target``.
        target_increment: raw-metric increment for dynamic targets.
        machine_mtbf: mean time between failures per machine in
            seconds (exponential); None disables fault injection.
            Cloud instances get preempted — the suspend/resume
            machinery (§5.1) is what limits the damage.
        machine_recovery_seconds: outage duration before a failed
            machine rejoins the pool.
        checkpoint_interval: take an automatic snapshot every this many
            epochs on running jobs, bounding work lost to failures.
            None disables periodic checkpointing (jobs restart from the
            last suspend snapshot, or from scratch).
        machine_speed_factors: per-machine speed multipliers (2.0 =
            epochs take half as long on that machine).  None = a
            homogeneous cluster, the paper's setting; heterogeneity
            stresses POP's roughly-constant-epoch assumption (§9).
    """

    num_machines: int = 4
    num_configs: int = 100
    tmax: float = 48 * 3600.0
    target: Optional[float] = None
    seed: int = 0
    prediction_seconds: float = 30.0
    overlap_prediction: bool = True
    prediction_contention: float = 0.05
    stop_on_target: bool = True
    dynamic_target: bool = False
    target_increment: float = 0.02
    machine_mtbf: Optional[float] = None
    machine_recovery_seconds: float = 300.0
    checkpoint_interval: Optional[int] = None
    machine_speed_factors: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        if self.num_configs < 1:
            raise ValueError("num_configs must be >= 1")
        if self.tmax <= 0:
            raise ValueError("tmax must be positive")
        if self.prediction_seconds < 0:
            raise ValueError("prediction_seconds cannot be negative")
        if not 0.0 <= self.prediction_contention < 1.0:
            raise ValueError("prediction_contention must be in [0, 1)")
        if self.dynamic_target and self.stop_on_target:
            raise ValueError(
                "dynamic_target requires stop_on_target=False (the "
                "experiment keeps going after each target is reached)"
            )
        if self.target_increment <= 0:
            raise ValueError("target_increment must be positive")
        if self.machine_mtbf is not None and self.machine_mtbf <= 0:
            raise ValueError("machine_mtbf must be positive when given")
        if self.machine_recovery_seconds < 0:
            raise ValueError("machine_recovery_seconds cannot be negative")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1 when given")
        if self.machine_speed_factors is not None:
            factors = tuple(self.machine_speed_factors)
            if len(factors) != self.num_machines:
                raise ValueError(
                    "machine_speed_factors must have one entry per machine"
                )
            if any(f <= 0 for f in factors):
                raise ValueError("machine speed factors must be positive")
            self.machine_speed_factors = factors


@dataclass(frozen=True)
class TargetAchievement:
    """One dynamic-target milestone (§9's dynamic-target mode)."""

    timestamp: float
    target: float
    job_id: str
    metric: float


@dataclass(frozen=True)
class PoolSnapshot:
    """One timeline sample of the promising/opportunistic split (Fig 4c)."""

    timestamp: float
    promising: int
    running: int
    active: int
    promising_slots: int


@dataclass
class ExperimentResult:
    """Everything measured during one experiment run."""

    policy_name: str
    spec: ExperimentSpec
    reached_target: bool = False
    time_to_target: Optional[float] = None
    finished_at: float = 0.0
    best_metric: Optional[float] = None
    best_job_id: Optional[str] = None
    jobs: List[Job] = field(default_factory=list)
    lifecycle: List[LifecycleEvent] = field(default_factory=list)
    snapshots: List[Snapshot] = field(default_factory=list)
    pool_timeline: List[PoolSnapshot] = field(default_factory=list)
    predictions_made: int = 0
    epochs_trained: int = 0
    target_achievements: List[TargetAchievement] = field(default_factory=list)
    machine_failures: int = 0
    epochs_lost_to_failures: int = 0
    #: Observability digest (metrics export, span summary, audit-event
    #: count, kills by reason) attached by the scheduler when a live
    #: recorder was used; None when instrumentation was off.
    observability: Optional[Dict[str, Any]] = None

    @property
    def job_training_times(self) -> Dict[str, float]:
        """Total training seconds each job consumed (Fig 6)."""
        return {job.job_id: job.total_training_time for job in self.jobs}

    @property
    def terminated_count(self) -> int:
        return sum(1 for job in self.jobs if job.state.value == "terminated")

    def summary(self) -> Dict[str, Any]:
        """A compact dict for bench output rows.

        When the run carried a live observability recorder, the
        summary additionally reports the kill breakdown and audit-
        trail size from the attached digest.
        """
        out = {
            "policy": self.policy_name,
            "reached_target": self.reached_target,
            "time_to_target_min": (
                None
                if self.time_to_target is None
                else round(self.time_to_target / 60.0, 2)
            ),
            "best_metric": self.best_metric,
            "epochs_trained": self.epochs_trained,
            "terminated": self.terminated_count,
            "predictions": self.predictions_made,
        }
        if self.observability is not None:
            out["kills_by_reason"] = self.observability.get(
                "kills_by_reason", {}
            )
            out["audit_events"] = self.observability.get("audit_events", 0)
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Full archival record of the experiment (JSON-serialisable).

        A one-way export for later analysis: job histories, lifecycle
        events, pool timeline, suspend log, and headline numbers.
        Snapshot *state* (model weights) is intentionally excluded.
        """
        return {
            "policy": self.policy_name,
            "spec": asdict(self.spec),
            "reached_target": self.reached_target,
            "time_to_target": self.time_to_target,
            "finished_at": self.finished_at,
            "best_metric": self.best_metric,
            "best_job_id": self.best_job_id,
            "epochs_trained": self.epochs_trained,
            "predictions_made": self.predictions_made,
            "machine_failures": self.machine_failures,
            "epochs_lost_to_failures": self.epochs_lost_to_failures,
            "jobs": [
                {
                    "job_id": job.job_id,
                    "config": job.config,
                    "state": job.state.value,
                    "confidence": job.confidence,
                    "metrics": job.metrics,
                    "durations": [stat.duration for stat in job.history],
                }
                for job in self.jobs
            ],
            "lifecycle": [
                {
                    "kind": event.kind.value,
                    "job_id": event.job_id,
                    "timestamp": event.timestamp,
                    "machine_id": event.machine_id,
                    "detail": event.detail,
                }
                for event in self.lifecycle
            ],
            # Explicit dicts, not asdict(): these records are flat, and
            # asdict recurses and deep-copies each of thousands of them.
            "pool_timeline": [
                {
                    "timestamp": s.timestamp,
                    "promising": s.promising,
                    "running": s.running,
                    "active": s.active,
                    "promising_slots": s.promising_slots,
                }
                for s in self.pool_timeline
            ],
            "suspends": [
                {
                    "job_id": s.job_id,
                    "epoch": s.epoch,
                    "timestamp": s.timestamp,
                    "latency": s.latency,
                    "size_bytes": s.size_bytes,
                }
                for s in self.snapshots
            ],
            "target_achievements": [
                {
                    "timestamp": m.timestamp,
                    "target": m.target,
                    "job_id": m.job_id,
                    "metric": m.metric,
                }
                for m in self.target_achievements
            ],
            "observability": self.observability,
        }

    def save_json(
        self, path: Union[str, Path], indent: Optional[int] = None
    ) -> None:
        """Write :meth:`to_dict` to ``path`` as JSON (newline-terminated).

        Args:
            path: destination file.
            indent: pretty-print indentation; None writes one line.
        """
        text = json.dumps(self.to_dict(), indent=indent)
        Path(path).write_text(text + "\n")
