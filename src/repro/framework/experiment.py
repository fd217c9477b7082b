"""Experiment definition and results (Experiment Runner, §4.2 ➀).

An :class:`ExperimentSpec` is what a client hands to HyperDrive: the
workload, the SAP, the hyperparameter generation technique, the number
of machines, and the user inputs ``Tmax`` and ``y_target`` (§3.1.1).
Running one produces an :class:`ExperimentResult` with everything the
paper's figures are computed from.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..framework.events import LifecycleEvent
from ..framework.job import Job
from ..framework.snapshot import Snapshot

__all__ = ["ExperimentSpec", "PoolSnapshot", "PoolTimeline", "ExperimentResult"]


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


#: ``(promising, running, active, promising_slots)`` of one sample.
PoolCounts = Tuple[int, int, int, int]


class PoolTimeline(Sequence):
    """The per-epoch pool samples of one run, stored as change points.

    One timestamp per sample, plus runs of equal counts: a new run opens
    only when a sample's counts differ from the previous one's.  Reads
    as the sequence of :class:`PoolSnapshot` it encodes (``len``,
    indexing, slicing to a list, iteration), so Fig 4c averages over
    the same samples.
    """

    __slots__ = ("_timestamps", "_starts", "_counts")

    def __init__(self) -> None:
        self._timestamps: List[float] = []
        #: Sample index at which each run begins, ascending from 0.
        self._starts: List[int] = []
        self._counts: List[PoolCounts] = []

    def append(self, timestamp: float, counts: PoolCounts) -> bool:
        """Add one sample; True when its counts open a new run."""
        opened = not self._counts or counts != self._counts[-1]
        if opened:
            self._starts.append(len(self._timestamps))
            self._counts.append(counts)
        self._timestamps.append(timestamp)
        return opened

    def __len__(self) -> int:
        return len(self._timestamps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        size = len(self._timestamps)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("pool timeline index out of range")
        run = bisect_right(self._starts, index) - 1
        return PoolSnapshot(self._timestamps[index], *self._counts[run])

    def __iter__(self) -> Iterator[PoolSnapshot]:
        for start, end, counts in self.runs():
            for timestamp in self._timestamps[start:end]:
                yield PoolSnapshot(timestamp, *counts)

    def runs(self) -> Iterator[Tuple[int, int, PoolCounts]]:
        """``(first sample, one past the last sample, counts)`` per run."""
        ends = self._starts[1:] + [len(self._timestamps)]
        return zip(self._starts, ends, self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoolTimeline):
            return NotImplemented
        return (
            self._timestamps == other._timestamps
            and self._starts == other._starts
            and self._counts == other._counts
        )

    def __repr__(self) -> str:
        return (
            f"PoolTimeline({len(self._timestamps)} samples, "
            f"{len(self._counts)} runs)"
        )

    def to_dict(self) -> Dict[str, List]:
        """``{"timestamps": [...], "runs": [[start, promising, running,
        active, promising_slots], ...]}``."""
        return {
            "timestamps": list(self._timestamps),
            "runs": [
                [start, *counts]
                for start, counts in zip(self._starts, self._counts)
            ],
        }

    @classmethod
    def from_dict(cls, data: Union[Dict[str, List], List[Dict[str, Any]]]
                  ) -> "PoolTimeline":
        """Decode :meth:`to_dict`'s form, or the list of per-sample dicts
        that results of repro 1.5–1.8 hold."""
        timeline = cls()
        if isinstance(data, dict):
            timeline._timestamps = list(data["timestamps"])
            for start, *counts in data["runs"]:
                timeline._starts.append(start)
                timeline._counts.append(tuple(counts))
            return timeline
        for sample in data:
            timeline.append(
                sample["timestamp"],
                (
                    sample["promising"],
                    sample["running"],
                    sample["active"],
                    sample["promising_slots"],
                ),
            )
        return timeline

    @staticmethod
    def normalize(result: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """``result`` (a stored :meth:`ExperimentResult.to_dict`) with its
        ``pool_timeline`` in the current form, whatever form it was
        stored in."""
        if result and "pool_timeline" in result:
            result["pool_timeline"] = PoolTimeline.from_dict(
                result["pool_timeline"]
            ).to_dict()
        return result


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
    pool_timeline: PoolTimeline = field(default_factory=PoolTimeline)
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
            "pool_timeline": self.pool_timeline.to_dict(),
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
