"""Per-figure data extraction for the paper's evaluation.

Every function returns plain data (arrays / dicts) that the benches
print as the rows/series of the corresponding paper figure.  Keeping
the extraction here means tests can validate the figure *shapes*
independently of the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.allocation import slot_curves
from ..core.pop import POPPolicy
from ..curves.predictor import CurvePredictor
from ..framework.experiment import ExperimentResult
from ..metrics.stats import BoxStats, box_stats, ecdf
from ..workloads.base import Workload
from .experiments import standard_configs

__all__ = [
    "config_curves",
    "final_metric_cdf",
    "find_overtake_pair",
    "prediction_with_confidence",
    "InstrumentedPOPPolicy",
    "job_duration_cdf",
    "time_to_target_stats",
    "promising_ratio_timeline",
    "suspend_overhead_stats",
    "SuspendStats",
]


def config_curves(
    workload: Workload,
    n_configs: int,
    n_epochs: Optional[int] = None,
    seed: int = 0,
) -> List[List[float]]:
    """Full learning curves of the first ``n_configs`` standard
    configurations (Fig 1 / Fig 8 data)."""
    configs = standard_configs(workload, num_configs=max(n_configs, 1))[:n_configs]
    if n_epochs is None:
        n_epochs = workload.domain.max_epochs
    curves = []
    for config in configs:
        run = workload.create_run(config, seed=seed)
        curves.append([run.step().metric for _ in range(n_epochs)])
    return curves


def final_metric_cdf(
    workload: Workload, n_configs: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of final metrics over random configurations
    (Fig 2a data)."""
    curves = config_curves(workload, n_configs, seed=seed)
    finals = [curve[-1] for curve in curves]
    return ecdf(finals)


def find_overtake_pair(
    workload: Workload, pool_size: int = 100, seed: int = 0
) -> Optional[Tuple[List[float], List[float]]]:
    """Find two configurations A, B where A leads through the early
    epochs but B has the higher final value (Fig 2b).

    Returns (curve_A, curve_B), or None if the pool has no such pair.
    """
    curves = config_curves(workload, pool_size, seed=seed)
    half = workload.domain.max_epochs // 3
    best: Optional[Tuple[float, List[float], List[float]]] = None
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            first, second = (a, b) if a[half] > b[half] else (b, a)
            if second[-1] > first[-1] + 0.01 and first[half] > second[half] + 0.01:
                margin = (first[half] - second[half]) + (second[-1] - first[-1])
                if best is None or margin > best[0]:
                    best = (margin, first, second)
    if best is None:
        return None
    return best[1], best[2]


def prediction_with_confidence(
    workload: Workload,
    config: Dict[str, Any],
    predictor: CurvePredictor,
    observe_epochs: int,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Observed prefix + predicted mean/std over the remaining horizon
    (Fig 2c / Fig 3 data), in raw metric units."""
    run = workload.create_run(config, seed=seed)
    full = [run.step().metric for _ in range(workload.domain.max_epochs)]
    prefix_norm = [workload.domain.normalize(v) for v in full[:observe_epochs]]
    n_future = workload.domain.max_epochs - observe_epochs
    prediction = predictor.predict(prefix_norm, n_future)

    def denorm(arr: np.ndarray) -> np.ndarray:
        domain = workload.domain
        if not domain.normalizes:
            return arr
        return arr * (domain.r_max - domain.r_min) + domain.r_min

    return {
        "observed": np.asarray(full[:observe_epochs]),
        "true_future": np.asarray(full[observe_epochs:]),
        "horizon": prediction.horizon,
        "mean": denorm(prediction.mean),
        "std": prediction.std
        * ((workload.domain.r_max - workload.domain.r_min)
           if workload.domain.normalizes else 1.0),
    }


class InstrumentedPOPPolicy(POPPolicy):
    """POP that records its allocation state at every reclassification.

    Each record is ``(time, confidences, threshold, promising_slots)``
    — the raw material of Fig 4a/4b (desired vs deserved slot curves at
    a moment in time) and of threshold-evolution analyses.
    """

    name = "pop"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.allocation_log: List[Tuple[float, List[float], float, int]] = []

    def _reclassify_all(self) -> None:
        super()._reclassify_all()
        confidences = [
            job.confidence
            for job in self.ctx.job_manager.active_jobs()
            if job.confidence is not None
        ]
        self.allocation_log.append(
            (self.ctx.now(), confidences, self.threshold, self.promising_slots)
        )

    def slot_curves_at(
        self, timestamp: float, grid_points: int = 101
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Desired/deserved slot curves from the last reclassification
        at or before ``timestamp`` (Fig 4a/4b)."""
        candidates = [rec for rec in self.allocation_log if rec[0] <= timestamp]
        if not candidates:
            return None
        _, confidences, _, _ = candidates[-1]
        return slot_curves(
            confidences,
            total_slots=self.ctx.resource_manager.num_machines,
            grid_points=grid_points,
        )


def job_duration_cdf(result: ExperimentResult) -> Tuple[np.ndarray, np.ndarray]:
    """CDF of per-job total training durations (Fig 6 data)."""
    durations = [job.total_training_time for job in result.jobs if job.history]
    return ecdf(durations)


def time_to_target_stats(results: Sequence[ExperimentResult]) -> BoxStats:
    """Box-plot stats of time-to-target across repeats (Fig 7 / Fig 9).

    Runs that never reached the target count as their full duration —
    a conservative, explicit convention (the paper's runs all reached).
    """
    times = [
        r.time_to_target if r.time_to_target is not None else r.finished_at
        for r in results
    ]
    return box_stats(times)


def promising_ratio_timeline(
    result: ExperimentResult, bucket_seconds: float = 300.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Ratio of promising to active jobs over time (Fig 4c data).

    Returns (bucket_end_times, mean_ratio_per_bucket).
    """
    timeline = list(result.pool_timeline)
    if not timeline:
        return np.array([]), np.array([])
    end = max(snapshot.timestamp for snapshot in timeline)
    edges = np.arange(bucket_seconds, end + bucket_seconds, bucket_seconds)
    times, ratios = [], []
    for edge in edges:
        bucket = [
            s for s in timeline if edge - bucket_seconds <= s.timestamp < edge
        ]
        if not bucket:
            continue
        values = [s.promising / s.active for s in bucket if s.active > 0]
        if values:
            times.append(edge)
            ratios.append(float(np.mean(values)))
    return np.asarray(times), np.asarray(ratios)


@dataclass(frozen=True)
class SuspendStats:
    """Suspend-overhead summary (§6.2.3 / Fig 10)."""

    count: int
    latency_mean: float
    latency_std: float
    latency_p95: float
    latency_max: float
    size_mean: float
    size_std: float
    size_p95: float
    size_max: float


def suspend_overhead_stats(results: Sequence[ExperimentResult]) -> SuspendStats:
    """Aggregate suspend latency/size over experiments' snapshot logs."""
    latencies = [s.latency for r in results for s in r.snapshots]
    sizes = [s.size_bytes for r in results for s in r.snapshots]
    if not latencies:
        raise ValueError("no suspends recorded in the given results")
    lat = np.asarray(latencies)
    size = np.asarray(sizes)
    return SuspendStats(
        count=lat.size,
        latency_mean=float(lat.mean()),
        latency_std=float(lat.std()),
        latency_p95=float(np.percentile(lat, 95)),
        latency_max=float(lat.max()),
        size_mean=float(size.mean()),
        size_std=float(size.std()),
        size_p95=float(np.percentile(size, 95)),
        size_max=float(size.max()),
    )
