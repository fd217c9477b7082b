"""Ablation (§2.2c): dynamic threshold vs static promising thresholds.

The paper argues a static threshold is insufficient: too high and
promising configurations are identified late; too low and the pool
floods.  This bench runs POP with the dynamic desired/deserved crossing
against static thresholds at 0.25 and 0.90.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import run_standard_experiment
from repro.core.pop import POPPolicy
from .conftest import emit, minutes, once


class StaticThresholdPOP(POPPolicy):
    """POP with a fixed classification threshold instead of §3.2's
    dynamic crossing."""

    def __init__(self, threshold: float, **kwargs):
        super().__init__(**kwargs)
        self._static_threshold = threshold
        self.name = f"pop-static-{threshold:.2f}"

    def _reclassify_all(self) -> None:
        ctx = self.ctx
        self.threshold = self._static_threshold
        active = ctx.job_manager.active_jobs()
        promising = [
            job
            for job in active
            if job.confidence is not None
            and job.confidence >= self._static_threshold
        ]
        self.promising_slots = min(
            len(promising), ctx.resource_manager.num_machines
        )
        for job in active:
            is_promising = (
                job.confidence is not None
                and job.confidence >= self._static_threshold
            )
            ctx.job_manager.mark_promising(job.job_id, is_promising)
            if is_promising and job.confidence is not None:
                ctx.job_manager.label_job(job.job_id, job.confidence)
            elif job.priority is not None and not is_promising:
                ctx.job_manager.label_job(job.job_id, None)


def test_ablation_static_threshold(benchmark, store, results_dir):
    workload = store.sl_workload
    seeds = (0, 1, 2)

    def compute():
        variants = {
            "dynamic": lambda: POPPolicy(),
            "static-0.25": lambda: StaticThresholdPOP(0.25),
            "static-0.90": lambda: StaticThresholdPOP(0.90),
        }
        table = {}
        for name, factory in variants.items():
            times = []
            for seed in seeds:
                result = run_standard_experiment(workload, factory(), seed=seed)
                times.append(
                    result.time_to_target
                    if result.reached_target
                    else result.finished_at
                )
            table[name] = times
        return table

    table = once(benchmark, compute)
    lines = [
        "=== Ablation: dynamic vs static promising threshold ===",
        "variant      | mean t2t (min) over seeds " + str(list(seeds)),
    ]
    means = {}
    for name, times in table.items():
        means[name] = float(np.mean(times))
        lines.append(f"{name:12s} | {minutes(means[name]):8.0f}"
                     f"   ({[round(minutes(t)) for t in times]})")
    lines.append(
        "(§2.2c: the dynamic crossing should be at least competitive "
        "with the best static choice, without needing tuning)"
    )
    emit(results_dir, "ablation_static_threshold", lines)

    # The dynamic threshold must beat the worse static extreme and be
    # within 15% of the better one.
    worst_static = max(means["static-0.25"], means["static-0.90"])
    best_static = min(means["static-0.25"], means["static-0.90"])
    assert means["dynamic"] < worst_static
    assert means["dynamic"] <= 1.15 * best_static
