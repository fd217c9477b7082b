"""Markdown experiment reports.

Turns an :class:`~repro.framework.experiment.ExperimentResult` (or its
archived JSON form) into a human-readable report: headline numbers, the
best configuration, per-job outcome counts, learning-curve sparklines,
suspend-overhead summary, and the promising-pool timeline.  Exposed on
the CLI as ``python -m repro report --result result.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from ..framework.experiment import ExperimentResult, PoolTimeline
from .render import sparkline

__all__ = ["render_report", "report_from_json"]


def _headline(record: Dict[str, Any]) -> List[str]:
    lines = [
        f"# Experiment report — policy `{record['policy']}`",
        "",
        f"* machines: {record['spec']['num_machines']}, "
        f"configurations: {len(record['jobs'])}",
        f"* reached target: **{record['reached_target']}**"
        + (
            f" after {record['time_to_target'] / 60:.1f} min"
            if record["time_to_target"] is not None
            else ""
        ),
        f"* best metric: {record['best_metric']:.4f} "
        f"(job `{record['best_job_id']}`)"
        if record["best_metric"] is not None
        else "* best metric: n/a",
        f"* epochs trained: {record['epochs_trained']}, "
        f"predictions: {record['predictions_made']}, "
        f"suspends: {len(record['suspends'])}",
    ]
    if record.get("machine_failures"):
        lines.append(
            f"* machine failures: {record['machine_failures']} "
            f"({record['epochs_lost_to_failures']} epochs lost)"
        )
    return lines


def _outcomes(record: Dict[str, Any]) -> List[str]:
    counts: Dict[str, int] = {}
    for job in record["jobs"]:
        counts[job["state"]] = counts.get(job["state"], 0) + 1
    lines = ["", "## Job outcomes", ""]
    for state, count in sorted(counts.items()):
        lines.append(f"* {state}: {count}")
    return lines


def _top_jobs(record: Dict[str, Any], top: int = 5) -> List[str]:
    scored = [
        job for job in record["jobs"] if job["metrics"]
    ]
    scored.sort(key=lambda job: max(job["metrics"]), reverse=True)
    lines = ["", f"## Top {min(top, len(scored))} configurations", ""]
    for job in scored[:top]:
        best = max(job["metrics"])
        curve = sparkline(job["metrics"], width=40)
        lines.append(
            f"* `{job['job_id']}` best={best:.4f} "
            f"epochs={len(job['metrics'])} `{curve}`"
        )
    return lines


def _suspend_summary(record: Dict[str, Any]) -> List[str]:
    suspends = record["suspends"]
    if not suspends:
        return []
    latencies = np.array([s["latency"] for s in suspends])
    sizes = np.array([s["size_bytes"] for s in suspends])
    return [
        "",
        "## Suspend/resume overhead",
        "",
        f"* {len(suspends)} suspends; latency mean "
        f"{latencies.mean()*1000:.0f} ms (max {latencies.max():.2f} s)",
        f"* snapshot size mean {sizes.mean()/1e3:.0f} KB "
        f"(max {sizes.max()/1e6:.2f} MB)",
    ]


def _pool_timeline(record: Dict[str, Any]) -> List[str]:
    timeline = PoolTimeline.from_dict(record["pool_timeline"])
    ratios: List[float] = []
    for start, end, (promising, _, active, _) in timeline.runs():
        if active > 0:
            ratios += [promising / active] * (end - start)
    if not ratios:
        return []
    return [
        "",
        "## Promising/active ratio over time",
        "",
        f"`{sparkline(ratios, width=60)}`",
        f"(starts {ratios[0]:.2f}, ends {ratios[-1]:.2f})",
    ]


def render_report(
    result: Union[ExperimentResult, Dict[str, Any]]
) -> str:
    """Render a result (live object or archived dict) as markdown."""
    record = result.to_dict() if isinstance(result, ExperimentResult) else result
    lines: List[str] = []
    lines += _headline(record)
    lines += _outcomes(record)
    lines += _top_jobs(record)
    lines += _suspend_summary(record)
    lines += _pool_timeline(record)
    return "\n".join(lines) + "\n"


def report_from_json(path: Union[str, Path]) -> str:
    """Render a report from an archived result JSON file."""
    return render_report(json.loads(Path(path).read_text()))
