"""``repro diagnose``: post-hoc analysis of observability journals.

The JSONL journals written by ``--emit-events`` (and by the service
store, once its ``audit`` wrapper is removed) interleave two event
shapes:

* **spans** — ``{"kind": "span", "name", "start", "end",
  "wall_seconds", "trace_id", "span_id", "parent_id", "attributes"}``,
  on the experiment clock.  Spans shipped from cluster workers carry a
  ``node`` key added when the head re-exports them.
* **audit records** — ``{"kind": "<event>", "timestamp", "job_id",
  "machine_id", "data"}`` (SAP decisions, lifecycle, membership
  transitions, migrations, ...).

``diagnose`` merges any number of journals (each treated as one
experiment, named after its file) into:

* a **phase breakdown** per experiment — experiment-clock seconds
  spent in *predict* (``*.predict`` spans), *train*
  (``*train_epoch`` spans, falling back to ``cluster.epoch`` when a
  journal predates worker shipping), *migrate* (exactly the
  ``resume_latency`` charged by each ``cluster_migration`` audit
  record, so the phase reconciles with the audit trail), and *idle*
  (machine-seconds not covered by the above, derived from the
  journal's clock extent and its set of machines);
* a **timeline** — the first/last clock stamp, epoch count, and the
  notable audit events (migrations, node transitions, retry-budget
  exhaustions);
* a **critical path** — per shared ``trace_id``, the longest
  root-to-leaf chain by wall seconds; the report shows the slowest
  trace's chain (typically head epoch → worker train → settlement)
  and aggregate trace stats.

Nested spans of the same phase (``agent.predict`` wrapping
``predictor.predict``) are counted once: a span whose parent is in the
same phase is skipped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .journal import Journal

__all__ = [
    "load_journals",
    "classify_phase",
    "phase_breakdown",
    "critical_path",
    "diagnose",
    "render_markdown",
]

#: Audit kinds surfaced verbatim on the timeline.
NOTABLE_AUDIT = (
    "cluster_migration",
    "cluster_node_down",
    "cluster_node_up",
    "cluster_retry_budget_exhausted",
    "resumed",
)

PHASES = ("predict", "train", "migrate", "idle")


def load_journals(
    paths: Sequence[Union[str, Path]]
) -> Dict[str, List[Dict[str, Any]]]:
    """Events per experiment; one journal file = one experiment.

    Journals from crashed runs can end mid-line (that line is left out)
    or carry a line mangled before the exporter grew its write lock; a
    post-mortem tool must not choke on them, so undecodable lines are
    skipped.
    A run store's journal wraps each audit record and span as
    ``{"kind": "audit", "record": {...}}``; those are unwrapped.
    """
    journals: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"no such journal: {path}")
        events: List[Dict[str, Any]] = []
        for line in Journal(path).lines():
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                if event.get("kind") == "audit" and isinstance(
                    event.get("record"), dict
                ):
                    event = event["record"]
                events.append(event)
        journals[path.stem] = events
    return journals


def classify_phase(span: Mapping[str, Any]) -> Optional[str]:
    """Phase of one span, or None when it is outside the breakdown."""
    name = span.get("name", "")
    if "predict" in name:
        return "predict"
    if "train_epoch" in name:
        return "train"
    return None


def _span_events(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    return [dict(e) for e in events if e.get("kind") == "span"]


def _audit_events(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    return [
        dict(e)
        for e in events
        if e.get("kind") and e.get("kind") != "span"
    ]


def _duration(span: Mapping[str, Any]) -> float:
    start = span.get("start")
    end = span.get("end")
    if start is None or end is None:
        return 0.0
    return max(0.0, float(end) - float(start))


def phase_breakdown(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Experiment-clock seconds per phase for one journal's events."""
    spans = _span_events(events)
    audit = _audit_events(events)
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}

    # When worker-side train spans were shipped, use them; otherwise
    # fall back to the head's per-epoch envelope span.
    has_train = any("train_epoch" in (s.get("name") or "") for s in spans)

    seconds = {phase: 0.0 for phase in PHASES}
    wall = {phase: 0.0 for phase in PHASES}
    counts = {phase: 0 for phase in PHASES}
    for span in spans:
        phase = classify_phase(span)
        if phase is None and not has_train and span.get("name") == "cluster.epoch":
            phase = "train"
        if phase is None:
            continue
        parent = by_id.get(span.get("parent_id"))
        if parent is not None and classify_phase(parent) == phase:
            continue  # nested same-phase span (agent.predict -> predictor.predict)
        seconds[phase] += _duration(span)
        wall[phase] += float(span.get("wall_seconds") or 0.0)
        counts[phase] += 1

    # Migration cost is charged through the audit trail (the snapshot's
    # suspend latency billed to the landing machine), not a span.
    for record in audit:
        if record.get("kind") == "cluster_migration":
            seconds["migrate"] += float(
                (record.get("data") or {}).get("resume_latency", 0.0)
            )
            counts["migrate"] += 1

    stamps = [float(r["timestamp"]) for r in audit if "timestamp" in r]
    stamps += [float(s["start"]) for s in spans if s.get("start") is not None]
    stamps += [float(s["end"]) for s in spans if s.get("end") is not None]
    extent = (max(stamps) - min(stamps)) if stamps else 0.0
    machines = {
        s.get("attributes", {}).get("machine_id")
        for s in spans
        if s.get("attributes", {}).get("machine_id")
    }
    machines |= {
        r.get("machine_id") for r in audit if r.get("machine_id")
    }
    capacity = extent * max(1, len(machines))
    busy = seconds["predict"] + seconds["train"] + seconds["migrate"]
    seconds["idle"] = max(0.0, capacity - busy)
    return {
        "seconds": seconds,
        "wall_seconds": wall,
        "counts": counts,
        "extent_seconds": extent,
        "machines": sorted(machines),
    }


def critical_path(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Longest root-to-leaf wall-seconds chain per trace; slowest first."""
    spans = _span_events(events)
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id:
            traces.setdefault(trace_id, []).append(span)

    def longest(trace: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        ids = {s["span_id"] for s in trace if s.get("span_id")}
        children: Dict[Optional[str], List[Dict[str, Any]]] = {}
        roots = []
        for span in trace:
            parent = span.get("parent_id")
            if parent in ids:
                children.setdefault(parent, []).append(span)
            else:
                roots.append(span)

        def walk(span: Dict[str, Any]) -> List[Dict[str, Any]]:
            best: List[Dict[str, Any]] = []
            for child in children.get(span.get("span_id"), []):
                path = walk(child)
                if _path_wall(path) > _path_wall(best):
                    best = path
            return [span] + best

        def _path_wall(path: List[Dict[str, Any]]) -> float:
            return sum(float(s.get("wall_seconds") or 0.0) for s in path)

        best: List[Dict[str, Any]] = []
        for root in roots:
            path = walk(root)
            if _path_wall(path) > _path_wall(best):
                best = path
        return best

    summaries = []
    for trace_id, trace in traces.items():
        path = longest(trace)
        summaries.append(
            {
                "trace_id": trace_id,
                "spans": len(trace),
                "wall_seconds": sum(
                    float(s.get("wall_seconds") or 0.0) for s in path
                ),
                "path": [
                    {
                        "name": s.get("name"),
                        "node": s.get("node", "head"),
                        "wall_seconds": float(s.get("wall_seconds") or 0.0),
                    }
                    for s in path
                ],
            }
        )
    summaries.sort(key=lambda s: s["wall_seconds"], reverse=True)
    multi_span = [s for s in summaries if s["spans"] > 1]
    return {
        "traces": len(summaries),
        "multi_span_traces": len(multi_span),
        "slowest": summaries[0] if summaries else None,
    }


def diagnose(
    journals: Mapping[str, Sequence[Mapping[str, Any]]]
) -> Dict[str, Any]:
    """The full report dict over ``{experiment: events}``."""
    experiments = {}
    for name in sorted(journals):
        events = journals[name]
        audit = _audit_events(events)
        notable = [
            record
            for record in audit
            if record.get("kind") in NOTABLE_AUDIT
        ]
        experiments[name] = {
            "events": len(events),
            "spans": len(_span_events(events)),
            "audit": len(audit),
            "phases": phase_breakdown(events),
            "critical_path": critical_path(events),
            "notable": notable,
        }
    return {"experiments": experiments}


def render_markdown(report: Mapping[str, Any]) -> str:
    """The report dict as a markdown document."""
    lines: List[str] = ["# repro diagnose", ""]
    for name, exp in report["experiments"].items():
        phases = exp["phases"]
        lines.append(f"## {name}")
        lines.append("")
        lines.append(
            f"{exp['events']} events ({exp['spans']} spans, "
            f"{exp['audit']} audit records), clock extent "
            f"{phases['extent_seconds']:.1f}s, "
            f"{len(phases['machines'])} machine(s)"
        )
        lines.append("")
        lines.append("| phase | seconds | share | events | wall s |")
        lines.append("|---|---|---|---|---|")
        total = sum(phases["seconds"].values()) or 1.0
        for phase in PHASES:
            seconds = phases["seconds"][phase]
            lines.append(
                f"| {phase} | {seconds:.2f} | {seconds / total * 100:.1f}% "
                f"| {phases['counts'][phase]} "
                f"| {phases['wall_seconds'][phase]:.3f} |"
            )
        lines.append("")
        path = exp["critical_path"]
        lines.append(
            f"Traces: {path['traces']} "
            f"({path['multi_span_traces']} spanning multiple spans)."
        )
        slowest = path["slowest"]
        if slowest is not None:
            chain = " -> ".join(
                f"{step['name']}@{step['node']}"
                f" ({step['wall_seconds'] * 1e3:.1f}ms)"
                for step in slowest["path"]
            )
            lines.append(
                f"Slowest trace `{slowest['trace_id']}` "
                f"({slowest['wall_seconds'] * 1e3:.1f}ms wall): {chain}"
            )
        lines.append("")
        if exp["notable"]:
            lines.append("Notable events:")
            lines.append("")
            for record in exp["notable"]:
                data = record.get("data") or {}
                detail = ", ".join(
                    f"{key}={value}" for key, value in sorted(data.items())
                )
                subject = record.get("job_id") or record.get("machine_id") or ""
                lines.append(
                    f"- t={record.get('timestamp', 0.0):.1f}s "
                    f"**{record['kind']}** {subject} {detail}".rstrip()
                )
            lines.append("")
    return "\n".join(lines)
