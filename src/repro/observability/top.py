"""``repro top``: a live terminal dashboard over ``GET /telemetry``.

The daemon's :class:`~repro.observability.aggregator.TelemetryAggregator`
exposes one JSON document — per-node latest metric snapshots plus meta
(heartbeat membership, run status) and a short ring-buffer history.
This module turns that document into a fixed-width text dashboard:

* a **nodes** table — every node the aggregator has heard from (the
  cluster head, each ``machine-NN`` worker, each daemon-executed
  experiment), with batch seq, staleness, and shipped span/audit
  counts;
* **cluster health** — ``cluster_nodes_up``, per-machine heartbeat
  state and mean RTT (from the head's
  ``cluster_heartbeat_rtt_seconds`` summary and the heartbeat snapshot
  shipped in the head's meta);
* **experiments** — per-experiment best metric
  (``experiment_best_metric``), lowest ERT (``pop_best_ert_seconds``)
  and epochs trained;
* **tenants** — the resource broker's per-tenant view from the daemon's
  self-ingested ``service`` node: queued/running experiments, slots
  held, budget spent/remaining, tightest deadline countdown (the
  ``broker_tenant_*`` gauges), headed by pool occupancy;
* **fleet/cost** — elastic-fleet economics from the ``cost_*`` gauges:
  workers up by machine class (on-demand vs spot) and per-experiment
  dollars spent against ``budget_slot_hours``;
* **training** — one line per node training a learned policy
  (``repro train-policy``): episodes completed, best and latest
  episode reward, and policy entropy from the ``learn_*`` gauges.

Everything here is a pure function of the telemetry dict so tests (and
``repro diagnose``-style tooling) can render without a daemon; the CLI
loop in :mod:`repro.cli` does the polling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["render_top", "node_row"]


def _metric_total(metrics: Mapping[str, Any], name: str) -> Optional[float]:
    """Sum of a counter/gauge family's samples, or None if absent."""
    family = metrics.get(name)
    if not family:
        return None
    return float(
        sum(s.get("value", 0.0) for s in family.get("samples", []))
    )


def _summary_mean(
    metrics: Mapping[str, Any], name: str
) -> Dict[Tuple[Tuple[str, str], ...], float]:
    """Per-label-set mean of a summary family (sum / count)."""
    family = metrics.get(name)
    out: Dict[Tuple[Tuple[str, str], ...], float] = {}
    if not family:
        return out
    for sample in family.get("samples", []):
        count = sample.get("count", 0)
        if count:
            key = tuple(sorted(sample.get("labels", {}).items()))
            out[key] = float(sample.get("sum", 0.0)) / float(count)
    return out


def _labelled_values(
    metrics: Mapping[str, Any], name: str, label: str
) -> Dict[str, float]:
    """A gauge family's samples keyed by one label's value."""
    family = metrics.get(name)
    out: Dict[str, float] = {}
    if not family:
        return out
    for sample in family.get("samples", []):
        key = sample.get("labels", {}).get(label)
        if key is not None:
            out[str(key)] = float(sample.get("value", 0.0))
    return out


def _fmt(value: Optional[float], spec: str = ".3f", na: str = "-") -> str:
    return na if value is None else format(value, spec)


def node_row(node: str, record: Mapping[str, Any]) -> Dict[str, Any]:
    """One node's dashboard line as structured data."""
    metrics = record.get("metrics", {})
    return {
        "node": node,
        "seq": record.get("seq", -1),
        "age_seconds": record.get("age_seconds", 0.0),
        "spans": record.get("spans_received", 0),
        "audit": record.get("audit_received", 0),
        "epochs": _metric_total(metrics, "scheduler_epochs_total"),
        "best_metric": _metric_total(metrics, "experiment_best_metric"),
        "best_ert": _metric_total(metrics, "pop_best_ert_seconds"),
    }


def _nodes_table(nodes: Mapping[str, Mapping[str, Any]]) -> List[str]:
    lines = [
        f"{'NODE':<14} {'SEQ':>5} {'AGE':>7} {'SPANS':>7} {'AUDIT':>7}"
    ]
    for node in sorted(nodes):
        row = node_row(node, nodes[node])
        lines.append(
            f"{row['node']:<14} {row['seq']:>5} "
            f"{row['age_seconds']:>6.1f}s {row['spans']:>7} "
            f"{row['audit']:>7}"
        )
    return lines


def _cluster_section(nodes: Mapping[str, Mapping[str, Any]]) -> List[str]:
    head = nodes.get("head")
    if head is None:
        return []
    metrics = head.get("metrics", {})
    lines: List[str] = []
    nodes_up = _metric_total(metrics, "cluster_nodes_up")
    migrations = _metric_total(metrics, "cluster_migrations_total")
    lines.append(
        f"cluster: nodes_up={_fmt(nodes_up, '.0f')} "
        f"migrations={_fmt(migrations, '.0f')}"
    )
    rtt = _summary_mean(metrics, "cluster_heartbeat_rtt_seconds")
    membership = head.get("meta", {}).get("heartbeat", {})
    machine_ids = sorted(
        set(membership)
        | {dict(key).get("machine_id", "?") for key in rtt}
    )
    for machine_id in machine_ids:
        health = membership.get(machine_id, {})
        mean_rtt = None
        for key, value in rtt.items():
            if dict(key).get("machine_id") == machine_id:
                mean_rtt = value
        state = health.get("state", "?")
        misses = health.get("misses", "-")
        rtt_text = "-" if mean_rtt is None else f"{mean_rtt * 1e3:.1f}ms"
        lines.append(
            f"  {machine_id:<14} {state:<5} misses={misses:<3} "
            f"rtt={rtt_text}"
        )
    return lines


def _experiment_section(
    nodes: Mapping[str, Mapping[str, Any]]
) -> List[str]:
    rows = []
    for node in sorted(nodes):
        row = node_row(node, nodes[node])
        if row["epochs"] is None and row["best_metric"] is None:
            continue  # a shipper with no scheduler (bare worker)
        rows.append(row)
    if not rows:
        return []
    lines = [f"{'EXPERIMENT':<14} {'EPOCHS':>7} {'BEST':>8} {'ERT':>9}"]
    for row in rows:
        ert = row["best_ert"]
        ert_text = "-" if not ert else f"{ert / 60:.1f}min"
        lines.append(
            f"{row['node']:<14} {_fmt(row['epochs'], '.0f'):>7} "
            f"{_fmt(row['best_metric'], '.4f'):>8} {ert_text:>9}"
        )
    return lines


def _tenant_section(nodes: Mapping[str, Mapping[str, Any]]) -> List[str]:
    service = nodes.get("service")
    if service is None:
        return []
    metrics = service.get("metrics", {})
    queued = _labelled_values(metrics, "broker_tenant_queued", "tenant")
    running = _labelled_values(metrics, "broker_tenant_running", "tenant")
    held = _labelled_values(metrics, "broker_tenant_slots_held", "tenant")
    spent = _labelled_values(
        metrics, "broker_tenant_budget_spent_slot_hours", "tenant"
    )
    left = _labelled_values(
        metrics, "broker_tenant_budget_remaining_slot_hours", "tenant"
    )
    deadline = _labelled_values(
        metrics, "broker_tenant_deadline_seconds", "tenant"
    )
    tenants = sorted(
        set(queued) | set(running) | set(held) | set(spent)
    )
    if not tenants:
        return []
    total = _metric_total(metrics, "broker_slots_total")
    allocated = _metric_total(metrics, "broker_slots_allocated")
    total_text = (
        "unlimited" if not total else f"{_fmt(allocated, '.0f')}/{total:.0f}"
    )
    lines = [f"broker: slots {total_text}"]
    lines.append(
        f"{'TENANT':<14} {'QUEUED':>6} {'RUN':>4} {'SLOTS':>5} "
        f"{'SPENT':>8} {'BUDGET':>8} {'DEADLINE':>9}"
    )
    for tenant in tenants:
        left_text = (
            "-" if tenant not in left else f"{left[tenant]:.2f}sh"
        )
        deadline_text = (
            "-" if tenant not in deadline
            else f"{deadline[tenant]:.0f}s"
        )
        lines.append(
            f"{tenant:<14} {queued.get(tenant, 0):>6.0f} "
            f"{running.get(tenant, 0):>4.0f} {held.get(tenant, 0):>5.0f} "
            f"{spent.get(tenant, 0.0):>6.2f}sh {left_text:>8} "
            f"{deadline_text:>9}"
        )
    return lines


def _fleet_section(nodes: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """Cost/fleet panel: workers up by machine class and per-experiment
    dollars spent against budget, from the ``cost_*`` gauges the
    cluster runtime's meter exports."""
    workers: Dict[str, float] = {}
    spent: Dict[str, float] = {}
    budget: Dict[str, float] = {}
    remaining: Dict[str, float] = {}
    for record in nodes.values():
        metrics = record.get("metrics", {})
        for cls, value in _labelled_values(
            metrics, "cost_workers_up", "class"
        ).items():
            workers[cls] = workers.get(cls, 0.0) + value
        spent.update(
            _labelled_values(metrics, "cost_spent_dollars", "experiment")
        )
        budget.update(
            _labelled_values(metrics, "cost_budget_dollars", "experiment")
        )
        remaining.update(
            _labelled_values(
                metrics, "cost_budget_remaining_dollars", "experiment"
            )
        )
    if not workers and not spent:
        return []
    fleet_text = " ".join(
        f"{cls}={workers[cls]:.0f}" for cls in sorted(workers)
    )
    lines = [f"fleet: workers up {fleet_text or '-'}"]
    experiments = sorted(set(spent) | set(budget))
    if experiments:
        lines.append(
            f"{'EXPERIMENT':<14} {'SPENT':>9} {'BUDGET':>9} {'LEFT':>9}"
        )
        for experiment in experiments:
            budget_text = (
                "-" if experiment not in budget
                else f"${budget[experiment]:.2f}"
            )
            left_text = (
                "-" if experiment not in remaining
                else f"${remaining[experiment]:.2f}"
            )
            spent_text = f"${spent.get(experiment, 0.0):.2f}"
            lines.append(
                f"{experiment:<14} {spent_text:>9} "
                f"{budget_text:>9} {left_text:>9}"
            )
    return lines


def _training_section(nodes: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """One line per node running policy training, from the ``learn_*``
    instruments ``repro train-policy`` publishes: episodes completed,
    best episode reward, latest mean reward, allocation entropy."""
    lines: List[str] = []
    for node in sorted(nodes):
        metrics = nodes[node].get("metrics", {})
        episodes = _metric_total(metrics, "learn_episodes_total")
        if episodes is None:
            continue
        best = _metric_total(metrics, "learn_best_reward")
        reward = _metric_total(metrics, "learn_episode_reward")
        entropy = _metric_total(metrics, "learn_policy_entropy")
        lines.append(
            f"training[{node}]: episodes={episodes:.0f} "
            f"best={_fmt(best)} reward={_fmt(reward)} "
            f"entropy={_fmt(entropy, '.2f')}"
        )
    return lines


def render_top(telemetry: Mapping[str, Any], url: str = "") -> str:
    """The whole dashboard as one text block."""
    nodes = telemetry.get("nodes", {})
    header = "repro top"
    if url:
        header += f" — {url}"
    header += f" — {len(nodes)} node(s)"
    sections: List[List[str]] = [[header]]
    if nodes:
        sections.append(_nodes_table(nodes))
        cluster = _cluster_section(nodes)
        if cluster:
            sections.append(cluster)
        experiments = _experiment_section(nodes)
        if experiments:
            sections.append(experiments)
        tenants = _tenant_section(nodes)
        if tenants:
            sections.append(tenants)
        fleet = _fleet_section(nodes)
        if fleet:
            sections.append(fleet)
        training = _training_section(nodes)
        if training:
            sections.append(training)
    else:
        sections.append(["no telemetry yet"])
    conflicts = telemetry.get("kind_conflicts") or {}
    if conflicts:
        names = ", ".join(sorted(conflicts))
        sections.append([f"warning: metric kind conflicts: {names}"])
    return "\n\n".join("\n".join(section) for section in sections) + "\n"
