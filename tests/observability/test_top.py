"""repro top: pure rendering of the /telemetry document."""

from repro.observability.aggregator import TelemetryAggregator
from repro.observability.metrics import MetricsRegistry
from repro.observability.top import node_row, render_top


def head_registry():
    registry = MetricsRegistry()
    registry.gauge("cluster_nodes_up").set(3)
    registry.counter("cluster_migrations_total").inc()
    registry.counter("scheduler_epochs_total").inc(42)
    registry.gauge("experiment_best_metric").set(0.91)
    registry.gauge("pop_best_ert_seconds").set(600.0)
    registry.histogram("cluster_heartbeat_rtt_seconds").observe(
        0.002, machine_id="machine-00"
    )
    return registry


def telemetry_doc():
    aggregator = TelemetryAggregator(clock=lambda: 1.0)
    aggregator.ingest_registry(
        "head",
        head_registry(),
        meta={
            "heartbeat": {
                "machine-00": {
                    "state": "up", "connected": True,
                    "misses": 0, "last_seq": 9,
                }
            }
        },
    )
    worker = MetricsRegistry()
    worker.gauge("worker_up").set(1)
    aggregator.ingest_registry("machine-00", worker)
    return aggregator.to_dict()


class TestNodeRow:
    def test_extracts_dashboard_fields(self):
        doc = telemetry_doc()
        row = node_row("head", doc["nodes"]["head"])
        assert row["epochs"] == 42.0
        assert row["best_metric"] == 0.91
        assert row["best_ert"] == 600.0

    def test_worker_without_scheduler(self):
        doc = telemetry_doc()
        row = node_row("machine-00", doc["nodes"]["machine-00"])
        assert row["epochs"] is None


class TestRenderTop:
    def test_sections_present(self):
        frame = render_top(telemetry_doc(), url="http://x:1")
        assert "repro top" in frame
        assert "http://x:1" in frame
        assert "2 node(s)" in frame
        assert "machine-00" in frame
        assert "nodes_up=3" in frame
        assert "rtt=2.0ms" in frame
        assert "0.9100" in frame       # best metric
        assert "10.0min" in frame      # ERT
        assert frame.endswith("\n")

    def test_empty_telemetry(self):
        frame = render_top({"nodes": {}, "history": []})
        assert "no telemetry yet" in frame

    def test_kind_conflict_warning(self):
        frame = render_top(
            {"nodes": {}, "history": [], "kind_conflicts": {"busy": 2}}
        )
        assert "kind conflicts" in frame
        assert "busy" in frame


class TestFleetSection:
    def fleet_doc(self):
        aggregator = TelemetryAggregator(clock=lambda: 1.0)
        head = MetricsRegistry()
        head.gauge("cost_workers_up").set(2, **{"class": "on_demand"})
        head.gauge("cost_workers_up").set(1, **{"class": "spot"})
        head.gauge("cost_spent_dollars").set(3.25, experiment="exp-1")
        head.gauge("cost_budget_dollars").set(10.0, experiment="exp-1")
        head.gauge("cost_budget_remaining_dollars").set(
            6.75, experiment="exp-1"
        )
        aggregator.ingest_registry("head", head)
        other = MetricsRegistry()
        other.gauge("cost_workers_up").set(3, **{"class": "on_demand"})
        other.gauge("cost_spent_dollars").set(1.5, experiment="exp-2")
        aggregator.ingest_registry("exp-2", other)
        return aggregator.to_dict()

    def test_workers_summed_across_nodes(self):
        frame = render_top(self.fleet_doc())
        assert "fleet: workers up on_demand=5 spot=1" in frame

    def test_per_experiment_spend_vs_budget(self):
        frame = render_top(self.fleet_doc())
        assert "exp-1" in frame
        assert "$3.25" in frame
        assert "$10.00" in frame
        assert "$6.75" in frame
        # An unbudgeted experiment renders its spend with no budget.
        assert "exp-2" in frame
        assert "$1.50" in frame

    def test_absent_without_cost_gauges(self):
        frame = render_top(telemetry_doc())
        assert "fleet:" not in frame


class TestTrainingSection:
    def training_doc(self):
        aggregator = TelemetryAggregator(clock=lambda: 1.0)
        trainer = MetricsRegistry()
        trainer.counter("learn_episodes_total").inc(128)
        trainer.gauge("learn_best_reward").set(1.234)
        trainer.gauge("learn_episode_reward").set(0.987)
        trainer.gauge("learn_policy_entropy").set(1.5)
        aggregator.ingest_registry("trainer", trainer)
        return aggregator.to_dict()

    def test_one_line_panel(self):
        frame = render_top(self.training_doc())
        assert (
            "training[trainer]: episodes=128 best=1.234 "
            "reward=0.987 entropy=1.50" in frame
        )

    def test_absent_without_learn_metrics(self):
        frame = render_top(telemetry_doc())
        assert "training[" not in frame
