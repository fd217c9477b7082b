"""Audit-trail contents for scripted POP runs, plus the CLI acceptance
path (``--emit-events`` / ``--metrics-out``)."""

from __future__ import annotations

import json

import pytest

from repro.core.classification import CONFIDENCE_LOWER_BOUND
from repro.core.pop import POPPolicy
from repro.framework.experiment import ExperimentSpec
from repro.generators.random_gen import RandomGenerator
from repro.observability import AuditTrail, InMemoryExporter, Journal, Recorder
from repro.sim.runner import run_simulation


class TestAuditTrail:
    def test_record_and_query(self):
        trail = AuditTrail()
        trail.record("sap_decision", job_id="j1", decision="continue")
        trail.record("sap_decision", job_id="j2", decision="terminate")
        trail.record("lifecycle", job_id="j2", event="killed")
        assert len(trail.query(kind="sap_decision")) == 2
        (kill,) = trail.query(kind="sap_decision", decision="terminate")
        assert kill.job_id == "j2"
        assert trail.query(job_id="j2", kind="lifecycle")[0].data["event"] == "killed"

    def test_records_stream_to_exporter(self):
        exporter = InMemoryExporter()
        trail = AuditTrail(exporter=exporter)
        trail.record("prediction", job_id="j1", p=0.4)
        assert exporter.events == [
            {
                "kind": "prediction",
                "timestamp": 0.0,
                "job_id": "j1",
                "machine_id": None,
                "data": {"p": 0.4},
            }
        ]

    def test_clock_stamps_records(self):
        now = {"t": 10.0}
        trail = AuditTrail(clock=lambda: now["t"])
        trail.record("lifecycle")
        now["t"] = 25.0
        trail.record("lifecycle")
        assert [r.timestamp for r in trail.records] == [10.0, 25.0]


@pytest.fixture(scope="module")
def pop_run(cifar10_workload, fast_predictor):
    """One instrumented POP run shared by the assertions below."""
    recorder = Recorder(exporter=InMemoryExporter())
    generator = RandomGenerator(cifar10_workload.space, seed=271, max_configs=20)
    spec = ExperimentSpec(num_machines=4, num_configs=20, seed=0, tmax=6 * 3600.0)
    result = run_simulation(
        cifar10_workload,
        POPPolicy(),
        generator=generator,
        spec=spec,
        predictor=fast_predictor,
        recorder=recorder,
    )
    return result, recorder


class TestPopAuditContents:
    def test_every_terminate_decision_carries_its_inputs(self, pop_run):
        _, recorder = pop_run
        kills = recorder.audit.query(kind="sap_decision", decision="terminate")
        assert kills, "the scripted run should kill at least one job"
        for record in kills:
            data = record.data
            if data["reason"] == "confidence_below_bound":
                assert data["p"] < data["bound"]
                assert data["bound"] == CONFIDENCE_LOWER_BOUND
            elif data["reason"] == "domain_poor":
                assert data["kill_threshold"] > 0.0
                assert data["best_metric"] < data["kill_threshold"]
            else:  # pragma: no cover - new kill reasons must carry inputs
                pytest.fail(f"unexpected kill reason {data['reason']!r}")

    def test_terminated_jobs_match_audit_trail(self, pop_run):
        result, recorder = pop_run
        killed_in_audit = {
            r.job_id
            for r in recorder.audit.query(kind="sap_decision", decision="terminate")
        }
        killed_in_result = {
            job.job_id for job in result.jobs if job.state.value == "terminated"
        }
        assert killed_in_audit == killed_in_result

    def test_classifications_report_threshold_and_slots(self, pop_run):
        _, recorder = pop_run
        rounds = recorder.audit.query(kind="pop_classification")
        assert rounds
        for record in rounds:
            assert 0.0 <= record.data["threshold"] <= 1.0
            assert record.data["promising_slots"] >= 0
            # Every active job is categorised; confidences cover the
            # subset that already has a curve-prediction estimate.
            assert len(record.data["categories"]) == record.data["active_jobs"]
            assert set(record.data["confidences"]) <= set(record.data["categories"])

    def test_predictions_recorded_with_confidence_and_ert(self, pop_run):
        result, recorder = pop_run
        predictions = recorder.audit.query(kind="prediction")
        assert len(predictions) == result.predictions_made
        for record in predictions:
            assert 0.0 <= record.data["confidence"] <= 1.0
            assert record.data["expected_remaining_seconds"] >= 0.0

    def test_result_summary_reports_kill_breakdown(self, pop_run):
        result, recorder = pop_run
        summary = result.summary()
        kills = recorder.audit.query(kind="sap_decision", decision="terminate")
        assert sum(summary["kills_by_reason"].values()) == len(kills)
        assert summary["audit_events"] == len(recorder.audit.records)


class TestCliAcceptance:
    def test_emit_events_and_metrics_out(self, tmp_path):
        from repro.cli import main

        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.txt"
        code = main([
            "run", "--workload", "cifar10", "--policy", "pop",
            "--configs", "12", "--tmax-hours", "6",
            "--emit-events", str(events),
            "--metrics-out", str(metrics),
        ])
        assert code == 0

        decisions = [
            e for e in map(json.loads, Journal(events).lines())
            if e["kind"] == "sap_decision"
        ]
        assert decisions
        kills = [e for e in decisions if e["data"]["decision"] == "terminate"]
        for kill in kills:
            data = kill["data"]
            assert "reason" in data
            assert ("p" in data and "bound" in data) or "kill_threshold" in data

        text = metrics.read_text()
        assert "scheduler_kills_total" in text
        # Fit times are labelled by predictor backend, so the quantile
        # series look like predictor_fit_seconds{backend="...",quantile="0.5"}.
        assert "# TYPE predictor_fit_seconds summary" in text
        assert 'quantile="0.5"' in text
        assert "predictor_fit_seconds_count" in text
        assert "slots_promising_ratio" in text
