"""repro diagnose: journal loading, phase breakdown, critical path."""

import json
from pathlib import Path

from repro.observability.diagnose import (
    classify_phase,
    critical_path,
    diagnose,
    load_journals,
    phase_breakdown,
    render_markdown,
)
from repro.service.store import RunStore

FIXTURE_JOURNAL = (
    Path(__file__).parent.parent
    / "fixtures" / "run_store_1_7" / "journal" / "exp-ed204d052691.jsonl"
)


def span(name, start, end, wall=0.0, trace="t0", span_id=None,
         parent=None, **attributes):
    return {
        "kind": "span",
        "name": name,
        "start": start,
        "end": end,
        "wall_seconds": wall,
        "trace_id": trace,
        "span_id": span_id or f"{name}-{start}",
        "parent_id": parent,
        "attributes": attributes,
    }


def audit(kind, timestamp, job_id=None, machine_id=None, **data):
    return {
        "kind": kind,
        "timestamp": timestamp,
        "job_id": job_id,
        "machine_id": machine_id,
        "data": data,
    }


class TestClassify:
    def test_phases(self):
        assert classify_phase({"name": "predictor.predict"}) == "predict"
        assert classify_phase({"name": "agent.predict"}) == "predict"
        assert classify_phase({"name": "worker.train_epoch"}) == "train"
        assert classify_phase({"name": "scheduler.process_epoch"}) is None
        assert classify_phase({"name": "cluster.epoch"}) is None


class TestPhaseBreakdown:
    def test_migrate_matches_audit_resume_latency(self):
        events = [
            audit("cluster_migration", 10.0, job_id="j", machine_id="m0",
                  resume_epoch=3, resume_latency=0.25),
            audit("cluster_migration", 20.0, job_id="j", machine_id="m1",
                  resume_epoch=5, resume_latency=0.5),
        ]
        phases = phase_breakdown(events)
        assert phases["seconds"]["migrate"] == 0.75
        assert phases["counts"]["migrate"] == 2

    def test_nested_same_phase_counted_once(self):
        outer = span("agent.predict", 0.0, 4.0, span_id="a")
        inner = span("predictor.predict", 1.0, 3.0, span_id="b", parent="a")
        phases = phase_breakdown([outer, inner])
        assert phases["seconds"]["predict"] == 4.0
        assert phases["counts"]["predict"] == 1

    def test_train_prefers_worker_spans_over_envelope(self):
        events = [
            span("cluster.epoch", 0.0, 10.0, span_id="e"),
            span("worker.train_epoch", 1.0, 7.0, span_id="w", parent="e"),
        ]
        phases = phase_breakdown(events)
        assert phases["seconds"]["train"] == 6.0

    def test_envelope_fallback_without_worker_spans(self):
        events = [span("cluster.epoch", 0.0, 10.0)]
        phases = phase_breakdown(events)
        assert phases["seconds"]["train"] == 10.0

    def test_idle_is_capacity_minus_busy(self):
        events = [
            span("worker.train_epoch", 0.0, 6.0, machine_id="m0"),
            span("worker.train_epoch", 0.0, 4.0, machine_id="m1"),
            audit("lifecycle", 10.0, machine_id="m0"),
        ]
        phases = phase_breakdown(events)
        # Extent 10s x 2 machines = 20 machine-seconds; 10 busy.
        assert phases["extent_seconds"] == 10.0
        assert phases["machines"] == ["m0", "m1"]
        assert phases["seconds"]["idle"] == 10.0

    def test_empty_events(self):
        phases = phase_breakdown([])
        assert phases["extent_seconds"] == 0.0
        assert all(value == 0.0 for value in phases["seconds"].values())


class TestCriticalPath:
    def test_longest_chain_wins(self):
        events = [
            span("cluster.epoch", 0, 10, wall=0.010, span_id="root"),
            span("worker.train_epoch", 1, 7, wall=0.050,
                 span_id="w", parent="root"),
            span("scheduler.process_epoch", 8, 9, wall=0.001,
                 span_id="s", parent="root"),
        ]
        path = critical_path(events)
        assert path["traces"] == 1
        assert path["multi_span_traces"] == 1
        names = [step["name"] for step in path["slowest"]["path"]]
        assert names == ["cluster.epoch", "worker.train_epoch"]
        assert abs(path["slowest"]["wall_seconds"] - 0.060) < 1e-9

    def test_orphan_parent_treated_as_root(self):
        # Worker span shipped without its head parent (head journal
        # missing): it must still appear as a trace root.
        events = [
            span("worker.train_epoch", 0, 5, wall=0.02,
                 span_id="w", parent="missing"),
        ]
        path = critical_path(events)
        assert path["traces"] == 1
        assert path["slowest"]["path"][0]["name"] == "worker.train_epoch"

    def test_traces_sorted_by_wall(self):
        events = [
            span("a", 0, 1, wall=0.001, trace="t1", span_id="a1"),
            span("b", 0, 1, wall=0.900, trace="t2", span_id="b1"),
        ]
        assert critical_path(events)["slowest"]["trace_id"] == "t2"

    def test_node_defaults_to_head(self):
        events = [span("a", 0, 1, wall=0.1, span_id="a1")]
        assert critical_path(events)["slowest"]["path"][0]["node"] == "head"


class TestEndToEnd:
    def test_load_and_render(self, tmp_path):
        journal = tmp_path / "exp-1.jsonl"
        events = [
            span("cluster.epoch", 0, 10, wall=0.01, span_id="r"),
            span("worker.train_epoch", 1, 7, wall=0.02,
                 span_id="w", parent="r", machine_id="m0"),
            audit("cluster_migration", 12.0, job_id="j", machine_id="m0",
                  resume_epoch=2, resume_latency=0.3),
        ]
        journal.write_text(
            "\n".join(json.dumps(event) for event in events) + "\n"
        )
        report = diagnose(load_journals([journal]))
        exp = report["experiments"]["exp-1"]
        assert exp["spans"] == 2
        assert exp["phases"]["seconds"]["migrate"] == 0.3
        markdown = render_markdown(report)
        assert "## exp-1" in markdown
        assert "cluster_migration" in markdown
        assert "| migrate | 0.30 |" in markdown

    def test_run_store_journal_is_unwrapped(self):
        """A daemon journal wraps every record as ``{"kind": "audit",
        "record": ...}``; the committed 1.7 run store's journal carries
        a hand-written wrapped ``cluster_migration`` record."""
        report = diagnose(load_journals([FIXTURE_JOURNAL]))
        exp = report["experiments"][FIXTURE_JOURNAL.stem]
        phases = exp["phases"]
        assert phases["extent_seconds"] > 0.0
        assert phases["machines"] == ["machine-00", "machine-01"]
        (migration,) = exp["notable"]
        assert migration["kind"] == "cluster_migration"
        assert migration["job_id"] == "job-0000"
        assert phases["seconds"]["migrate"] == migration["data"]["resume_latency"]
        golden = FIXTURE_JOURNAL.parent.parent / "diagnose.md"
        assert render_markdown(report) == golden.read_text()

    def test_wrapped_spans_count_as_spans(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        exporter = store.journal_exporter("exp-3")
        exporter.export(span("worker.train_epoch", 0.0, 2.0, machine_id="m0"))
        exporter.export(audit("lifecycle", 2.0, machine_id="m1"))
        store.close()
        report = diagnose(load_journals([store.journal_path("exp-3")]))
        exp = report["experiments"]["exp-3"]
        assert (exp["spans"], exp["audit"]) == (1, 1)
        assert exp["phases"]["seconds"]["train"] == 2.0
        assert exp["phases"]["machines"] == ["m0", "m1"]

    def test_corrupt_lines_skipped(self, tmp_path):
        journal = tmp_path / "exp-2.jsonl"
        good = json.dumps(audit("lifecycle", 1.0))
        journal.write_text(good + "\n\x00\x00garbage\n" + good + "\n")
        journals = load_journals([journal])
        assert len(journals["exp-2"]) == 2

    def test_multiple_journals_are_separate_experiments(self, tmp_path):
        for name in ("alpha", "beta"):
            (tmp_path / f"{name}.jsonl").write_text(
                json.dumps(audit("lifecycle", 1.0)) + "\n"
            )
        report = diagnose(
            load_journals(
                [tmp_path / "alpha.jsonl", tmp_path / "beta.jsonl"]
            )
        )
        assert set(report["experiments"]) == {"alpha", "beta"}
