"""StudyRunner: skip/resume, fan-out, metering, and failure paths."""

from __future__ import annotations

import pytest

from repro.lab import CellStore, StudyRunner, StudySpec, run_study
from repro.lab import runner as runner_module
from repro.lab.runner import CellError, execute_cell
from repro.observability import Recorder


def fast_spec(**overrides) -> StudySpec:
    """A real-execution study that completes in ~1 s total: the MLP
    workload constructs instantly (no calibration sampling)."""
    base = dict(
        name="runner-study",
        policies=("default", "bandit"),
        workloads=("mlp",),
        machines=(2,),
        seeds=(0,),
        num_configs=3,
        tmax_hours=1.0,
        stop_on_target=False,
        baseline={"policy": "default"},
        metric="best_metric",
    )
    base.update(overrides)
    return StudySpec(**base)


def fake_execute(payload):
    """Fabricated stand-in keyed like the real one (inline path only)."""
    from repro.lab.spec import Cell

    cell = Cell(**payload)
    return {
        "key": cell.key(),
        "label": cell.label(),
        "cell": cell.resolved(),
        "result": {
            "reached_target": True,
            "time_to_target": 100.0 + 10.0 * len(cell.policy),
            "finished_at": 500.0,
            "best_metric": 0.5 + 0.01 * cell.seed,
        },
        "wall_seconds": 0.01,
    }


@pytest.fixture()
def patched_execute(monkeypatch):
    monkeypatch.setattr(runner_module, "execute_cell", fake_execute)


def test_run_executes_all_cells_and_meters(tmp_path, patched_execute):
    spec = fast_spec(seeds=(0, 1))
    store = CellStore(tmp_path)
    recorder = Recorder()
    seen = []
    runner = StudyRunner(spec, store, recorder=recorder, max_workers=1)
    progress = runner.run(on_cell=lambda p: seen.append((p.executed, p.skipped)))

    assert (progress.total, progress.executed, progress.skipped) == (4, 4, 0)
    assert store.completed_keys() == {cell.key() for cell in spec.cells()}
    assert recorder.metrics.get("lab_cells_done").total == 4
    assert recorder.metrics.get("lab_cells_skipped").total == 0
    assert len(seen) == 4 and seen[-1] == (4, 0)
    kinds = [record.kind for record in recorder.audit.records]
    assert kinds[0] == "lab_study_started"
    assert kinds.count("lab_cell_completed") == 4
    assert kinds[-1] == "lab_study_finished"


def test_second_run_skips_everything(tmp_path, patched_execute):
    spec = fast_spec()
    store = CellStore(tmp_path)
    StudyRunner(spec, store, max_workers=1).run()
    stamps = {key: store.mtime_ns(key) for key in store.completed_keys()}

    recorder = Recorder()
    progress = StudyRunner(spec, store, recorder=recorder, max_workers=1).run()
    assert (progress.executed, progress.skipped) == (0, 2)
    assert recorder.metrics.get("lab_cells_skipped").total == 2
    skipped = recorder.audit.query(kind="lab_cell_skipped")
    assert {record.data["key"] for record in skipped} == set(stamps)
    # resume evidence: the archived cells were not rewritten
    assert {key: store.mtime_ns(key) for key in stamps} == stamps


def test_partial_store_runs_only_missing(tmp_path, patched_execute):
    spec = fast_spec(seeds=(0, 1))
    cells = spec.cells()
    store = CellStore(tmp_path)
    store.save_cell(cells[0].key(), fake_execute(cells[0].__dict__))
    progress = StudyRunner(spec, store, max_workers=1).run()
    assert (progress.executed, progress.skipped) == (3, 1)


def test_cell_failure_wraps_label(tmp_path, monkeypatch):
    def boom(payload):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(runner_module, "execute_cell", boom)
    spec = fast_spec()
    with pytest.raises(CellError, match=r"mlp/default/2m/s0.*synthetic"):
        StudyRunner(spec, CellStore(tmp_path), max_workers=1).run()


def test_max_workers_validation(tmp_path):
    with pytest.raises(ValueError, match="max_workers"):
        StudyRunner(fast_spec(), CellStore(tmp_path), max_workers=0)


def test_effective_workers_auto_caps(tmp_path):
    runner = StudyRunner(fast_spec(), CellStore(tmp_path))
    assert runner._effective_workers(1) == 1
    assert 1 <= runner._effective_workers(100) <= 8


def test_execute_cell_real_and_deterministic():
    (cell, *_) = fast_spec().cells()
    from dataclasses import asdict

    first = execute_cell(asdict(cell))
    second = execute_cell(asdict(cell))
    assert first["key"] == cell.key()
    assert first["result"]["best_metric"] == second["result"]["best_metric"]
    assert first["result"]["epochs_trained"] == second["result"]["epochs_trained"]


def test_run_study_end_to_end_pooled(tmp_path):
    """The one-call helper with a real process pool: report written,
    resumable, and byte-identical when re-rendered."""
    spec = fast_spec(seeds=(0, 1))
    out = tmp_path / "study"
    markdown = run_study(spec, out, max_workers=2)
    store = CellStore(out)
    assert store.report_md_path.read_text() == markdown
    assert "Winner: **" in markdown
    # rerun: everything skipped, identical report
    assert run_study(spec, out, max_workers=2) == markdown


class TestCellTelemetry:
    def test_execute_cell_returns_digest(self):
        spec = fast_spec()
        cell = spec.cells()[0]
        from dataclasses import asdict

        payload = execute_cell(asdict(cell))
        telemetry = payload["telemetry"]
        assert telemetry["wall_seconds"] == payload["wall_seconds"]
        assert telemetry["cpu_seconds"] > 0.0
        assert telemetry["epochs"] > 0

    def test_digest_persisted_in_cell_record_and_journal(self, tmp_path):
        spec = fast_spec(policies=("default",))
        store = CellStore(tmp_path)
        runner = StudyRunner(spec, store, recorder=Recorder(), max_workers=1)
        runner.run()
        (key,) = store.completed_keys()
        record = store.load_cell(key)
        assert "telemetry" in record
        assert record["telemetry"]["cpu_seconds"] > 0.0
        (entry,) = store.journal()
        assert entry["cpu_seconds"] == record["telemetry"]["cpu_seconds"]
        # Parent-side metering saw the child's CPU time.
        histogram = runner.recorder.metrics.get("lab_cell_cpu_seconds")
        assert histogram.count() == 1

    def test_completed_audit_carries_digest(self, tmp_path):
        spec = fast_spec(policies=("default",))
        recorder = Recorder()
        run_study(spec, tmp_path, recorder=recorder, max_workers=1)
        (record,) = [
            r for r in recorder.audit.records
            if r.kind == "lab_cell_completed"
        ]
        assert record.data["cpu_seconds"] > 0.0

    def test_fake_payload_without_telemetry_tolerated(
        self, tmp_path, patched_execute
    ):
        # Old payload shape (pre-digest): runner must not crash.
        spec = fast_spec(policies=("default",))
        store = CellStore(tmp_path)
        runner = StudyRunner(spec, store, recorder=Recorder(), max_workers=1)
        runner.run()
        (entry,) = store.journal()
        assert entry["cpu_seconds"] is None


def test_budget_stops_a_blind_cell_but_not_its_submission(tmp_path, monkeypatch):
    """The one way a cell runs differently from the same submission in
    the service: the lab stops a budget-blind policy once its slot-hour
    budget is spent, while the service leaves the budget to its broker,
    so without one the run goes on past that spend."""
    from dataclasses import asdict, fields

    from repro.framework.scheduler import HyperDriveScheduler
    from repro.service import executor
    from repro.service.store import RunStore
    from repro.service.submission import Submission

    reasons = []
    stop = HyperDriveScheduler._stop_experiment

    def recording_stop(self, reason="policy"):
        reasons.append(reason)
        stop(self, reason)

    monkeypatch.setattr(HyperDriveScheduler, "_stop_experiment", recording_stop)

    def spent(result):
        return sum(sum(job["durations"]) for job in result["jobs"]) / 3600.0

    (cell,) = fast_spec(
        policies=("default",), generators=("random",), tmax_hours=2.0,
        budget_slot_hours=0.5,
    ).cells()
    in_lab = execute_cell(asdict(cell))["result"]
    assert reasons == ["budget_exhausted"]
    assert spent(in_lab) >= 0.5

    submission = Submission(
        **{f.name: getattr(cell, f.name) for f in fields(Submission)}
    )
    store = RunStore(tmp_path / "runs")
    in_service = executor.execute(store, store.submit(submission).id).result
    store.close()
    assert reasons == ["budget_exhausted"]
    assert spent(in_service) > spent(in_lab)
    assert in_service["finished_at"] == 2.0 * 3600.0


def test_importing_the_lab_loads_no_daemon():
    """A study process (and sched_sim's RSS) must not pay for the daemon:
    the lab imports the run description, not the service package."""
    import subprocess
    import sys

    heavy = ("repro.service.daemon", "sqlite3", "http.server")
    script = (
        "import sys, repro.lab\n"
        f"print([name for name in {heavy!r} if name in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
