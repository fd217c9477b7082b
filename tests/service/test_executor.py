"""Tests for the experiment executor (run, checkpoint, cancel, resume)."""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path

import pytest

from repro.service import executor
from repro.service.store import (
    CANCELLED,
    COMPLETED,
    FAILED,
    RunStore,
)
from repro.service.submission import Submission


def test_execute_completes_and_persists_everything(store, small_submission):
    record = store.submit(small_submission)
    final = executor.execute(store, record.id)
    assert final.status == COMPLETED
    assert final.result is not None
    assert final.result["epochs_trained"] > 0
    assert final.result["policy"] == "bandit"
    # progress checkpoints were persisted along the way
    assert final.checkpoint is not None
    assert final.checkpoint["epochs_trained"] > 0
    assert set(final.checkpoint["jobs"]) == {
        f"job-{i:04d}" for i in range(small_submission.configs)
    }
    kinds = {event["kind"] for event in store.read_events(record.id)}
    assert {"submitted", "configs", "checkpoint", "audit", "result"} <= kinds
    # the audit trail carries real scheduler decisions
    audit_kinds = {
        event["record"]["kind"]
        for event in store.read_events(record.id)
        if event["kind"] == "audit"
    }
    assert "lifecycle" in audit_kinds


def test_execute_unknown_id(store):
    with pytest.raises(KeyError):
        executor.execute(store, "exp-missing")


def test_execute_rejects_terminal_experiment(store, small_submission):
    record = store.submit(small_submission)
    store.claim_next_queued()
    store.mark_finished(record.id, COMPLETED, result={})
    with pytest.raises(ValueError, match="only queued/running"):
        executor.execute(store, record.id)


def test_execute_marks_failed_on_error(store, monkeypatch):
    record = store.submit(Submission(workload="cifar10", configs=2))

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("repro.sim.runner.run_simulation", boom)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        executor.execute(store, record.id)
    final = store.get(record.id)
    assert final.status == FAILED
    assert "synthetic failure" in final.error


def test_cancellation_mid_run_yields_partial_result(store):
    """Cancel lands between checkpoints; the run stops with a partial
    result under CANCELLED — the path the daemon's DELETE endpoint uses."""
    submission = Submission(
        workload="cifar10",
        policy="default",
        configs=12,
        machines=2,
        stop_on_target=False,
        checkpoint_every=1,
    )
    record = store.submit(submission)
    first_checkpoint = threading.Event()
    proceed = threading.Event()

    def on_checkpoint(state):
        first_checkpoint.set()
        proceed.wait(timeout=30)

    worker = threading.Thread(
        target=lambda: executor.execute(
            store, record.id,
            on_checkpoint=on_checkpoint,
            poll_wall_seconds=0.0,
        )
    )
    worker.start()
    assert first_checkpoint.wait(timeout=60)
    store.request_cancel(record.id)
    proceed.set()
    worker.join(timeout=60)
    assert not worker.is_alive()
    final = store.get(record.id)
    assert final.status == CANCELLED
    assert final.result is not None
    # partial: nowhere near the full default-policy epoch count
    full = submission.configs * 120  # cifar10 max_epochs
    assert 0 < final.result["epochs_trained"] < full


def _live_submission(**overrides) -> Submission:
    fields = dict(
        workload="cifar10",
        policy="default",
        configs=2,
        machines=2,
        stop_on_target=False,
        live=True,
        time_scale=2e-5,
        checkpoint_every=5,
    )
    fields.update(overrides)
    return Submission(**fields)


def test_live_submission_trains_every_epoch(store):
    submission = _live_submission()
    final = executor.execute(store, store.submit(submission).id)
    assert final.status == COMPLETED
    assert final.result["epochs_trained"] == submission.configs * 120
    assert final.checkpoint["epochs_trained"] > 0


def test_live_cancellation_mid_run_yields_partial_result(store):
    """The threaded runtimes stop on the same store poll as the
    simulator: no helper thread outlives (or serves) the run."""
    # ~7 s of wall for the full run, so the cancel lands mid-flight.
    submission = _live_submission(time_scale=2e-3)
    record = store.submit(submission)

    def on_checkpoint(state):
        if not store.cancel_requested(record.id):
            store.request_cancel(record.id)

    final = executor.execute(
        store, record.id, on_checkpoint=on_checkpoint, poll_wall_seconds=0.0
    )
    assert final.status == CANCELLED
    full = submission.configs * 120
    assert 0 < final.result["epochs_trained"] < full
    assert not [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("cancel-monitor-")
    ]


def test_cluster_submission_completes(store):
    submission = _live_submission()
    final = executor.execute(
        store, store.submit(submission).id, cluster_workers=2
    )
    assert final.status == COMPLETED
    assert final.result["epochs_trained"] == submission.configs * 120
    assert final.result["machine_failures"] == 0


def test_resume_requires_interrupted_status(store, small_submission):
    record = store.submit(small_submission)
    with pytest.raises(ValueError, match="only interrupted"):
        executor.resume(store, record.id)


def test_resume_completes_an_interrupted_experiment(tmp_path, small_submission):
    """Claimed-then-crashed (no process kill): recover + resume finishes
    the run from the journaled configuration stream."""
    root = tmp_path / "runs"
    store = RunStore(root)
    record = store.submit(small_submission)
    store.claim_next_queued()
    # journal the minted configs the way a real run would, then "crash"
    workload = small_submission.build_workload()
    generator = small_submission.build_generator(workload)
    configs = [
        generator.create_job()[1] for _ in range(small_submission.configs)
    ]
    store.record_configs(record.id, configs)
    store.close()

    reopened = RunStore(root)
    assert reopened.recover_interrupted() == [record.id]
    final = executor.resume(reopened, record.id)
    assert final.status == COMPLETED
    assert final.result["epochs_trained"] > 0
    kinds = [event["kind"] for event in reopened.read_events(record.id)]
    assert "resumed" in kinds
    # the resumed run used the journaled configs, not fresh mints
    assert reopened.minted_configs(record.id) == configs


#: The ``submitted`` journal line repro 1.5 wrote for ``small_submission``
#: (hand-written; note the since-retired ``predict_workers`` key).
PRE_1_6_SUBMITTED = (
    '{"kind": "submitted", "wall_time": 1700000000.0, "submission": '
    '{"workload": "cifar10", "policy": "bandit", "generator": "random", '
    '"machines": 2, "configs": 6, "seed": 1, "gen_seed": null, '
    '"target": null, "tmax_hours": 48.0, "stop_on_target": true, '
    '"live": false, "time_scale": 0.001, "checkpoint_every": 5, '
    '"predict_workers": 1, "tenant": "default", "priority": 0, '
    '"deadline_hours": null, "budget_slot_hours": null}}'
)


def test_resume_over_pre_1_6_run_store_matches_fresh_run(
    tmp_path, small_submission
):
    """A daemon restarted over a 1.5 run store (journal line and sqlite
    row both carry ``predict_workers``) resumes to the fresh-run result."""
    root = tmp_path / "runs"
    store = RunStore(root)
    exp_id = "exp-0123456789ab"
    legacy = json.loads(PRE_1_6_SUBMITTED)["submission"]
    store.journal_path(exp_id).write_text(PRE_1_6_SUBMITTED + "\n")
    with store._connect() as conn:
        conn.execute(
            "INSERT INTO experiments"
            " (id, submission, status, created_at, tenant, priority)"
            " VALUES (?, ?, 'running', 0.0, 'default', 0)",
            (exp_id, json.dumps(legacy)),
        )
    store.close()

    reopened = RunStore(root)
    assert reopened.recover_interrupted() == [exp_id]
    resumed = executor.resume(reopened, exp_id)
    assert resumed.status == COMPLETED

    fresh_store = RunStore(tmp_path / "fresh")
    fresh = executor.execute(
        fresh_store, fresh_store.submit(small_submission).id
    )
    # Everything but the wall-clock span timings is bit-identical.
    resumed.result.pop("observability")
    fresh.result.pop("observability")
    assert resumed.result == fresh.result
    assert "predict_workers" not in resumed.result["spec"]


#: A run store written by repro 1.7.0: a 6-config POP experiment whose
#: process was killed (``os._exit``) at its eighth checkpoint, after 40
#: epochs.  Its journal holds the full per-epoch audit trail (a
#: ``pool_snapshot`` and a ``sap_decision`` per epoch) plus one
#: hand-written wrapped ``cluster_migration`` record; ``diagnose.md``
#: is ``repro diagnose`` of that journal.
RUN_STORE_1_7 = Path(__file__).parent.parent / "fixtures" / "run_store_1_7"


def test_resume_over_a_1_7_run_store_matches_fresh_run(tmp_path):
    root = tmp_path / "runs"
    shutil.copytree(RUN_STORE_1_7, root)
    store = RunStore(root)
    (exp_id,) = store.recover_interrupted()
    submission = store.get(exp_id).submission
    assert store.latest_checkpoint(exp_id)["epochs_trained"] == 40
    resumed = executor.resume(store, exp_id)
    assert resumed.status == COMPLETED
    marker = next(
        event for event in store.read_events(exp_id)
        if event["kind"] == "resumed"
    )
    assert marker["from_epoch"] == 40
    store.close()

    fresh_store = RunStore(tmp_path / "fresh")
    fresh = executor.execute(fresh_store, fresh_store.submit(submission).id)
    fresh_store.close()
    assert resumed.result["policy"] == "pop"
    # Equal but for the wall-clock span and fit timings.
    assert (
        resumed.result.pop("observability")["audit_events"]
        == fresh.result.pop("observability")["audit_events"]
    )
    assert resumed.result == fresh.result
