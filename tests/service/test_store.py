"""Tests for the durable run store (SQLite index + JSONL journal)."""

from __future__ import annotations

import pytest

from repro.service.store import (
    CANCELLED,
    COMPLETED,
    FAILED,
    INTERRUPTED,
    QUEUED,
    RUNNING,
    RunStore,
)
from repro.service.submission import Submission


def test_submit_creates_queued_record_and_journal(store, small_submission):
    record = store.submit(small_submission)
    assert record.status == QUEUED
    assert record.submission["workload"] == "cifar10"
    fetched = store.get(record.id)
    assert fetched is not None
    assert fetched.status == QUEUED
    assert fetched.submission == small_submission.to_dict()
    events = store.read_events(record.id)
    assert events[0]["kind"] == "submitted"
    assert events[0]["submission"]["policy"] == "bandit"


def test_submit_accepts_plain_dict(store):
    record = store.submit({"workload": "mlp", "configs": 3})
    assert store.get(record.id).submission["workload"] == "mlp"


def test_submit_accepts_and_drops_retired_predict_workers(store):
    """Pre-1.6 clients still send it; the pool it sized is gone."""
    record = store.submit({"workload": "mlp", "predict_workers": 4})
    assert "predict_workers" not in store.get(record.id).submission
    (event,) = store.read_events(record.id)
    assert "predict_workers" not in event["submission"]


def test_submit_rejects_unknown_fields(store):
    with pytest.raises(ValueError, match="unknown submission fields"):
        store.submit({"workloadd": "mlp"})


def test_submission_rejects_unknown_component_names():
    with pytest.raises(ValueError, match="unknown workload"):
        Submission(workload="nonsense")
    with pytest.raises(ValueError, match="unknown policy"):
        Submission(policy="nonsense")


def test_claim_next_queued_is_fifo_and_exclusive(store, small_submission):
    first = store.submit(small_submission)
    second = store.submit(small_submission)
    claimed = store.claim_next_queued()
    assert claimed.id == first.id
    assert claimed.status == RUNNING
    assert store.claim_next_queued().id == second.id
    assert store.claim_next_queued() is None


def test_mark_finished_records_result(store, small_submission):
    record = store.submit(small_submission)
    store.claim_next_queued()
    store.mark_finished(record.id, COMPLETED, result={"epochs_trained": 7})
    final = store.get(record.id)
    assert final.status == COMPLETED
    assert final.result == {"epochs_trained": 7}
    assert final.finished_at is not None
    kinds = [event["kind"] for event in store.read_events(record.id)]
    assert kinds[-2:] == ["status", "result"] or "result" in kinds


def test_mark_finished_rejects_non_terminal_status(store, small_submission):
    record = store.submit(small_submission)
    with pytest.raises(ValueError, match="not a terminal status"):
        store.mark_finished(record.id, RUNNING)


def test_cancel_queued_is_immediate(store, small_submission):
    record = store.submit(small_submission)
    cancelled = store.request_cancel(record.id)
    assert cancelled.status == CANCELLED
    # no worker can claim it afterwards
    assert store.claim_next_queued() is None


def test_cancel_running_sets_flag_only(store, small_submission):
    record = store.submit(small_submission)
    store.claim_next_queued()
    assert not store.cancel_requested(record.id)
    updated = store.request_cancel(record.id)
    assert updated.status == RUNNING
    assert store.cancel_requested(record.id)


def test_cancel_terminal_raises(store, small_submission):
    record = store.submit(small_submission)
    store.claim_next_queued()
    store.mark_finished(record.id, FAILED, error="boom")
    with pytest.raises(ValueError, match="already failed"):
        store.request_cancel(record.id)


def test_cancel_unknown_raises_keyerror(store):
    with pytest.raises(KeyError):
        store.request_cancel("exp-missing")


def test_checkpoint_roundtrip_and_journal(store, small_submission):
    record = store.submit(small_submission)
    store.save_checkpoint(record.id, {"epochs_trained": 5})
    store.save_checkpoint(record.id, {"epochs_trained": 11})
    assert store.latest_checkpoint(record.id) == {"epochs_trained": 11}
    states = [
        event["state"]["epochs_trained"]
        for event in store.read_events(record.id)
        if event["kind"] == "checkpoint"
    ]
    assert states == [5, 11]


def test_read_events_offset(store, small_submission):
    record = store.submit(small_submission)
    store.append_event(record.id, "custom", n=1)
    store.append_event(record.id, "custom", n=2)
    all_events = store.read_events(record.id)
    assert store.read_events(record.id, offset=len(all_events) - 1)[0]["n"] == 2


def test_minted_configs_roundtrip(store, small_submission):
    record = store.submit(small_submission)
    assert store.minted_configs(record.id) is None
    configs = [{"lr": 0.1}, {"lr": 0.2}]
    store.record_configs(record.id, configs)
    assert store.minted_configs(record.id) == configs


def test_recover_interrupted_flips_stale_running(store, small_submission):
    running = store.submit(small_submission)
    queued = store.submit(small_submission)
    store.claim_next_queued()
    assert store.recover_interrupted() == [running.id]
    assert store.get(running.id).status == INTERRUPTED
    assert store.get(queued.id).status == QUEUED
    # idempotent
    assert store.recover_interrupted() == []


def test_store_persists_across_reopen(tmp_path, small_submission):
    first = RunStore(tmp_path / "runs")
    record = first.submit(small_submission)
    first.save_checkpoint(record.id, {"epochs_trained": 3})
    first.close()
    second = RunStore(tmp_path / "runs")
    reloaded = second.get(record.id)
    assert reloaded is not None
    assert reloaded.checkpoint == {"epochs_trained": 3}
    assert [e["kind"] for e in second.read_events(record.id)][0] == "submitted"


def test_journal_exporter_wraps_audit_events(store, small_submission):
    record = store.submit(small_submission)
    exporter = store.journal_exporter(record.id)
    exporter.export({"kind": "sap_decision", "job_id": "job-0001"})
    assert exporter.events_written == 1
    audit = [
        event for event in store.read_events(record.id)
        if event["kind"] == "audit"
    ]
    assert audit[0]["record"]["kind"] == "sap_decision"
