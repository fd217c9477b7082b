"""Tests for the durable run store (SQLite index + JSONL journal)."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.observability.exporters import encode_event
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


def test_claim_specific_is_exclusive(store, small_submission):
    record = store.submit(small_submission)
    claimed = store.claim_specific(record.id)
    assert claimed.id == record.id
    assert claimed.status == RUNNING
    assert store.claim_specific(record.id) is None


def test_mark_finished_records_result(store, small_submission):
    record = store.submit(small_submission)
    store.claim_specific(record.id)
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
    assert store.claim_specific(record.id) is None


def test_cancel_running_sets_flag_only(store, small_submission):
    record = store.submit(small_submission)
    store.claim_specific(record.id)
    assert not store.cancel_requested(record.id)
    updated = store.request_cancel(record.id)
    assert updated.status == RUNNING
    assert store.cancel_requested(record.id)


def test_cancel_terminal_raises(store, small_submission):
    record = store.submit(small_submission)
    store.claim_specific(record.id)
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
    assert store.get(record.id).checkpoint == {"epochs_trained": 11}
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
    store.claim_specific(running.id)
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


# ------------------------------------------------------- torn-line safety


def test_reader_never_sees_a_torn_line_while_an_appender_writes(
    store, small_submission
):
    """An appender thread against two reader threads on one store: the
    readers get only whole events, and their counts never go down.

    Lines past the 8 KiB write buffer reach the file in two writes
    (text, then newline), and a tiny switch interval hands a reader the
    GIL between them often enough that a reader decoding every line it
    finds fails within these ten rounds."""
    appended = 300
    errors, counts = [], []

    def run_round() -> None:
        record = store.submit(small_submission)
        done = threading.Event()

        def append() -> None:
            try:
                for n in range(appended):
                    store.append_event(record.id, "custom", n=n, pad="x" * 10000)
            finally:
                done.set()

        def read(seen) -> None:
            while not done.is_set():
                try:
                    events = store.read_events(record.id)
                except Exception as exc:  # the regression: a torn last line
                    errors.append(exc)
                    return
                if any(
                    event.get("kind") not in ("submitted", "custom")
                    for event in events
                ):
                    errors.append(events)
                    return
                seen.append(len(events))

        readers = [[], []]
        threads = [threading.Thread(target=append)] + [
            threading.Thread(target=read, args=(seen,)) for seen in readers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        counts.extend(readers)
        assert len(store.read_events(record.id)) == appended + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            run_round()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert all(seen == sorted(seen) for seen in counts)


def test_read_events_skips_a_hand_truncated_last_line(store, small_submission):
    record = store.submit(small_submission)
    store.append_event(record.id, "custom", n=1)
    store.close()
    with store.journal_path(record.id).open("a", encoding="utf-8") as handle:
        handle.write('{"kind":"custom","n":')
    events = store.read_events(record.id)
    assert [event["kind"] for event in events] == ["submitted", "custom"]
    assert store.read_events(record.id, offset=2) == []


# --------------------------------------------------- result and list view


def test_result_is_encoded_once_for_journal_and_index(store, small_submission):
    record = store.submit(small_submission)
    store.claim_specific(record.id)
    result = {"epochs_trained": 7, "curve": [0.1, 0.25], "name": "x"}
    store.mark_finished(record.id, COMPLETED, result=result)
    line = store.journal_path(record.id).read_text().splitlines()[-1]
    event = json.loads(line)
    # The line append_event would have written, byte for byte.
    assert line == encode_event(
        {"kind": "result", "wall_time": event["wall_time"], "result": result}
    )
    with store._connect() as conn:
        (column,) = conn.execute(
            "SELECT result FROM experiments WHERE id = ?", (record.id,)
        ).fetchone()
    assert line.endswith(f',"result":{column}}}')
    assert store.get(record.id).result == result


def test_list_skips_results_and_keeps_every_other_field(
    store, small_submission
):
    finished = store.submit(small_submission)
    store.claim_specific(finished.id)
    store.save_checkpoint(finished.id, {"epochs_trained": 5})
    store.mark_finished(finished.id, COMPLETED, result={"epochs_trained": 7})
    queued = store.submit(small_submission)
    listed = store.list_experiments()
    assert [entry.id for entry in listed] == [finished.id, queued.id]
    assert all(entry.result is None for entry in listed)
    assert [entry.to_dict(include_result=False) for entry in listed] == [
        store.get(entry.id).to_dict(include_result=False) for entry in listed
    ]
    assert store.get(finished.id).result == {"epochs_trained": 7}


def test_get_encoded_is_the_encoded_record_byte_for_byte(
    store, small_submission
):
    finished = store.submit(small_submission)
    store.claim_specific(finished.id)
    store.save_checkpoint(finished.id, {"epochs_trained": 5})
    result = {
        "epochs_trained": 7, "curve": [0.1, 1e-17, float("nan")],
        "name": "café \"x\"", "nested": {"a": None, "b": [True, 3]},
    }
    store.mark_finished(finished.id, COMPLETED, result=result)
    queued = store.submit(small_submission)
    for exp_id in (finished.id, queued.id):
        assert store.get_encoded(exp_id) == encode_event(
            store.get(exp_id).to_dict()
        )
    assert store.get_encoded("exp-missing") is None


def test_get_encoded_of_a_non_compact_result_decodes_equal(
    store, small_submission
):
    record = store.submit(small_submission)
    legacy = {"epochs_trained": 7, "curve": [0.1, 0.25], "name": "x"}
    with store._connect() as conn:
        conn.execute(
            "UPDATE experiments SET status = ?, result = ? WHERE id = ?",
            (COMPLETED, json.dumps(legacy, indent=1), record.id),
        )
    expected = store.get(record.id).to_dict()
    assert expected["result"] == legacy
    assert json.loads(store.get_encoded(record.id)) == expected


def test_get_serves_a_list_form_timeline_as_change_points(
    store, small_submission
):
    """A result stored with the per-sample list of repro 1.5–1.8 is
    returned in the change-point form; the stored text is not rewritten,
    and ``get_encoded`` still serves it as stored."""
    record = store.submit(small_submission)
    samples = [
        {"timestamp": t, "promising": 0, "running": r, "active": 4,
         "promising_slots": 0}
        for t, r in ((0.0, 2), (5.0, 2), (9.5, 1), (12.0, 2))
    ]
    store.claim_specific(record.id)
    store.mark_finished(
        record.id, COMPLETED, result={"epochs_trained": 4,
                                      "pool_timeline": samples},
    )
    assert store.get(record.id).result["pool_timeline"] == {
        "timestamps": [0.0, 5.0, 9.5, 12.0],
        "runs": [[0, 0, 2, 4, 0], [2, 0, 1, 4, 0], [3, 0, 2, 4, 0]],
    }
    served = json.loads(store.get_encoded(record.id))
    assert served["result"]["pool_timeline"] == samples


def test_status_reads_the_status_alone(store, small_submission):
    record = store.submit(small_submission)
    assert store.status(record.id) == QUEUED
    store.claim_specific(record.id)
    assert store.status(record.id) == RUNNING
    assert store.status("exp-missing") is None


# ------------------------------------------------- connections and WAL


def test_store_runs_in_wal_mode_and_close_checkpoints(store, small_submission):
    with store._connect() as conn:
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
    assert mode == "wal"
    record = store.submit(small_submission)
    store.save_checkpoint(record.id, {"epochs_trained": 3})
    wal = store.db_path.with_name("store.db-wal")
    assert wal.stat().st_size > 0
    store.close()
    assert not wal.exists() or wal.stat().st_size == 0
    # Still usable after close: the next call reopens.
    assert store.get(record.id).checkpoint == {"epochs_trained": 3}


def test_connections_are_per_thread_and_reused(store):
    mine = store._connect()
    assert store._connect() is mine
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(store._connect()))
    thread.start()
    thread.join(timeout=60)
    assert theirs[0] is not mine


# ---------------------------------------------------------- status waits


def test_wait_for_status_change_returns_the_new_status(store, small_submission):
    record = store.submit(small_submission)
    store.claim_specific(record.id)
    seen = []
    waiter = threading.Thread(
        target=lambda: seen.append(
            store.wait_for_status_change(record.id, RUNNING, timeout=60.0)
        ),
        daemon=True,
    )
    waiter.start()
    store.mark_finished(record.id, COMPLETED, result={"epochs_trained": 1})
    # Half the wait's own timeout: only the notification can end it.
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert seen[0] == COMPLETED


def test_wait_for_status_change_times_out_and_handles_unknown_ids(
    store, small_submission
):
    record = store.submit(small_submission)
    assert store.wait_for_status_change(record.id, QUEUED, 0.0) == QUEUED
    assert store.wait_for_status_change("exp-missing", QUEUED, 60.0) is None


def test_wait_for_status_change_never_decodes(
    store, small_submission, monkeypatch
):
    """Every wake-up, the last included, reads the status alone: the
    record is never decoded."""
    record = store.submit(small_submission)
    decodes, woken = [], threading.Event()
    real_decode, real_status = RunStore._decode, RunStore.status

    def counting_decode(row, with_result=True):
        decodes.append(threading.current_thread())
        return real_decode(row, with_result)

    def noting_status(self, exp_id):
        woken.set()
        return real_status(self, exp_id)

    monkeypatch.setattr(RunStore, "_decode", staticmethod(counting_decode))
    monkeypatch.setattr(RunStore, "status", noting_status)
    seen = []
    waiter = threading.Thread(
        target=lambda: seen.append(
            store.wait_for_status_change(record.id, QUEUED, timeout=60.0)
        ),
        daemon=True,
    )
    waiter.start()
    for _ in range(5):  # spurious wake-ups: nothing changed
        assert woken.wait(30)
        woken.clear()
        store._status_written()
    assert woken.wait(30)
    store.claim_specific(record.id)
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert seen[0] == RUNNING
    assert decodes.count(waiter) == 0


def test_release_waiters_frees_a_blocked_wait(store, small_submission):
    record = store.submit(small_submission)
    seen = []
    waiter = threading.Thread(
        target=lambda: seen.append(
            store.wait_for_status_change(record.id, QUEUED, timeout=60.0)
        ),
        daemon=True,
    )
    waiter.start()
    store.release_waiters()
    waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert seen[0] == QUEUED
