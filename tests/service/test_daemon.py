"""Integration tests for the daemon's HTTP API via the client."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from repro.observability.exporters import encode_event
from repro.service import daemon
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ExperimentService
from repro.service.store import COMPLETED, RunStore


@pytest.fixture()
def service(tmp_path):
    svc = ExperimentService(tmp_path / "runs", port=0, workers=1)
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


@pytest.fixture()
def client(service) -> ServiceClient:
    return ServiceClient(service.url)


def test_health_reports_version(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["version"]


def test_submit_watch_events_metrics_roundtrip(
    service, client, small_submission, held_runs
):
    """The acceptance-criteria loop: submit -> watch -> result entirely
    over the HTTP API, with /metrics reflecting the run.  The run is
    held at its first checkpoint boundary until the watch has seen it,
    since a small run can finish before the watch's first read."""
    record = client.submit(small_submission.to_dict())
    assert record["status"] == "queued"

    updates = []

    def on_update(update):
        updates.append(update)
        held_runs.release()

    final = client.watch(
        record["id"], poll_seconds=0.1, timeout=300, on_update=on_update,
    )
    assert final["status"] == "completed"
    assert final["result"]["epochs_trained"] > 0
    assert final["checkpoint"]["epochs_trained"] > 0
    assert len(updates) >= 2  # at least queued/running + terminal

    listed = client.list_experiments()
    assert [entry["id"] for entry in listed] == [record["id"]]
    assert "result" not in listed[0]  # list view omits the heavy payload

    events = client.events(record["id"])
    kinds = {event["kind"] for event in events}
    assert {"submitted", "configs", "checkpoint", "audit", "result"} <= kinds
    offset = len(events) - 1
    assert len(client.events(record["id"], offset=offset)) == 1

    metrics = client.metrics_text()
    assert "service_experiments_submitted_total 1" in metrics
    assert 'service_experiments_finished_total{status="completed"} 1' in metrics
    epochs_line = next(
        line for line in metrics.splitlines()
        if line.startswith("service_epochs_trained_total")
    )
    assert float(epochs_line.split()[-1]) == final["result"]["epochs_trained"]


def test_a_completed_run_serves_its_final_checkpoint(client, small_submission):
    """The last checkpoint persisted is the run's final state, also when
    the run ends between two boundaries (280 epochs, one every 3)."""
    payload = {**small_submission.to_dict(), "checkpoint_every": 3}
    exp_id = client.submit(payload)["id"]
    client.watch(exp_id, poll_seconds=0.05, timeout=300)
    served = client.get(exp_id)
    assert served["status"] == "completed"
    assert served["result"]["epochs_trained"] % 3
    assert (
        served["checkpoint"]["epochs_trained"]
        == served["result"]["epochs_trained"]
    )


def test_cancel_queued_experiment(
    service, client, small_submission, held_runs
):
    """With a single worker busy, a second submission stays queued and
    cancels deterministically through DELETE."""
    first = client.submit(small_submission.to_dict())
    second = client.submit(small_submission.to_dict())
    cancelled = client.cancel(second["id"])
    assert cancelled["status"] in ("cancelled", "running")
    held_runs.release()
    final_second = client.watch(second["id"], poll_seconds=0.1, timeout=300)
    assert final_second["status"] == "cancelled"
    # the busy worker's experiment still completes
    assert (
        client.watch(first["id"], poll_seconds=0.1, timeout=300)["status"]
        == "completed"
    )


def test_unknown_experiment_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client.get("exp-does-not-exist")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.events("exp-does-not-exist")
    assert excinfo.value.status == 404


def test_invalid_submission_is_400(client):
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"workload": "nonsense"})
    assert excinfo.value.status == 400
    assert "unknown workload" in str(excinfo.value)
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"bogus_field": 1})
    assert excinfo.value.status == 400


def test_unknown_route_is_404(client):
    with pytest.raises(ServiceError) as excinfo:
        client._request_json("GET", "/nope")
    assert excinfo.value.status == 404


def test_unreachable_daemon_raises_service_error():
    client = ServiceClient("http://127.0.0.1:1", timeout=1.0)
    with pytest.raises(ServiceError) as excinfo:
        client.health()
    assert excinfo.value.status == 0


def test_telemetry_endpoint_tracks_runs(service, client, small_submission):
    # Before any run: no experiment nodes — only the daemon's own
    # registry, self-ingested as node "service" (broker gauges for
    # `repro top`).
    empty = client.telemetry()
    assert set(empty["nodes"]) <= {"service"}

    record = client.submit(small_submission.to_dict())
    client.watch(record["id"], poll_seconds=0.1, timeout=300)

    telemetry = client.telemetry()
    # The executor ingests the run's registry under its experiment id.
    node = telemetry["nodes"][record["id"]]
    families = node["metrics"]
    epochs = sum(
        s["value"] for s in families["scheduler_epochs_total"]["samples"]
    )
    assert epochs > 0
    assert node["meta"]["status"] == "running"
    assert any(
        sample["node"] == record["id"] for sample in telemetry["history"]
    )

    # /metrics is the merged export: service-level families unlabelled,
    # the run's families tagged with its experiment id.
    metrics = client.metrics_text()
    assert "service_experiments_submitted_total 1" in metrics
    assert f'scheduler_epochs_total{{node="{record["id"]}"}}' in metrics


def test_list_view_is_the_full_records_without_results(
    service, client, small_submission
):
    ids = []
    for _ in range(2):
        ids.append(client.submit(small_submission.to_dict())["id"])
        client.watch(ids[-1], poll_seconds=0.1, timeout=300)
    expected = [
        service.store.get(exp_id).to_dict(include_result=False) for exp_id in ids
    ]
    assert client.list_experiments() == json.loads(json.dumps(expected))


def test_record_body_is_the_encoded_record_byte_for_byte(
    service, client, small_submission
):
    """The route splices the stored result text instead of decoding and
    re-encoding it; the bytes are what encoding the record gives."""
    exp_id = client.submit(small_submission.to_dict())["id"]
    client.watch(exp_id, poll_seconds=0.1, timeout=300)
    record = service.store.get(exp_id)
    assert record.result["epochs_trained"] > 0
    expected = (encode_event(record.to_dict()) + "\n").encode("utf-8")
    assert client._request("GET", f"/experiments/{exp_id}") == expected
    assert client._request("GET", f"/experiments/{exp_id}?wait=1") == expected


# ----------------------------------------------------------- worker wake-up


def test_submission_wakes_an_idle_worker(tmp_path, monkeypatch, small_submission):
    """With the fallback tick at an hour, only the wake-up can get a
    submission claimed within the watch's minute."""
    monkeypatch.setattr(daemon, "CLAIM_TICK_SECONDS", 3600.0)
    svc = ExperimentService(tmp_path / "runs", port=0, workers=1)
    svc.start()
    try:
        client = ServiceClient(svc.url)
        for _ in range(2):  # the second arrives at an idle worker
            record = client.submit(small_submission.to_dict())
            final = client.watch(record["id"], poll_seconds=0.1, timeout=60)
            assert final["status"] == "completed"
    finally:
        svc.stop()


# ---------------------------------------------------------------- long-poll


@pytest.fixture()
def idle(tmp_path, monkeypatch, small_submission):
    """A daemon whose workers never claim (statuses move only when the
    test moves them), one queued experiment, and a record of every
    long-poll that reached the store's wait."""
    monkeypatch.setattr(
        ExperimentService, "_worker_loop", lambda self: self._stop.wait()
    )
    waits, entered = [], threading.Event()
    real_wait = RunStore.wait_for_status_change

    def recorded_wait(self, *args, **kwargs):
        waits.append(args)
        entered.set()
        return real_wait(self, *args, **kwargs)

    monkeypatch.setattr(RunStore, "wait_for_status_change", recorded_wait)
    svc = ExperimentService(tmp_path / "runs", port=0, workers=1)
    svc.start()
    client = ServiceClient(svc.url)
    try:
        yield SimpleNamespace(
            service=svc, store=svc.store, client=client, waits=waits,
            entered=entered,
            exp_id=client.submit(small_submission.to_dict())["id"],
        )
    finally:
        svc.stop()


def _long_poll(idle, wait):
    answers = []
    thread = threading.Thread(
        target=lambda: answers.append(idle.client.get(idle.exp_id, wait=wait)),
        daemon=True,
    )
    thread.start()
    assert idle.entered.wait(60)
    return thread, answers


def test_long_poll_on_a_terminal_experiment_answers_at_once(idle):
    idle.store.claim_specific(idle.exp_id)
    idle.store.mark_finished(idle.exp_id, COMPLETED, result={"epochs_trained": 3})
    record = idle.client.get(idle.exp_id, wait=daemon.MAX_WAIT_SECONDS)
    assert record["status"] == "completed"
    assert idle.waits == []


def test_long_poll_returns_the_terminal_record_of_a_running_experiment(idle):
    idle.store.claim_specific(idle.exp_id)
    thread, answers = _long_poll(idle, daemon.MAX_WAIT_SECONDS)
    idle.store.mark_finished(idle.exp_id, COMPLETED, result={"epochs_trained": 3})
    thread.join(timeout=60)
    assert not thread.is_alive()
    # Had the wait run out instead, the answer would still say running.
    assert answers[0]["status"] == "completed"
    assert answers[0]["result"] == {"epochs_trained": 3}


@pytest.mark.parametrize("wait", ["soon", "-1", "nan", "inf"])
def test_bad_wait_is_400(idle, wait):
    with pytest.raises(ServiceError) as info:
        idle.client._request_json("GET", f"/experiments/{idle.exp_id}?wait={wait}")
    assert info.value.status == 400
    assert idle.waits == []


def test_stop_releases_blocked_long_polls(idle, monkeypatch):
    monkeypatch.setattr(daemon, "MAX_WAIT_SECONDS", 3600.0)
    thread, answers = _long_poll(idle, 3600.0)
    idle.service.stop()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert answers[0]["status"] == "queued"


def test_events_route_serves_a_journal_with_a_torn_last_line(idle):
    with idle.store.journal_path(idle.exp_id).open("a", encoding="utf-8") as out:
        out.write('{"kind":"audit","rec')
    events = idle.client.events(idle.exp_id)
    assert [event["kind"] for event in events] == ["submitted"]


def test_watch_does_not_busy_loop_against_a_daemon_that_ignores_wait():
    """A pre-1.7 daemon answers at once; watch paces itself instead."""
    paths = []

    class OldDaemon(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            paths.append(self.path)
            status = "completed" if len(paths) >= 8 else "running"
            body = json.dumps(
                {"id": "exp-old", "status": status, "checkpoint": None}
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), OldDaemon)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    poll = 0.05
    try:
        started = time.monotonic()
        final = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}"
        ).watch("exp-old", poll_seconds=poll, timeout=60)
        elapsed = time.monotonic() - started
    finally:
        server.shutdown()
        server.server_close()
    assert final["status"] == "completed"
    assert "wait=" in paths[-1]
    assert len(paths) <= elapsed / poll + 2


def test_stop_without_start_returns(tmp_path):
    """stop() must not wait for an HTTP loop that start() never ran."""
    svc = ExperimentService(tmp_path / "runs", port=0)
    stopper = threading.Thread(target=svc.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=10)
    assert not stopper.is_alive()
