"""Multi-tenant broker behaviour through the daemon's HTTP API:
quota-bounded concurrency, priority/FIFO dispatch, 429 + Retry-After
with client backoff, queue-depth backpressure, and preempt-to-resume
determinism."""

from __future__ import annotations

import time

import pytest

from repro.service import executor
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ExperimentService
from repro.service.store import COMPLETED, RunStore
from repro.service.submission import Submission


def small_payload(tenant="default", priority=0, seed=1, **overrides):
    payload = {
        "workload": "cifar10",
        "policy": "bandit",
        "configs": 6,
        "machines": 2,
        "seed": seed,
        "checkpoint_every": 5,
        "tenant": tenant,
        "priority": priority,
    }
    payload.update(overrides)
    return payload


def wait_all(client, ids, timeout=300):
    return {
        exp_id: client.watch(exp_id, poll_seconds=0.1, timeout=timeout)
        for exp_id in ids
    }


def wait_running(service, exp_id, timeout=60):
    deadline = time.monotonic() + timeout
    while service.store.get(exp_id).status != "running":
        assert time.monotonic() < deadline, f"{exp_id} never ran"
        time.sleep(0.01)


def wait_preempted(service, exp_id, timeout=60):
    """Until the broker has fully preempted ``exp_id``.  A claimed
    experiment is RUNNING before its worker registers it with the
    broker, so RUNNING alone does not mean the rebalance has run."""
    deadline = time.monotonic() + timeout
    audit = service._broker_recorder.audit
    while not audit.query("broker_preempt", exp_id=exp_id):
        assert time.monotonic() < deadline, f"{exp_id} was never preempted"
        time.sleep(0.01)


def wait_terminal(service, exp_id, timeout=300):
    """Unlike ``client.watch`` this polls *through* the transient
    INTERRUPTED status a broker preemption parks a run at."""
    deadline = time.monotonic() + timeout
    while True:
        record = service.store.get(exp_id)
        if record.status in ("completed", "failed", "cancelled"):
            return record
        assert time.monotonic() < deadline, (
            f"{exp_id} stuck at {record.status}"
        )
        time.sleep(0.05)


def running_by_tenant(service):
    counts = {}
    for row in service.store.queue_entries():
        if row["status"] == "running":
            counts[row["tenant"]] = counts.get(row["tenant"], 0) + 1
    return counts


def test_concurrent_tenants_respect_running_quota(tmp_path, held_runs):
    """Two tenants, three workers, a 1-running quota each: the daemon
    never runs two of one tenant's experiments at once, yet everything
    completes."""
    service = ExperimentService(
        tmp_path / "runs", port=0, workers=3,
        tenant_quotas="alice=1,bob=1",
    )
    service.start()
    try:
        client = ServiceClient(service.url)
        ids = [
            client.submit(small_payload(tenant=tenant, seed=seed))["id"]
            for tenant, seed in [
                ("alice", 1), ("alice", 2), ("bob", 3), ("bob", 4),
            ]
        ]
        deadline = time.monotonic() + 300
        observed_parallel = False
        while True:
            counts = running_by_tenant(service)
            assert all(count <= 1 for count in counts.values()), counts
            if len([c for c in counts.values() if c == 1]) == 2:
                observed_parallel = True
                held_runs.release()
            records = [service.store.get(exp_id) for exp_id in ids]
            if all(r.status == COMPLETED for r in records):
                break
            assert time.monotonic() < deadline, "experiments stalled"
            time.sleep(0.02)
        # The quota throttled within tenants, not across them.
        assert observed_parallel, "alice and bob never ran concurrently"
    finally:
        service.stop()


def test_dispatch_is_priority_then_fifo(tmp_path, held_runs):
    service = ExperimentService(tmp_path / "runs", port=0, workers=1)
    service.start()
    try:
        client = ServiceClient(service.url)
        blocker = client.submit(small_payload(seed=9))["id"]
        wait_running(service, blocker)
        # While the single worker is busy, queue three more: the
        # high-priority one jumps the line, equal priorities stay FIFO.
        a = client.submit(small_payload(priority=0, seed=1))["id"]
        b = client.submit(small_payload(priority=5, seed=2))["id"]
        c = client.submit(small_payload(priority=0, seed=3))["id"]
        held_runs.release()
        finals = wait_all(client, [blocker, a, b, c])
        assert all(f["status"] == "completed" for f in finals.values())
        started = {exp_id: finals[exp_id]["started_at"] for exp_id in finals}
        assert started[blocker] < started[b] < started[a] < started[c]
    finally:
        service.stop()


def test_rate_limited_submission_gets_429_and_client_retries(tmp_path):
    service = ExperimentService(
        tmp_path / "runs", port=0, workers=1,
        rate_limit=600.0,  # 10 tokens/second...
        rate_burst=1,      # ...but a burst of one: back-to-back trips it
    )
    service.start()
    try:
        # A non-retrying client observes the raw 429 + Retry-After.
        strict = ServiceClient(service.url, max_retries=0)
        strict.submit(small_payload(seed=1))
        with pytest.raises(ServiceError) as info:
            strict.submit(small_payload(seed=2))
        assert info.value.status == 429
        assert info.value.retry_after is not None
        assert info.value.retry_after >= 1.0

        # The default client backs off (honouring Retry-After) and
        # succeeds on a later attempt.
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        patient = ServiceClient(
            service.url, max_retries=4, sleep=fake_sleep
        )
        record = patient.submit(small_payload(seed=3))
        assert record["status"] == "queued"
        assert patient.retries >= 1
        assert sleeps and sleeps[0] >= 1.0  # floored at Retry-After
    finally:
        service.stop()


def test_queue_depth_backpressure_is_503(tmp_path, held_runs):
    service = ExperimentService(
        tmp_path / "runs", port=0, workers=1, max_queue_depth=1,
    )
    service.start()
    try:
        client = ServiceClient(service.url, max_retries=0)
        blocker = client.submit(small_payload(seed=9))["id"]
        wait_running(service, blocker)
        client.submit(small_payload(seed=1))  # fills the queue
        with pytest.raises(ServiceError) as info:
            client.submit(small_payload(seed=2))
        assert info.value.status == 503
        assert info.value.retry_after == pytest.approx(5.0)
        held_runs.release()
    finally:
        service.stop()


def test_preempted_experiment_resumes_to_identical_result(
    tmp_path, held_runs
):
    """A higher-priority arrival fully preempts the only slot's holder;
    the victim auto-requeues, resumes, and still produces the same
    result as an uninterrupted run of the same submission."""
    victim_payload = small_payload(
        tenant="alice", seed=1, machines=1, configs=12,
        checkpoint_every=2,
    )
    service = ExperimentService(
        tmp_path / "runs", port=0, workers=2, slots=1,
    )
    service.start()
    try:
        client = ServiceClient(service.url)
        victim = client.submit(victim_payload)["id"]
        wait_running(service, victim)
        held_runs.wait_held()  # the victim holds the only slot
        vip = client.submit(small_payload(
            tenant="bob", priority=10, seed=2, machines=1, configs=4,
            checkpoint_every=2,
        ))["id"]
        wait_running(service, vip)  # claimed, waiting for the slot
        # Only then release the victim: released earlier, it can pass its
        # last boundary before the broker revokes its slot, and finish.
        wait_preempted(service, victim)
        held_runs.release()
        assert wait_terminal(service, vip).status == COMPLETED
        victim_record = wait_terminal(service, victim)
        assert victim_record.status == COMPLETED
        preempts = [
            record for record in service._broker_recorder.audit.records
            if record.kind == "broker_preempt"
        ]
        assert preempts, "the broker never preempted the victim"
        assert preempts[0].data["exp_id"] == victim
        assert preempts[0].data["reason"] == "priority"
        kinds = [e["kind"] for e in service.store.read_events(victim)]
        assert "resumed" in kinds
        victim_result = victim_record.result
    finally:
        service.stop()

    # Uninterrupted baseline: same submission, fresh store, no broker.
    baseline_store = RunStore(tmp_path / "baseline")
    record = baseline_store.submit(Submission.from_dict(victim_payload))
    baseline = executor.execute(baseline_store, record.id)
    assert baseline.status == COMPLETED
    for key in (
        "best_job_id",
        "best_metric",
        "epochs_trained",
        "finished_at",
        "reached_target",
    ):
        assert victim_result[key] == baseline.result[key], key
    baseline_store.close()


def test_broker_status_endpoint(tmp_path, held_runs):
    """The run is held at its first checkpoint boundary while the
    status is read: a small run can finish before the next request,
    and a finished run has left the tenant table."""
    service = ExperimentService(
        tmp_path / "runs", port=0, workers=1, slots=4,
        tenant_quotas="alice=2",
    )
    service.start()
    try:
        client = ServiceClient(service.url)
        status = client.broker_status()
        assert status["pool"]["total_slots"] == 4
        assert status["admission"]["quotas"]["alice"]["max_running"] == 2
        assert status["tenants"] == {}
        exp_id = client.submit(small_payload(tenant="alice"))["id"]
        status = client.broker_status()
        assert status["tenants"]["alice"]["queued"] \
            + status["tenants"]["alice"]["running"] == 1
        held_runs.release()
        client.watch(exp_id, poll_seconds=0.1, timeout=300)
    finally:
        service.stop()
