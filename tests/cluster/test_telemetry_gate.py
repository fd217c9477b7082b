"""Workers record and ship telemetry only for a head that aggregates it,
and what they ship leaves them."""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.analysis.experiments import standard_configs
from repro.cluster import run_cluster, transport
from repro.cluster.transport import TELEMETRY, NodeFailure
from repro.cluster.worker import RPC, TelemetryShipper
from repro.framework.experiment import ExperimentSpec
from repro.observability import Recorder, TelemetryAggregator
from repro.policies.default import DefaultPolicy
from repro.sim.runner import run_simulation

N_CONFIGS = 4
SPEC = ExperimentSpec(
    num_machines=2, num_configs=N_CONFIGS, seed=3, stop_on_target=False
)


@pytest.fixture
def wire(monkeypatch):
    """Every frame the head sends and every frame it reads."""
    sent, received = [], []
    real_send, real_recv = transport.send_frame, transport.recv_frame

    def send_frame(sock, document):
        sent.append(document)
        real_send(sock, document)

    def recv_frame(sock):
        frame = real_recv(sock)
        if frame is not None:
            received.append(frame)
        return frame

    monkeypatch.setattr(transport, "send_frame", send_frame)
    monkeypatch.setattr(transport, "recv_frame", recv_frame)
    return sent, received


def run_default(workload, **kwargs):
    configs = standard_configs(workload, N_CONFIGS)
    reference = run_simulation(
        workload, DefaultPolicy(), configs=configs, spec=replace(SPEC, tmax=1e9)
    )
    result = run_cluster(
        workload,
        DefaultPolicy(),
        configs=configs,
        spec=SPEC,
        time_scale=1e-6,
        heartbeat_interval=0.05,
        telemetry_interval=0.05,
        **kwargs,
    )
    assert result.machine_failures == 0
    assert result.epochs_trained == reference.epochs_trained
    assert result.best_metric == reference.best_metric
    return result


def string_keyed(value) -> bool:
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and string_keyed(item)
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return all(string_keyed(item) for item in value)
    return True


def test_a_head_without_aggregator_gets_no_telemetry_and_sends_no_trace(
    cifar10_workload, wire
):
    sent, received = wire
    run_default(cifar10_workload)
    rpcs = [frame for frame in sent if frame["kind"] == RPC]
    assert len(rpcs) > N_CONFIGS
    assert not [frame for frame in rpcs if "trace" in frame]
    assert not [frame for frame in received if frame["kind"] == TELEMETRY]


def test_a_head_with_aggregator_merges_every_node(cifar10_workload, wire):
    sent, received = wire
    aggregator = TelemetryAggregator()
    run_default(cifar10_workload, aggregator=aggregator)
    # No recorder, so the head itself has nothing to fold in.
    assert set(aggregator.node_ids) == {"machine-00", "machine-01"}
    for node in ("machine-00", "machine-01"):
        assert "worker_up" in aggregator.node(node)["metrics"]
        assert aggregator.node(node)["spans_received"] > 0
    assert [frame for frame in received if frame["kind"] == TELEMETRY]
    rpcs = [frame for frame in sent if frame["kind"] == RPC]
    assert rpcs and all("clock" in frame["trace"] for frame in rpcs)
    # The codec writes str keys byte-for-byte as before; every frame the
    # head sends has only those.
    assert all(string_keyed(frame) for frame in sent)


def test_a_recorder_alone_still_turns_worker_telemetry_on(cifar10_workload, wire):
    _, received = wire
    run_default(cifar10_workload, recorder=Recorder())
    assert [frame for frame in received if frame["kind"] == TELEMETRY]


# ------------------------------------------------------------------ shipper


class FakeEndpoint:
    machine_id = "machine-00"

    def __init__(self) -> None:
        self.batches = []
        self.down = False

    def send(self, topic, kind, payload, sender=None, trace=None):
        if self.down:
            raise NodeFailure(self.machine_id, "link down")
        self.batches.append(payload)

    def shipped(self, key="spans"):
        return [
            event["attributes"]["epoch"] if key == "spans" else event["data"]["epoch"]
            for batch in self.batches
            for event in batch[key]
        ]


def train(recorder, epochs):
    for epoch in epochs:
        with recorder.tracer.span("worker.train_epoch", epoch=epoch):
            pass
        recorder.audit.record("worker_epoch", epoch=epoch)


def test_shipping_continues_past_max_spans():
    recorder = Recorder(trace=True)
    recorder.tracer.max_spans = 3
    endpoint = FakeEndpoint()
    shipper = TelemetryShipper(endpoint, recorder)
    for start in range(0, 12, 3):
        train(recorder, range(start, start + 3))
        assert shipper.ship()
        assert recorder.tracer.spans == [] and recorder.audit.records == []
    assert endpoint.shipped("spans") == list(range(12))
    assert endpoint.shipped("audit") == list(range(12))
    assert [batch["seq"] for batch in endpoint.batches] == [0, 1, 2, 3]


def test_a_failed_send_drops_nothing_and_the_final_flush_ships_the_rest():
    recorder = Recorder(trace=True)
    endpoint = FakeEndpoint()
    shipper = TelemetryShipper(endpoint, recorder)
    endpoint.down = True
    train(recorder, range(2))
    assert not shipper.ship()
    assert len(recorder.tracer.spans) == 2 and len(recorder.audit.records) == 2
    endpoint.down = False
    assert shipper.ship()
    train(recorder, range(2, 3))
    shipper.stop(flush=True)
    assert endpoint.shipped("spans") == [0, 1, 2]
    assert endpoint.shipped("audit") == [0, 1, 2]
    assert recorder.tracer.spans == []


def test_concurrent_shipping_loses_and_repeats_nothing():
    recorder = Recorder(trace=True)
    endpoint = FakeEndpoint()
    shipper = TelemetryShipper(endpoint, recorder, interval=0.0005)
    stop = threading.Event()

    def flush_repeatedly():
        while not stop.is_set():
            shipper.ship()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    flusher = threading.Thread(target=flush_repeatedly, daemon=True)
    try:
        shipper.start()
        flusher.start()
        train(recorder, range(3000))
    finally:
        stop.set()
        flusher.join(timeout=10.0)
        shipper.stop(flush=True)
        sys.setswitchinterval(interval)
    assert not flusher.is_alive()
    assert endpoint.shipped("spans") == list(range(3000))
    assert endpoint.shipped("audit") == list(range(3000))
