"""Per-layer metrics: turning a traced pass into the numbers named in
``BENCHMARK.json``, plus the small probes that time one layer on its own
(an env episode, recorder on/off, journal replay, wire echo, cold imports).

Every workload prints every per-layer name; a layer the workload does not
touch reads 0, which the output checks rely on (``curves.predict_calls`` is
0 wherever no curve is fitted, ``service.*`` is 0 outside ``service_load``).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

import harness
from tracing import EMPTY, Tracer, p50

def zeros() -> Dict[str, float]:
    return {name: 0.0 for name in harness.manifest_units("per_layer")}


def experiment_layers(spans: Dict[str, Any], counts: Dict[str, float]) -> Dict[str, float]:
    """curves, core, policies, framework, sim, workloads, generators —
    the layers under the scheduler, from whichever driver loop ran it.
    ``spans`` and ``counts`` are a ``Tracer.summary()`` and its ``counts``,
    of this process or (``service_load``) as the traced daemon wrote them."""

    def of(name: str):
        return spans.get(name, EMPTY)

    predict, fit, lsq = of("curves.predict"), of("curves.fit"), of("curves.lsq")
    lookups = counts.get("curves.cache_lookups", 0.0)
    allocate, decide = of("core.allocate"), of("policies.decide")
    epoch = of("framework.process_epoch")
    engine, runner, event = of("sim.engine"), of("sim.runner"), of("sim.runner.event")
    step = of("workloads.step")
    return {
        "curves.predict_calls": predict.calls,
        "curves.predict_busy_s": predict.busy_s,
        "curves.predict_p50_ms": predict.p50_s * 1e3,
        "curves.fit_calls": fit.calls,
        "curves.fit_busy_s": fit.busy_s,
        "curves.fits_per_predict": fit.calls / predict.calls if predict.calls else 0.0,
        "curves.lsq_calls": lsq.calls,
        "curves.lsq_busy_s": lsq.busy_s,
        "curves.lsq_nfev": counts.get("curves.lsq_nfev", 0.0),
        "curves.engine.cache_hit_ratio": (
            counts.get("curves.cache_hits", 0.0) / lookups if lookups else 0.0
        ),
        "core.allocate_calls": allocate.calls,
        "core.allocate_busy_s": allocate.busy_s,
        "policies.decide_calls": decide.calls,
        "policies.decide_self_s": decide.self_s,
        "framework.process_epoch_calls": epoch.calls,
        "framework.process_epoch_self_s": epoch.self_s,
        "framework.process_epoch_p50_us": epoch.p50_s * 1e6,
        "sim.engine.events": event.calls,
        "sim.engine.self_s": engine.self_s,
        "sim.runner.self_s": runner.self_s + event.self_s,
        "workloads.build_s": of("workloads.build").busy_s,
        "workloads.step_calls": step.calls,
        "workloads.step_busy_s": step.busy_s,
        "generators.mint_busy_s": of("generators.mint").busy_s,
    }


def accounted_frac(tracer: Tracer, cell_span: str = "harness.cell") -> float:
    """Share of the traced cells' wall that lies inside some layer's span:
    1 - (self time of the harness's own cell spans) / (their duration)."""
    cells = tracer.summary().get(cell_span, EMPTY)
    return 1.0 - cells.self_s / cells.busy_s if cells.busy_s else 0.0


def killed_epoch_share(jobs: Iterable[Dict[str, Any]]) -> float:
    """Epochs spent on configurations later killed / all epochs trained
    (HyperSched's wasted-work number).  ``jobs``: ``{"state", "epochs"}``."""
    total = killed = 0
    for job in jobs:
        total += job["epochs"]
        if job["state"] == "terminated":
            killed += job["epochs"]
    return killed / total if total else 0.0


def target_hours(times_to_target: Iterable[Optional[float]]) -> float:
    """Median simulated hours to target over the cells that reached it."""
    reached = [seconds for seconds in times_to_target if seconds]
    return harness.median(reached) / 3600.0 if reached else 0.0


def result_jobs(result: Any) -> List[Dict[str, Any]]:
    """``killed_epoch_share`` input from an ``ExperimentResult`` or from
    its ``to_dict()`` form (lab store, service record)."""
    if isinstance(result, dict):
        return [
            {"state": job["state"], "epochs": len(job["metrics"])}
            for job in result["jobs"]
        ]
    return [
        {"state": job.state.value, "epochs": job.epochs_completed}
        for job in result.jobs
    ]


# ------------------------------------------------------------------- probes


def env_steps_per_s(gen_seed: int, num_configs: int) -> float:
    """One ``SchedulerEnv`` episode under a first-candidate policy."""
    from repro.sim.env import EnvConfig, SchedulerEnv

    env = SchedulerEnv(EnvConfig(num_configs=num_configs))
    env.reset(gen_seed)
    steps = 0
    started = time.perf_counter()
    done = False
    while not done:
        candidates = env.candidates()
        _, _, done, _ = env.step(candidates[:1])
        steps += 1
    return steps / (time.perf_counter() - started)


def recorder_overhead_frac(run_with_recorder) -> float:
    """``run_with_recorder(recorder)`` runs one fixed experiment; the
    overhead is wall with a live ``Recorder`` over wall with none, minus 1.
    Two rounds, best of each side, so a one-off stall is not charged to
    either."""
    from repro.observability import Recorder

    def wall(recorder) -> float:
        started = time.perf_counter()
        run_with_recorder(recorder)
        return time.perf_counter() - started

    off = min(wall(None) for _ in range(2))
    on = min(wall(Recorder()) for _ in range(2))
    return on / off - 1.0


def cli_import_s(scale: str) -> float:
    return harness.median(harness.time_fresh_imports("repro.cli", scale))


def replay_journal(events: List[Dict[str, Any]], reads: int = 50) -> Dict[str, float]:
    """``service.store.*``: an in-process ``RunStore`` on a temp root takes
    one captured journal back in (appends and checkpoints), then serves the
    two reads the daemon's routes are built on."""
    from repro.service.store import COMPLETED, RunStore
    from repro.service.submission import Submission

    submission = next(e["submission"] for e in events if e["kind"] == "submitted")
    result = next((e["result"] for e in events if e["kind"] == "result"), None)
    store = RunStore(harness.scratch_dir("replay"))
    try:
        exp_id = store.submit(Submission.from_dict(submission)).id
        store.mark_running(exp_id)
        append_us: List[float] = []
        checkpoint_s = 0.0
        for event in events:
            payload = {k: v for k, v in event.items() if k not in ("kind", "wall_time")}
            started = time.perf_counter()
            if event["kind"] == "checkpoint":
                store.save_checkpoint(exp_id, event["state"])
                checkpoint_s += time.perf_counter() - started
            else:
                store.append_event(exp_id, event["kind"], **payload)
                append_us.append((time.perf_counter() - started) * 1e6)
        store.mark_finished(exp_id, COMPLETED, result=result)
        total = len(store.read_events(exp_id))
        tail_ms, get_ms = [], []
        for _ in range(reads):
            started = time.perf_counter()
            store.read_events(exp_id, offset=total - 20)
            tail_ms.append((time.perf_counter() - started) * 1e3)
            started = time.perf_counter()
            store.get(exp_id)
            get_ms.append((time.perf_counter() - started) * 1e3)
    finally:
        store.close()
    return {
        "service.store.append_calls": len(append_us),
        "service.store.append_busy_s": sum(append_us) / 1e6,
        "service.store.append_p50_us": p50(append_us),
        "service.store.checkpoint_busy_s": checkpoint_s,
        "service.store.read_tail_p50_ms": p50(tail_ms),
        "service.store.get_p50_ms": p50(get_ms),
    }


def wire_echo(document: Dict[str, Any], rounds: int = 1000) -> Dict[str, float]:
    """``cluster.protocol.*``: pack one captured frame ``rounds`` times,
    and send it round a socketpair whose far end echoes it back."""
    from repro.cluster import protocol

    pack_us = []
    for _ in range(rounds):
        started = time.perf_counter()
        frame = protocol.pack_frame(document)
        pack_us.append((time.perf_counter() - started) * 1e6)

    near, far = socket.socketpair()

    def echo() -> None:
        while True:
            received = protocol.recv_frame(far)
            if received is None:
                return
            protocol.send_frame(far, received)

    thread = threading.Thread(target=echo, name="wire-echo", daemon=True)
    thread.start()
    trip_us = []
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            protocol.send_frame(near, document)
            protocol.recv_frame(near)
            trip_us.append((time.perf_counter() - started) * 1e6)
    finally:
        near.close()
        thread.join(timeout=5.0)
        far.close()
    return {
        "cluster.protocol.pack_p50_us": p50(pack_us),
        "cluster.protocol.roundtrip_p50_us": p50(trip_us),
        "cluster.protocol.frame_bytes": len(frame),
    }


def capture_frames(tracer: Tracer, keep) -> List[Dict[str, Any]]:
    """Rebind the transport's ``recv_frame`` so frames ``keep`` accepts are
    copied into the returned list (first one only)."""
    from repro.cluster import transport

    captured: List[Dict[str, Any]] = []
    real = transport.recv_frame

    def recv_frame(sock) -> Optional[Dict[str, Any]]:
        frame = real(sock)
        if frame is not None and not captured and keep(frame):
            captured.append(frame)
        return frame

    tracer.rebind(transport, "recv_frame", recv_frame)
    return captured
