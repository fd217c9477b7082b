"""``cluster_run`` — wire-bound: the multi-process runtime with training
sleeps scaled away.

``run_cluster(Cifar10Workload, DefaultPolicy, configs @ gen_seed 17,
spec(num_machines=2, stop_on_target=False, seed=--seed), time_scale=1e-7,
progress_hook every 200 epochs)``.  At that time scale an epoch's sleep is
microseconds, so ``cluster.protocol``, ``cluster.transport``, worker spawn
and strict shutdown, and the head's ``process_epoch`` under its lock are the
cost; curves do nothing.  It is the third driver loop around the same
scheduler.

The work does not depend on wall-clock luck: the cluster's experiment clock
is wall time / ``time_scale``, so any policy that looks at the clock trains
a different number of epochs each run (Bandit: 240, 240, 340).  Default with
``stop_on_target=False`` always trains ``configs x max_epochs``, whatever
the seed; ``--seed`` is the experiment seed (training noise).

One warm-up call, then identical cells; a cell is one whole call, worker
spawn and strict shutdown included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

import harness
import layers
from tracing import EMPTY, Tracer, install_cluster_layers, install_experiment_layers, p50

MIN_CELLS = 5
#: Two worker processes do the training; the largest counts toward memory.
PROGRAM_IN_CHILDREN = True
CONFIGS = {"full": 40, "smoke": 4}
GEN_SEED = 17
MACHINES = 2
TIME_SCALE = 1e-7
MARK_EVERY = 200


@dataclass
class State:
    workload: Any
    configs: List[Dict[str, Any]]
    spec: Any
    scale: str


def install(tracer: Tracer) -> None:
    install_experiment_layers(tracer)
    install_cluster_layers(tracer)


def setup(seed: int, scale: str) -> State:
    from repro import registry
    from repro.analysis.experiments import standard_configs
    from repro.cluster import runtime  # noqa: F401  (part of getting ready)
    from repro.framework.experiment import ExperimentSpec

    workload = registry.build_workload("cifar10")
    count = CONFIGS[scale]
    configs = standard_configs(workload, count, seed=GEN_SEED)
    spec = ExperimentSpec(
        num_machines=MACHINES, num_configs=count, stop_on_target=False, seed=seed
    )
    return State(workload, configs, spec, scale)


def teardown(state: State, graceful: bool = True) -> None:
    pass


def run_cell(state: State) -> Tuple[Any, float, List[Tuple[float, int]]]:
    """One whole ``run_cluster`` call: ``(result, wall, progress marks)``."""
    from repro.cluster import runtime
    from repro.policies.default import DefaultPolicy

    marks: List[Tuple[float, int]] = []
    started = time.perf_counter()
    result = runtime.run_cluster(
        state.workload,
        DefaultPolicy(),
        configs=state.configs,
        spec=state.spec,
        time_scale=TIME_SCALE,
        progress_hook=lambda scheduler: marks.append(
            (time.perf_counter() - started, scheduler.result.epochs_trained)
        ),
        progress_every_epochs=MARK_EVERY,
    )
    return result, time.perf_counter() - started, marks


def reference(state: State):
    """The same submission in the simulator, with a horizon long enough to
    train every epoch: what the cluster's result is checked against."""
    from repro.policies.default import DefaultPolicy
    from repro.sim.runner import run_simulation

    return run_simulation(
        state.workload,
        DefaultPolicy(),
        configs=state.configs,
        spec=replace(state.spec, tmax=1e9),
    )


def attempt_cell(state: State, outcome: harness.Outcome, expected):
    try:
        result, wall, marks = run_cell(state)
    except Exception as exc:
        outcome.attempt(False, f"run_cluster raised {type(exc).__name__}: {exc}")
        return None, 0.0, []
    outcome.attempt(
        result.epochs_trained == expected.epochs_trained,
        f"trained {result.epochs_trained} epochs, not {expected.epochs_trained}",
    )
    outcome.check(
        result.best_metric == expected.best_metric,
        f"best_metric {result.best_metric} != simulator's {expected.best_metric}",
    )
    outcome.check(
        result.predictions_made == 0,
        f"{result.predictions_made} curve predictions on cluster_run",
    )
    return result, wall, marks


def measure(state: State, seconds: float, outcome: harness.Outcome) -> Dict[str, float]:
    expected = reference(state)
    per_job = {len(job.metrics) for job in expected.jobs}
    outcome.check(
        len(per_job) == 1
        and expected.epochs_trained == len(state.configs) * per_job.pop(),
        "the reference run did not train configs x max_epochs",
    )
    _, warm_up, _ = attempt_cell(state, harness.Outcome(), expected)
    walls = []
    for _ in range(harness.passes_for(seconds, warm_up, MIN_CELLS, state.scale)):
        result, wall, _ = attempt_cell(state, outcome, expected)
        if result is not None:
            walls.append(wall)
    harness.progress(f"{len(walls)} cells after a {warm_up:.2f}s warm-up")
    if not walls:
        return {}
    return {"work_per_s": expected.epochs_trained / harness.median(walls)}


def trace(state: State, tracer: Tracer, outcome: harness.Outcome) -> Dict[str, float]:
    expected = reference(state)
    attempt_cell(state, harness.Outcome(), expected)  # warm-up
    repeats = 1 if state.scale == "smoke" else 2
    untraced = [
        wall
        for result, wall, _ in (
            attempt_cell(state, outcome, expected) for _ in range(repeats)
        )
        if result is not None
    ]

    install(tracer)
    frames = layers.capture_frames(
        tracer,
        lambda frame: frame.get("kind") == "rpc_reply"
        and "epoch" in ((frame.get("payload") or {}).get("value") or {}),
    )
    traced, startup, steady, shutdown, head_cpu, worker_cpu = [], [], [], [], [], []
    try:
        for index in range(repeats):
            tracer.cell = f"cluster/{index}"
            cpu_before = time.process_time(), harness.children_cpu_s()
            begun = time.perf_counter()
            with tracer.span("harness.cell"):
                result, wall, marks = attempt_cell(state, outcome, expected)
            if result is None:
                continue
            traced.append(wall)
            head_cpu.append((time.process_time() - cpu_before[0]) / wall)
            worker_cpu.append(harness.children_cpu_s() - cpu_before[1])
            last_epoch = max(
                (record[2]
                for record in tracer.spans
                if record[0] == "framework.process_epoch"
                and record[4] == tracer.cell
                and record[2] is not None),
                default=begun + wall,
            )
            shutdown.append(begun + wall - last_epoch)
            if marks:
                startup.append(marks[0][0])
            steady.extend(
                (epochs - before) / (at - since)
                for (since, before), (at, epochs) in zip(marks, marks[1:])
            )
    finally:
        tracer.restore()

    spans = tracer.summary()
    values = layers.zeros()
    values.update(layers.experiment_layers(spans, tracer.counts))
    outcome.check(
        values["curves.predict_calls"] == 0,
        f"{values['curves.predict_calls']} curve predictions on cluster_run",
    )
    send = spans.get("cluster.transport.send", EMPTY)
    values["cluster.runtime.startup_s"] = p50(startup)
    values["cluster.runtime.steady_epochs_per_s"] = p50(steady)
    values["cluster.runtime.shutdown_s"] = p50(shutdown)
    values["cluster.runtime.head_cpu_share"] = p50(head_cpu)
    values["cluster.worker.cpu_s"] = p50(worker_cpu)
    values["cluster.transport.send_calls"] = send.calls
    values["cluster.transport.send_busy_s"] = send.busy_s
    outcome.check(bool(frames), "no epoch-result frame was seen on the wire")
    if frames:
        values.update(layers.wire_echo(frames[0]))
    values["cli.import_s"] = layers.cli_import_s(state.scale)
    values["trace_overhead_frac"] = (
        p50(traced) / p50(untraced) - 1.0 if traced and untraced else 0.0
    )
    values["trace.wall_s"] = sum(traced)
    values["trace.accounted_frac"] = layers.accounted_frac(tracer)
    return values
