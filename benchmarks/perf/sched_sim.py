"""``sched_sim`` — scheduler-bound: a lab study of non-predicting policies.

``StudyRunner(spec, CellStore(tmp), max_workers=1).run(on_cell=...)`` and
``write_report()``: five policies x two experiment seeds on cifar10, stop on
target, a fresh store per pass.  No curve is ever fitted, so
``framework.scheduler``, ``sim.engine``, the policies, the workload, the lab
store and the always-on ``Recorder`` inside ``execute_cell`` do all the work
— the same sim layers as ``pop_sim``, used differently.

Cells are timed between ``on_cell`` callbacks.  The experiment seeds are
fixed: a pass of seeds {S, S+1} costs 2.2 s at S=4 and 6.8 s at S=2
(time-to-target decides how long each cell simulates), and the pipeline
takes the spread over runs of *different* ``--seed`` for noise.  ``--seed``
names the study (so every store key differs) and orders the policy and
seed axes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List

import harness
import layers
from tracing import EMPTY, Tracer, install_experiment_layers, install_lab_layers

MIN_PASSES = 3
PROGRAM_IN_CHILDREN = False
POLICIES = ("default", "bandit", "hyperband", "successive-halving", "learned")
SIZES = {
    "full": dict(seeds=(0, 1), configs=200, machines=16),
    "smoke": dict(seeds=(0,), configs=40, machines=8),
}
REPORT = "report"


@dataclass
class State:
    spec: Any
    rng: random.Random
    scale: str
    passes_run: int = 0


def install(tracer: Tracer) -> None:
    install_experiment_layers(tracer)
    install_lab_layers(tracer)


def study(name: str, scale: str, rng: random.Random):
    from repro.lab import StudySpec

    size = SIZES[scale]
    policies = list(POLICIES)
    seeds = list(size["seeds"])
    rng.shuffle(policies)
    rng.shuffle(seeds)
    return StudySpec(
        name=name,
        policies=tuple(policies),
        seeds=tuple(seeds),
        machines=(size["machines"],),
        num_configs=size["configs"],
        baseline={"policy": "default"},
    )


def setup(seed: int, scale: str) -> State:
    rng = random.Random(seed)
    return State(study(f"perf-sched-sim-{seed}", scale, rng), rng, scale)


def teardown(state: State, graceful: bool = True) -> None:
    pass


def one_pass(state: State, outcome: harness.Outcome, walls, prints, tracer=None):
    """One whole study into a fresh store: ``(cell label -> result, pass
    wall)``; a study that raises is one failed attempt and no results."""
    from repro.lab import CellStore, StudyRunner

    cells = state.spec.cells()
    store = CellStore(harness.scratch_dir(f"study{state.passes_run}"))
    state.passes_run += 1
    runner = StudyRunner(state.spec, store, max_workers=1)
    marks = [time.perf_counter()]

    def on_cell(progress) -> None:
        marks.append(time.perf_counter())
        if tracer is not None and progress.done < len(cells):
            tracer.cell = cells[progress.done].label()

    if tracer is not None:
        tracer.cell = cells[0].label()
    try:
        runner.run(on_cell=on_cell)
        started = time.perf_counter()
        runner.write_report()
        finished = time.perf_counter()
    except Exception as exc:
        outcome.attempt(False, f"study raised {type(exc).__name__}: {exc}")
        return {}, 0.0
    walls.setdefault(REPORT, []).append(finished - started)
    results = {}
    for cell, begun, ended in zip(cells, marks, marks[1:]):
        result = results[cell.label()] = store.load_cell(cell.key())["result"]
        outcome.attempt(
            result["reached_target"], f"{cell.label()} did not reach its target"
        )
        outcome.check(
            result["predictions_made"] == 0,
            f"{cell.label()} made {result['predictions_made']} curve predictions",
        )
        walls.setdefault(cell.label(), []).append(ended - begun)
        prints.setdefault(cell.label(), []).append(
            (result["epochs_trained"], result["time_to_target"], result["best_metric"])
        )
    return results, finished - marks[0]


def warm_up(state: State) -> None:
    """One untimed smoke-sized study: every policy, the store and the
    report once, so the timed passes do not pay for lazy imports (the
    first pass of a fresh process reads ~7 % slow)."""
    small = State(study("perf-sched-sim-warm-up", "smoke", random.Random(0)),
                  state.rng, "smoke")
    one_pass(small, harness.Outcome(), {}, {})
    harness.progress("warmed up")


def measure(state: State, seconds: float, outcome: harness.Outcome) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    prints: Dict[str, List[tuple]] = {}
    warm_up(state)
    _, first = one_pass(state, outcome, walls, prints)
    passes = harness.passes_for(seconds, first, MIN_PASSES, state.scale)
    for _ in range(passes - 1):
        one_pass(state, outcome, walls, prints)
    harness.progress(f"{passes} passes of {len(prints)} cells, first {first:.2f}s")
    outcome.check_passes_agree(prints)
    if not prints:
        return {}
    # One study: its cells, and its report's wall in the denominator.
    return {"work_per_s": harness.rate_over_cells(len(prints), walls)}


def trace(state: State, tracer: Tracer, outcome: harness.Outcome) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    prints: Dict[str, List[tuple]] = {}
    warm_up(state)
    results, untraced = one_pass(state, outcome, walls, prints)

    install(tracer)
    try:
        with tracer.span("harness.cell"):
            _, traced = one_pass(state, outcome, walls, prints, tracer)
    finally:
        tracer.restore()
    outcome.check_passes_agree(prints)

    spans = tracer.summary()
    values = layers.zeros()
    values.update(layers.experiment_layers(spans, tracer.counts))
    outcome.check(
        values["curves.predict_calls"] == 0,
        f"{values['curves.predict_calls']} curve predictions on sched_sim",
    )
    values["policies.killed_epoch_share"] = layers.killed_epoch_share(
        job for result in results.values() for job in layers.result_jobs(result)
    )
    values["lab.cells"] = spans.get("lab.execute_cell", EMPTY).calls
    values["lab.execute_cell_self_s"] = spans.get("lab.execute_cell", EMPTY).self_s
    values["lab.store_save_busy_s"] = spans.get("lab.store_save", EMPTY).busy_s
    values["lab.report_s"] = spans.get("lab.report", EMPTY).busy_s
    first_cell = state.spec.cells()[0]
    values["observability.recorder_overhead_frac"] = recorder_overhead(first_cell)
    values["sim.env.steps_per_s"] = layers.env_steps_per_s(
        gen_seed=17, num_configs=first_cell.num_configs
    )
    values["cli.import_s"] = layers.cli_import_s(state.scale)
    values["target_hours"] = layers.target_hours(
        seen[0][1] for seen in prints.values()
    )
    values["trace_overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    values["trace.wall_s"] = traced
    values["trace.accounted_frac"] = layers.accounted_frac(tracer)
    return values


def recorder_overhead(cell) -> float:
    """The first cell's experiment through ``run_simulation`` itself, with
    a live ``Recorder`` (what ``execute_cell`` always attaches) and with
    ``recorder=None``."""
    from repro import registry
    from repro.analysis.experiments import standard_configs
    from repro.framework.experiment import ExperimentSpec
    from repro.sim.runner import run_simulation

    resolved = cell.resolved()
    workload = registry.build_workload(cell.workload)
    configs = standard_configs(workload, cell.num_configs, seed=resolved["gen_seed"])
    spec = ExperimentSpec(
        num_machines=resolved["machines"],
        num_configs=cell.num_configs,
        seed=cell.seed,
    )
    return layers.recorder_overhead_frac(
        lambda recorder: run_simulation(
            workload,
            registry.build_policy(cell.policy),
            configs=configs,
            spec=spec,
            recorder=recorder,
        )
    )
