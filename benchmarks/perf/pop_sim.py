"""``pop_sim`` — predictor-bound: curve-predicting policies in the simulator.

``run_simulation`` is called directly with ``recorder=None``, the default
predictor and ``predict_workers=1``, the way the figure benches and every
lab cell call it.  About 98 % of the wall is ``curves/fitting.py``, so a
faster fit kernel must show here and on no other workload.

The cells are small configuration sets that contain a configuration
reaching the target (generator seeds picked for that), so each cell stops
on target after 12-35 predictions and a pass fits the run's time budget.
The experiment seeds are part of the fixed cell list: a cell's cost moves
30 % between experiment seeds (1.26 to 1.69 s over seeds 1 to 3), and the
pipeline takes the spread over runs of *different* ``--seed`` for noise.
``--seed`` orders the cells within each pass.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import harness
import layers
from tracing import Tracer, install_experiment_layers

MIN_PASSES = 3
#: The program runs in this process; no child's memory is part of its peak.
PROGRAM_IN_CHILDREN = False


@dataclass(frozen=True)
class Cell:
    policy: str
    workload: str
    configs: int
    machines: int
    seed: int
    gen_seed: int

    @property
    def id(self) -> str:
        return (
            f"{self.policy}/{self.workload}/{self.configs}x{self.machines}"
            f"/s{self.seed}/g{self.gen_seed}"
        )


CELLS = {
    "full": [
        Cell("pop", "cifar10", 10, 4, seed=0, gen_seed=5),
        Cell("pop", "cifar10", 10, 4, seed=1, gen_seed=5),
        Cell("earlyterm", "cifar10", 10, 4, seed=0, gen_seed=0),
        Cell("pop", "lunarlander", 10, 5, seed=0, gen_seed=7),
    ],
    "smoke": [
        Cell("pop", "cifar10", 10, 4, seed=0, gen_seed=5),
    ],
}


@dataclass
class State:
    cells: List[Cell]
    workloads: Dict[str, Any]
    configs: Dict[str, List[Dict[str, Any]]]
    rng: random.Random
    scale: str


def install(tracer: Tracer) -> None:
    install_experiment_layers(tracer)


def setup(seed: int, scale: str) -> State:
    from repro import registry
    from repro.analysis.experiments import standard_configs

    cells = CELLS[scale]
    workloads = {
        name: registry.build_workload(name)
        for name in sorted({cell.workload for cell in cells})
    }
    configs = {
        cell.id: standard_configs(
            workloads[cell.workload], cell.configs, seed=cell.gen_seed
        )
        for cell in cells
    }
    return State(cells, workloads, configs, random.Random(seed), scale)


def teardown(state: State, graceful: bool = True) -> None:
    pass


def run_cell(state: State, cell: Cell):
    from repro import registry
    from repro.framework.experiment import ExperimentSpec
    from repro.sim import runner

    spec = ExperimentSpec(
        num_machines=cell.machines, num_configs=cell.configs, seed=cell.seed
    )
    # Looked up on the module at call time: the traced pass rebinds it.
    return runner.run_simulation(
        state.workloads[cell.workload],
        registry.build_policy(cell.policy),
        configs=state.configs[cell.id],
        spec=spec,
        recorder=None,
    )


def fingerprint(result) -> tuple:
    return (result.epochs_trained, result.time_to_target, result.best_metric)


def one_pass(state: State, outcome: harness.Outcome, walls, prints, results,
             tracer: Optional[Tracer] = None) -> float:
    """Every cell once, in a seeded order; returns the pass's wall.  With a
    ``tracer`` (whose wrappers the caller has installed) each cell runs
    inside a ``harness.cell`` span."""
    order = list(state.cells)
    state.rng.shuffle(order)
    total = 0.0
    for cell in order:
        if tracer is not None:
            tracer.cell = cell.id
        started = time.perf_counter()
        try:
            with tracer.span("harness.cell") if tracer else nullcontext():
                result = run_cell(state, cell)
        except Exception as exc:
            outcome.attempt(False, f"{cell.id} raised {type(exc).__name__}: {exc}")
            continue
        wall = time.perf_counter() - started
        total += wall
        outcome.attempt(
            result.reached_target, f"{cell.id} did not reach its target"
        )
        walls.setdefault(cell.id, []).append(wall)
        prints.setdefault(cell.id, []).append(fingerprint(result))
        results[cell.id] = result
    return total


def warm_up(state: State) -> None:
    """One untimed cell: the first call pays for lazy imports and cold
    caches (the first pass of a fresh process reads ~7 % slow)."""
    try:
        run_cell(state, state.cells[0])
    except Exception as exc:  # the timed passes will count it
        harness.progress(f"warm-up raised {type(exc).__name__}: {exc}")
    else:
        harness.progress("warmed up")


def measure(state: State, seconds: float, outcome: harness.Outcome) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    prints: Dict[str, List[tuple]] = {}
    warm_up(state)
    results: Dict[str, Any] = {}
    first = one_pass(state, outcome, walls, prints, results)
    passes = harness.passes_for(seconds, first, MIN_PASSES, state.scale)
    for _ in range(passes - 1):
        one_pass(state, outcome, walls, prints, results)
    harness.progress(f"{passes} passes of {len(state.cells)} cells, first {first:.2f}s")
    outcome.check_passes_agree(prints)
    if not walls:
        return {}
    return {"work_per_s": harness.rate_over_cells(len(walls), walls)}


def trace(state: State, tracer: Tracer, outcome: harness.Outcome) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    prints: Dict[str, List[tuple]] = {}
    results: Dict[str, Any] = {}
    warm_up(state)
    untraced = one_pass(state, outcome, walls, prints, results)
    install(tracer)
    try:
        traced = one_pass(state, outcome, walls, prints, results, tracer)
    finally:
        tracer.restore()
    outcome.check_passes_agree(prints)

    values = layers.zeros()
    values.update(layers.experiment_layers(tracer.summary(), tracer.counts))
    jobs = [job for r in results.values() for job in layers.result_jobs(r)]
    values["policies.killed_epoch_share"] = layers.killed_epoch_share(jobs)
    values["sim.env.steps_per_s"] = layers.env_steps_per_s(
        gen_seed=state.cells[0].gen_seed, num_configs=40
    )
    values["cli.import_s"] = layers.cli_import_s(state.scale)
    values["target_hours"] = layers.target_hours(
        seen[0][1] for seen in prints.values()
    )
    values["trace_overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
    values["trace.wall_s"] = traced
    values["trace.accounted_frac"] = layers.accounted_frac(tracer)
    return values
