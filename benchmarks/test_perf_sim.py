"""Simulator fast-path bench: vectorized streams vs the scalar DES.

The discrete-event simulator is the inner loop of every lab study and
the training substrate of the learned scheduler
(:mod:`repro.sim.env`), so its throughput bounds everything
comparative this repo does.  This bench measures the two fast-path
tiers against the scalar path on identical inputs — and asserts
**exact result parity** while doing so, which is what makes the
speedup numbers trustworthy:

* ``default`` — :func:`repro.sim.fastpath.simulate_default_fast`
  (closed-form per-machine queue replay, no event loop) against the
  full DES running the Default SAP.  Same start order, same epoch
  finish times, so ``time_to_target`` / ``epochs_trained`` /
  ``best_metric`` must match exactly.
* ``pop`` — :class:`repro.sim.fastpath.FastBatchWorkload` (stream
  replay through the **unchanged** scheduler) against the scalar
  workload under the POP SAP.  Identical decisions, identical result.
  Both sides of this ratio run the same curve predictor, which is most
  of either wall (86 % of ``pop_sim``'s traced pass), so the ratio sits
  at 1.0 whatever the predictor costs: the batched fit kernel took the
  scalar side from 4.9-5.3 s to 0.53-0.67 s on the reference host and
  left the ratio at 0.97-1.08x.  A
  ">= 5x" gate on this cell (ROADMAP's earlier wording) is therefore
  ill-posed; the kernel's gain is gated where it is visible, on
  ``benchmarks/perf``'s ``pop_sim`` workload.  The absolute seconds are
  in ``BENCH_sim.json`` for the record.

Gates:

* ``default`` speedup >= 10x (the closed-form replay skips the event
  loop entirely).
* ``pop`` speedup >= 0.5x (replay must never make the DES slower;
  the shared predictor dominates both sides, so anything near 1x is
  healthy).

Writes ``BENCH_sim.json`` at the repo root.  CI compares the *speedup
ratios* (machine-relative, so a slower runner does not fail the gate)
against ``benchmarks/baselines/sim.json`` via
``benchmarks/check_sim_regression.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict

from repro.core.pop import POPPolicy
from repro.framework.experiment import ExperimentSpec
from repro.generators.random_gen import RandomGenerator
from repro.policies.default import DefaultPolicy
from repro.sim.fastpath import (
    FastBatchWorkload,
    precompute_streams,
    simulate_default_fast,
)
from repro.sim.runner import run_simulation
from repro.workloads.cifar10 import Cifar10Workload

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_sim.json"

N_CONFIGS = 24
MACHINES = 4
TMAX = 24 * 3600.0
SEED = 3           # experiment seed (training-noise streams)
GEN_SEED = 17      # configuration-set seed
DEFAULT_TRIALS = 3
POP_TRIALS = 1

DEFAULT_SPEEDUP_GATE = 10.0
POP_SPEEDUP_GATE = 0.5


def _configs(workload):
    generator = RandomGenerator(
        workload.space, seed=GEN_SEED, max_configs=N_CONFIGS
    )
    configs = []
    for _ in range(N_CONFIGS):
        _, config = generator.create_job()
        configs.append(config)
    return configs


def _spec() -> ExperimentSpec:
    return ExperimentSpec(
        num_machines=MACHINES,
        num_configs=N_CONFIGS,
        tmax=TMAX,
        seed=SEED,
    )


def _timed(fn, trials: int):
    """Best-of-``trials`` wall time plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(trials):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _bench_default(workload, configs) -> Dict[str, float]:
    """Closed-form Default-SAP replay vs the full DES."""
    scalar_seconds, scalar = _timed(
        lambda: run_simulation(
            workload, DefaultPolicy(), configs=configs, spec=_spec()
        ),
        DEFAULT_TRIALS,
    )
    vector_seconds, fast = _timed(
        lambda: simulate_default_fast(
            precompute_streams(workload, configs, seed=SEED),
            machines=MACHINES,
            tmax=TMAX,
        ),
        DEFAULT_TRIALS,
    )
    # Exact parity: the closed form IS the DES for this policy.
    assert fast["reached_target"] == scalar.reached_target
    if scalar.time_to_target is not None:
        assert abs(fast["time_to_target"] - scalar.time_to_target) < 1e-6
    assert fast["epochs_trained"] == scalar.epochs_trained
    if scalar.best_metric is not None:
        assert abs(fast["best_metric"] - scalar.best_metric) < 1e-9
    return {
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vector_seconds,
        "speedup": scalar_seconds / vector_seconds,
        "trials": DEFAULT_TRIALS,
    }


def _bench_pop(workload, configs) -> Dict[str, float]:
    """Stream replay through the unchanged scheduler vs scalar runs."""
    scalar_seconds, scalar = _timed(
        lambda: run_simulation(
            workload, POPPolicy(), configs=configs, spec=_spec()
        ),
        POP_TRIALS,
    )
    fast_workload = FastBatchWorkload(workload, configs, seed=SEED)
    vector_seconds, fast = _timed(
        lambda: run_simulation(
            fast_workload, POPPolicy(), configs=configs, spec=_spec()
        ),
        POP_TRIALS,
    )
    # Replay parity: identical streams => identical decisions => the
    # same experiment outcome, field for field.
    assert fast.reached_target == scalar.reached_target
    if scalar.time_to_target is not None:
        assert abs(fast.time_to_target - scalar.time_to_target) < 1e-6
    assert fast.epochs_trained == scalar.epochs_trained
    if scalar.best_metric is not None:
        assert abs(fast.best_metric - scalar.best_metric) < 1e-9
    return {
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vector_seconds,
        "speedup": scalar_seconds / vector_seconds,
        "trials": POP_TRIALS,
    }


def test_sim_fastpath_speedup():
    workload = Cifar10Workload()
    configs = _configs(workload)
    cells = {
        "default": _bench_default(workload, configs),
        "pop": _bench_pop(workload, configs),
    }
    report = {
        "bench": "sim_fastpath",
        "workload": "cifar10",
        "cells": cells,
        "speedups_vs_scalar": {
            name: cells[name]["speedup"] for name in cells
        },
        "gates": {
            "default_speedup_min": DEFAULT_SPEEDUP_GATE,
            "pop_speedup_min": POP_SPEEDUP_GATE,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print("\nsim fast-path speedups (vs scalar DES):")
    for name, row in cells.items():
        print(
            f"  {name:<8} scalar {row['scalar_seconds']:7.3f}s  "
            f"vectorized {row['vectorized_seconds']:7.3f}s  "
            f"speedup {row['speedup']:6.2f}x"
        )

    assert cells["default"]["speedup"] >= DEFAULT_SPEEDUP_GATE, (
        f"default fast path {cells['default']['speedup']:.2f}x below the "
        f"{DEFAULT_SPEEDUP_GATE}x gate (see {OUTPUT_PATH.name})"
    )
    assert cells["pop"]["speedup"] >= POP_SPEEDUP_GATE, (
        f"pop replay {cells['pop']['speedup']:.2f}x below the "
        f"{POP_SPEEDUP_GATE}x gate (see {OUTPUT_PATH.name})"
    )
