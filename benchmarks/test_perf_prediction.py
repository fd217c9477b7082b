"""Fit-cache throughput bench.

A caller that re-evaluates a whole job pool after every reported epoch
produces this traffic: ONE job has a new curve prefix, every other
job's prefix is unchanged since the last round.  This bench replays
that access pattern over calibrated cifar10 curves and measures
prediction throughput in two configurations:

* ``serial`` — the predictor as every product path builds it.
* ``cached`` — the same predictor with a ``FitCache`` attached
  (``LeastSquaresCurvePredictor(fit_cache=FitCache())``).

Gate: ``cached`` throughput >= 3x ``serial`` at a steady-state
fit-cache hit rate > 0.8.

What this does NOT measure is the scheduler: it asks for one fresh
prefix at a time, so a cache never hits there (the real pattern is
``benchmarks/perf``'s ``pop_sim``, ``curves.engine.cache_hit_ratio``
0).  The process pool this bench used to report as ``pooled`` and
``engine`` was deleted in PR 16 (EXPERIMENTS.md, "Prediction cost").

Writes ``BENCH_prediction.json`` at the repo root.  CI compares the
*speedup ratio* (machine-relative, so a slower runner does not fail
the gate) against ``benchmarks/baselines/prediction.json`` via
``benchmarks/check_prediction_regression.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.curves.engine import FitCache
from repro.curves.predictor import LeastSquaresCurvePredictor
from repro.generators.random_gen import RandomGenerator
from repro.workloads.cifar10 import Cifar10Workload

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_prediction.json"

N_JOBS = 8
WARM_EPOCHS = 10  # observed prefix length at steady state
ROUNDS = 10       # measured rounds per mode

CACHED_SPEEDUP_GATE = 3.0
HIT_RATE_GATE = 0.8


def _make_predictor(fit_cache=None) -> LeastSquaresCurvePredictor:
    """The simulation benches' predictor configuration."""
    return LeastSquaresCurvePredictor(
        n_sample_curves=100,
        restarts=2,
        model_names=LeastSquaresCurvePredictor.FAST_MODEL_SUBSET,
        max_nfev=60,
        fit_cache=fit_cache,
    )


def _calibrated_curves() -> List[List[float]]:
    """Normalised learning curves from the calibrated cifar10 surrogate."""
    workload = Cifar10Workload()
    generator = RandomGenerator(workload.space, seed=17, max_configs=N_JOBS)
    curves = []
    for _ in range(N_JOBS):
        _, config = generator.create_job()
        run = workload.create_run(config, seed=3)
        curve = []
        for _ in range(workload.domain.max_epochs):
            result = run.step()
            curve.append(workload.domain.normalize(result.metric))
            if result.done:
                break
        curves.append(curve)
    return curves


def _round_requests(
    curves: List[List[float]], lengths: List[int], advance: int
) -> List[Tuple[Tuple[float, ...], int]]:
    """One scheduler round: job ``advance`` gains an epoch, then every
    job's curve is predicted out to its full horizon."""
    lengths[advance] = min(lengths[advance] + 1, len(curves[advance]))
    requests = []
    for curve, n in zip(curves, lengths):
        horizon = max(len(curve) - n, 1)
        requests.append((tuple(curve[:n]), horizon))
    return requests


def _predict_round(predictor, requests) -> int:
    for observed, horizon in requests:
        predictor.predict(observed, horizon)
    return len(requests)


def _run_mode(name: str, curves: List[List[float]]) -> Dict[str, float]:
    """Warm-up round + measured rounds for one mode."""
    cache = FitCache() if name == "cached" else None
    predictor = _make_predictor(fit_cache=cache)
    lengths = [WARM_EPOCHS] * N_JOBS
    # Warm-up round: populates the cache; excluded from timing and from
    # the steady-state hit rate.
    _predict_round(predictor, _round_requests(curves, lengths, 0))
    before = cache.stats() if cache is not None else {}
    predictions = 0
    started = time.perf_counter()
    for round_index in range(1, ROUNDS + 1):
        requests = _round_requests(curves, lengths, round_index % N_JOBS)
        predictions += _predict_round(predictor, requests)
    elapsed = time.perf_counter() - started
    after = cache.stats() if cache is not None else {}
    delta = {k: after[k] - before[k] for k in after}
    demand = delta.get("hits", 0) + delta.get("misses", 0)
    return {
        "seconds": elapsed,
        "predictions": predictions,
        "throughput_per_s": predictions / elapsed,
        "cache_hit_rate": (delta.get("hits", 0) / demand) if demand else 0.0,
        "warm_starts": delta.get("warm_starts", 0),
    }


def test_prediction_engine_throughput():
    curves = _calibrated_curves()
    modes = {
        name: _run_mode(name, curves)
        for name in ("serial", "cached")
    }
    serial_tp = modes["serial"]["throughput_per_s"]
    report = {
        "bench": "prediction_engine",
        "workload": "cifar10",
        "jobs": N_JOBS,
        "rounds": ROUNDS,
        "modes": modes,
        "speedups_vs_serial": {
            name: modes[name]["throughput_per_s"] / serial_tp
            for name in modes
        },
        "gates": {
            "cached_speedup_min": CACHED_SPEEDUP_GATE,
            "cache_hit_rate_min": HIT_RATE_GATE,
        },
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print("\nprediction throughput (curves/s):")
    for name, row in modes.items():
        print(
            f"  {name:<8} {row['throughput_per_s']:8.1f}/s  "
            f"speedup {report['speedups_vs_serial'][name]:5.2f}x  "
            f"hit-rate {row['cache_hit_rate']:.3f}"
        )

    cached_speedup = report["speedups_vs_serial"]["cached"]
    assert cached_speedup >= CACHED_SPEEDUP_GATE, (
        f"cached speedup {cached_speedup:.2f}x below the "
        f"{CACHED_SPEEDUP_GATE}x gate (see {OUTPUT_PATH.name})"
    )
    hit_rate = modes["cached"]["cache_hit_rate"]
    assert hit_rate > HIT_RATE_GATE, (
        f"steady-state cache hit rate {hit_rate:.3f} below "
        f"{HIT_RATE_GATE} (see {OUTPUT_PATH.name})"
    )
