"""Tests for the prefix-fit cache and the predictor instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.curves.engine import FitCache
from repro.curves.fitting import curve_cache_key, fit_all_models
from repro.curves.predictor import (
    InstrumentedCurvePredictor,
    LeastSquaresCurvePredictor,
)
from repro.framework.experiment import ExperimentSpec
from repro.generators.random_gen import RandomGenerator
from repro.observability import InMemoryExporter, Recorder
from repro.policies.default import DefaultPolicy
from repro.sim.runner import run_simulation


def _curve(n: int = 8) -> list:
    return list(0.4 + 0.45 * (1.0 - np.exp(-0.35 * np.arange(1, n + 1))))


def _ls_predictor(**overrides) -> LeastSquaresCurvePredictor:
    kwargs = dict(
        n_sample_curves=30,
        restarts=1,
        model_names=("pow3", "weibull", "mmf", "ilog2"),
        max_nfev=40,
        seed=5,
    )
    kwargs.update(overrides)
    return LeastSquaresCurvePredictor(**kwargs)


# --------------------------------------------------------------- FitCache


class TestFitCache:
    def test_lru_eviction(self):
        cache = FitCache(maxsize=2)
        fits = fit_all_models(
            _curve(), rng=np.random.default_rng(0), restarts=1
        )
        fit = next(iter(fits.values()))
        k1 = curve_cache_key(np.asarray(_curve(4)))
        k2 = curve_cache_key(np.asarray(_curve(5)))
        k3 = curve_cache_key(np.asarray(_curve(6)))
        cache.put("m", k1, ("p",), fit)
        cache.put("m", k2, ("p",), fit)
        assert cache.get("m", k1, ("p",)) is fit  # refresh k1's recency
        cache.put("m", k3, ("p",), fit)  # evicts k2, the LRU entry
        assert cache.get("m", k2, ("p",)) is None
        assert cache.get("m", k1, ("p",)) is fit
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_counters_and_hit_rate(self):
        cache = FitCache(maxsize=8)
        fits = fit_all_models(
            _curve(), rng=np.random.default_rng(0), restarts=1
        )
        fit = next(iter(fits.values()))
        key = curve_cache_key(np.asarray(_curve()))
        assert cache.get("m", key, ()) is None
        cache.put("m", key, (), fit, warm_started=True)
        assert cache.get("m", key, ()) is fit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.warm_starts == 1
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["size"] == 1

    def test_peek_does_not_count(self):
        cache = FitCache()
        key = curve_cache_key(np.asarray(_curve()))
        assert cache.peek("m", key, ()) is None
        assert cache.misses == 0 and cache.hits == 0

    def test_params_key_isolates_configurations(self):
        """Changing predictor parameters must invalidate cached fits."""
        y = _curve()
        a = _ls_predictor(restarts=1, fit_cache=FitCache())
        b = _ls_predictor(restarts=2, fit_cache=a.fit_cache)
        a.predict(y, 3)
        assert a.fit_cache.misses > 0 and a.fit_cache.hits == 0
        misses_before = a.fit_cache.misses
        # Same curve, different fitting params -> distinct entries.
        b.predict(y, 3)
        assert a.fit_cache.misses > misses_before
        # Re-running either configuration now hits.
        a.predict(y, 3)
        assert a.fit_cache.hits > 0

    def test_rejects_invalid_size(self):
        with pytest.raises(ValueError):
            FitCache(maxsize=0)


def test_fit_all_models_requires_params_key_with_cache():
    with pytest.raises(ValueError, match="params_key"):
        fit_all_models(_curve(), cache=FitCache())


def test_warm_start_reuses_previous_prefix():
    """Growing a curve by one epoch warm-starts from the n-1 fits."""
    cache = FitCache()
    predictor = _ls_predictor(fit_cache=cache)
    y = _curve(10)
    predictor.predict(y[:8], 3)
    warm_before = cache.warm_starts
    predictor.predict(y[:9], 3)
    assert cache.warm_starts > warm_before


def test_cached_predictions_are_reproducible():
    """Hot and cold cache paths must yield the identical prediction."""
    y = _curve()
    cold = _ls_predictor(fit_cache=FitCache()).predict(y, 4)
    warm_predictor = _ls_predictor(fit_cache=FitCache())
    warm_predictor.predict(y, 4)
    hot = warm_predictor.predict(y, 4)  # second call: every fit cached
    np.testing.assert_array_equal(cold.samples, hot.samples)


class TestInstrumentedTimings:
    """Regression: predictor timings must come from a monotonic clock.

    Wall-clock sources (``time.time``) can step backwards under NTP
    adjustment and record negative durations; the instrumented wrapper
    therefore takes its timestamps from ``time.monotonic`` (injectable
    here so the invariant is testable).
    """

    def test_durations_use_injected_monotonic_clock(self):
        recorder = Recorder(exporter=InMemoryExporter())
        ticks = iter([10.0, 10.25, 11.0, 11.5])
        wrapped = InstrumentedCurvePredictor(
            _ls_predictor(), recorder, monotonic_clock=lambda: next(ticks)
        )
        wrapped.predict(_curve(), 3)
        wrapped.predict(_curve(), 3)
        histogram = recorder.metrics.histogram("predictor_fit_seconds")
        backend = "LeastSquaresCurvePredictor"
        assert histogram.count(backend=backend) == 2
        assert histogram.sum(backend=backend) == pytest.approx(0.75)

    def test_default_clock_records_nonnegative_durations(self):
        recorder = Recorder(exporter=InMemoryExporter())
        wrapped = InstrumentedCurvePredictor(_ls_predictor(), recorder)
        for _ in range(3):
            wrapped.predict(_curve(), 3)
        histogram = recorder.metrics.histogram("predictor_fit_seconds")
        backend = "LeastSquaresCurvePredictor"
        assert histogram.count(backend=backend) == 3
        assert histogram.quantile(0.0, backend=backend) >= 0.0


def test_default_simulation_is_deterministic(cifar10_workload):
    """Two identical runs replay the same decision sequence: lifecycle
    events, best metric and epoch count are unchanged run-to-run."""

    def one_run():
        gen = RandomGenerator(
            cifar10_workload.space, seed=2, max_configs=5
        )
        return run_simulation(
            cifar10_workload,
            DefaultPolicy(),
            generator=gen,
            spec=ExperimentSpec(
                num_machines=2,
                num_configs=5,
                seed=0,
                stop_on_target=False,
                tmax=4 * 3600.0,
            ),
        )

    first, second = one_run(), one_run()
    events_a = [
        (e.kind.value, e.job_id, e.timestamp) for e in first.lifecycle
    ]
    events_b = [
        (e.kind.value, e.job_id, e.timestamp) for e in second.lifecycle
    ]
    assert events_a == events_b
    assert first.best_metric == second.best_metric
    assert first.epochs_trained == second.epochs_trained


def test_symbols_the_perf_harness_rebinds_exist():
    """``benchmarks/perf/tracing.py`` wraps these from outside; a rename
    must fail here, not only in the 40 s perf smoke."""
    from repro.curves import engine, fitting

    assert callable(engine.FitCache.get)
    assert callable(fitting.fit_model)
    assert callable(fitting.optimize.least_squares)
