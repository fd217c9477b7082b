"""Feature schema and featurization invariants (train/serve contract)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.learn.features import (
    FEATURE_NAMES,
    FEATURE_VERSION,
    ConfigStateArrays,
    arrays_from_jobs,
    feature_matrix,
    feature_schema,
)
from repro.registry import build_workload


def _state(**overrides):
    base = dict(
        epochs=np.array([0, 4, 8]),
        last=np.array([0.0, 0.4, 0.8]),
        prev=np.array([0.0, 0.2, 0.7]),
        best=np.array([0.0, 0.4, 0.8]),
        invested=np.array([0.0, 120.0, 300.0]),
        elapsed=600.0,
        tmax=3600.0,
        slots=4,
        window=4,
        max_epochs=16,
        norm_target=0.9,
    )
    base.update(overrides)
    return ConfigStateArrays(**base)


class TestFeatureSchema:
    def test_schema_matches_names(self):
        schema = feature_schema()
        assert schema["version"] == FEATURE_VERSION
        assert schema["names"] == list(FEATURE_NAMES)

    def test_bias_is_last_feature(self):
        assert FEATURE_NAMES[-1] == "bias"


class TestFeatureMatrix:
    def test_shape_and_bounds(self):
        features = feature_matrix(_state())
        assert features.shape == (3, len(FEATURE_NAMES))
        assert np.all(features >= -1.0) and np.all(features <= 1.0)

    def test_bias_column_is_one(self):
        features = feature_matrix(_state())
        assert np.all(features[:, FEATURE_NAMES.index("bias")] == 1.0)

    def test_unstarted_defaults(self):
        # Row 0 has no epochs: gain 0, ert/confidence at the "unknown,
        # not hopeless" 0.5 prior.
        features = feature_matrix(_state())
        row = features[0]
        assert row[FEATURE_NAMES.index("gain")] == 0.0
        assert row[FEATURE_NAMES.index("ert")] == 0.5
        assert row[FEATURE_NAMES.index("confidence")] == 0.5
        assert row[FEATURE_NAMES.index("progress")] == 0.0

    def test_target_met_zeroes_ert(self):
        state = _state(last=np.array([0.0, 0.95, 0.8]))
        features = feature_matrix(state)
        assert features[1, FEATURE_NAMES.index("ert")] == 0.0

    def test_stalled_config_gets_unreachable_ert(self):
        # No gain over the last window and short of target -> ert 1.
        state = _state(
            last=np.array([0.0, 0.4, 0.8]),
            prev=np.array([0.0, 0.4, 0.8]),
        )
        features = feature_matrix(state)
        assert features[1, FEATURE_NAMES.index("ert")] == 1.0
        assert features[2, FEATURE_NAMES.index("ert")] == 1.0

    def test_time_left_clipped(self):
        features = feature_matrix(_state(elapsed=7200.0))
        assert np.all(features[:, FEATURE_NAMES.index("time_left")] == 0.0)


class TestArraysFromJobs:
    def test_serve_path_matches_history(self):
        workload = build_workload("cifar10")
        domain = workload.domain

        class FakeJob:
            def __init__(self, metrics, seconds):
                self.metrics = list(metrics)
                self.history = [SimpleNamespace(metric=m) for m in metrics]
                self.best_metric = max(metrics) if metrics else None
                self.epochs_completed = len(metrics)
                self.total_training_time = seconds

        window = domain.eval_boundary
        history = [0.30 + 0.01 * i for i in range(window + 2)]
        jobs = [FakeJob([], 0.0), FakeJob(history, 55.0)]
        state = arrays_from_jobs(
            jobs,
            domain=domain,
            elapsed=100.0,
            tmax=3600.0,
            slots=4,
            target=domain.target,
        )
        assert state.n_configs == 2
        assert state.epochs[0] == 0 and state.last[0] == 0.0
        assert state.epochs[1] == len(history)
        assert state.invested[1] == pytest.approx(55.0)
        expected_last = float(domain.normalize(history[-1]))
        expected_prev = float(domain.normalize(history[-1 - window]))
        assert state.last[1] == pytest.approx(expected_last)
        assert state.prev[1] == pytest.approx(expected_prev)
        assert state.best[1] == pytest.approx(expected_last)
        # The serve-path state featurizes identically to any other
        # ConfigStateArrays — shared code, no skew by construction.
        features = feature_matrix(state)
        assert features.shape == (2, len(FEATURE_NAMES))


def _reference_arrays(jobs, domain):
    """The full-history serve path: normalize every job's whole metric
    series, then read last, one window ago and best off it."""
    from repro.metrics.stats import minmax_normalize

    window = domain.eval_boundary
    n = len(jobs)
    epochs = np.zeros(n, dtype=int)
    last, prev, best, invested = (np.zeros(n) for _ in range(4))
    for index, job in enumerate(jobs):
        history = [stat.metric for stat in job.history]
        epochs[index] = job.history[-1].epoch if job.history else 0
        invested[index] = sum(stat.duration for stat in job.history)
        if not history:
            continue
        values = np.asarray(history, dtype=float)
        if domain.normalizes:
            normalized = minmax_normalize(values, domain.r_min, domain.r_max)
        else:
            normalized = np.clip(values, 0.0, 1.0)
        last[index] = float(normalized[-1])
        best[index] = float(normalized.max())
        if len(normalized) > window:
            prev[index] = float(normalized[-1 - window])
    return epochs, last, prev, best, invested


@pytest.mark.parametrize(
    "workload_name, low, high",
    # Both sides of each domain's normalization: cifar10 clips to
    # [0, 1], lunarlander min-max scales [-500, 300] and clips.
    [("cifar10", -0.2, 1.2), ("lunarlander", -700.0, 450.0)],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arrays_from_jobs_equals_full_history_reference(
    workload_name, low, high, seed
):
    from repro.framework.events import AppStat
    from repro.framework.job import Job

    domain = build_workload(workload_name).domain
    window = domain.eval_boundary
    rng = np.random.default_rng(seed)

    def record(job, count):
        start = job.epochs_completed
        for epoch in range(start + 1, start + count + 1):
            job.record(AppStat(
                job_id=job.job_id,
                epoch=epoch,
                metric=float(rng.uniform(low, high)),
                duration=float(rng.uniform(1.0, 90.0)),
                timestamp=0.0,
                machine_id="m0",
            ))

    jobs = [Job(job_id=f"j{i}", config={}) for i in range(12)]
    for job in jobs:
        record(job, int(rng.integers(0, 3 * window)))

    def check():
        state = arrays_from_jobs(
            jobs, domain=domain, elapsed=500.0, tmax=7200.0, slots=4,
            target=domain.target,
        )
        epochs, last, prev, best, invested = _reference_arrays(jobs, domain)
        np.testing.assert_array_equal(state.epochs, epochs)
        np.testing.assert_array_equal(state.last, last)
        np.testing.assert_array_equal(state.prev, prev)
        np.testing.assert_array_equal(state.best, best)
        np.testing.assert_array_equal(state.invested, invested)

    check()
    # Truncate (a machine failure) and re-record the lost epochs with
    # new values: the history regains its old length, so a summary
    # keyed on length alone would go stale.
    for job in jobs:
        record(job, job.truncate_history(int(rng.integers(0, window))))
    check()
    for job in jobs:
        job.truncate_history(int(rng.integers(0, window)))
    check()
