"""The per-process memo of calibration reference scores."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.generators.space import SearchSpace, Uniform
from repro.workloads import calibration
from repro.workloads.calibration import QualityCalibrator
from repro.workloads.cifar10 import Cifar10Workload, _score, cifar10_space


def test_workloads_share_one_read_only_reference():
    first, second = Cifar10Workload(), Cifar10Workload()
    scores = first._calibrator._sorted_scores
    assert scores is second._calibrator._sorted_scores
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0] = 0.0


def test_memoised_quantiles_equal_a_fresh_computation(monkeypatch):
    cached = Cifar10Workload()
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    fresh = Cifar10Workload()
    assert fresh._calibrator._sorted_scores is not cached._calibrator._sorted_scores

    rng = np.random.default_rng(20170711)
    space = cifar10_space()
    by_hand = np.sort([_score(space.sample(rng)) for _ in range(4000)])
    np.testing.assert_array_equal(cached._calibrator._sorted_scores, by_hand)

    probe = np.random.default_rng(3)
    for _ in range(50):
        config = space.sample(probe)
        assert cached.quality_quantile(config) == fresh.quality_quantile(config)


def test_distinct_seeds_and_sizes_get_distinct_references():
    space = SearchSpace([Uniform("x", 0.0, 1.0)])

    def score(config):
        return config["x"]

    base = QualityCalibrator(space, score, n_reference=50, seed=1)
    assert QualityCalibrator(space, score, n_reference=50, seed=1)._sorted_scores \
        is base._sorted_scores
    assert QualityCalibrator(space, score, n_reference=50, seed=2)._sorted_scores \
        is not base._sorted_scores
    assert QualityCalibrator(space, score, n_reference=60, seed=1)._sorted_scores.size == 60


def test_fresh_lambdas_cannot_grow_the_memo_past_its_bound(monkeypatch):
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    space = SearchSpace([Uniform("x", 0.0, 1.0)])
    for _ in range(calibration._REFERENCE_CACHE_LIMIT + 5):
        QualityCalibrator(space, lambda config: config["x"], n_reference=20)
    assert len(calibration._REFERENCE_CACHE) == calibration._REFERENCE_CACHE_LIMIT


def test_non_finite_scores_are_rejected_and_not_memoised(monkeypatch):
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    space = SearchSpace([Uniform("x", 0.0, 1.0)])
    with pytest.raises(ValueError, match="non-finite"):
        QualityCalibrator(space, lambda config: float("nan"), n_reference=20)
    assert not calibration._REFERENCE_CACHE
