"""The per-process memo of calibration reference scores."""

from __future__ import annotations

import hashlib
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.space import SearchSpace, Uniform
from repro.workloads import calibration, cifar10, lunarlander
from repro.workloads.calibration import (
    QualityCalibrator, config_key, stable_config_seed,
)
from repro.workloads.cifar10 import Cifar10Workload, _score, cifar10_space
from repro.workloads.lstm_sparsity import LSTMSparsityWorkload, lstm_space
from repro.workloads.lunarlander import LunarLanderWorkload, lunarlander_space


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


def test_two_threads_building_one_workload_score_its_sample_once(monkeypatch):
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    calls = []

    def counting_score(config):
        calls.append(None)
        return _score(config)

    monkeypatch.setattr(cifar10, "_score", counting_score)
    start = threading.Barrier(2)
    built = []

    def build():
        start.wait()
        built.append(Cifar10Workload())

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 4000
    assert built[0]._calibrator._sorted_scores is built[1]._calibrator._sorted_scores


# Every code point a key may hold: ASCII, the BMP, astral planes and
# lone surrogates (which ``characters()`` leaves out by default).
_ANY_CODE_POINT = st.characters(exclude_categories=())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=_ANY_CODE_POINT, max_size=40), max_size=8))
def test_batched_fnv_equals_the_scalar_loop(keys):
    assert calibration._fnv_accumulate_many(keys) == [
        calibration._fnv_accumulate(key) for key in keys
    ]


@pytest.mark.parametrize(
    "space, seed",
    [(cifar10_space, 20170711), (lunarlander_space, 20170712), (lstm_space, 20170713)],
)
def test_batched_fnv_equals_the_scalar_loop_on_every_reference_key(space, seed):
    space = space()
    rng = np.random.default_rng(seed)
    keys = [config_key(space.sample(rng)) for _ in range(4000)]
    assert calibration._fnv_accumulate_many(keys) == [
        calibration._fnv_accumulate(key) for key in keys
    ]


#: blake2b-128 of each workload's ``_sorted_scores`` bytes, computed with
#: the scalar FNV loop alone: the batched pass must not move a quantile.
_REFERENCE_DIGESTS = {
    Cifar10Workload: "958fa487f9d78df2ed87bc46ab35785f",
    LunarLanderWorkload: "0e274f28ff0d1c71b519c821b8c871be",
    LSTMSparsityWorkload: "96ce04df1c94a581239a1b081b4801bf",
}


@pytest.mark.parametrize("workload", list(_REFERENCE_DIGESTS), ids=lambda w: w.__name__)
def test_reference_scores_are_byte_identical(workload, monkeypatch):
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    monkeypatch.setattr(calibration, "_FNV_CACHE", {})
    scores = workload()._calibrator._sorted_scores
    digest = hashlib.blake2b(scores.tobytes(), digest_size=16).hexdigest()
    assert digest == _REFERENCE_DIGESTS[workload]


@pytest.mark.parametrize("prefilled", [0, 7, 10])
def test_each_reference_chunk_is_hashed_in_one_pass_and_lent_to_the_memo(
    prefilled, monkeypatch
):
    """However full the seed memo is, the score function's seed calls
    all hit it: each chunk's keys are hashed in one batched pass, lent
    to the memo while the chunk is scored, and taken out again."""
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    monkeypatch.setattr(calibration, "_FNV_CACHE_LIMIT", 10)
    memo = {f"k{i}": i for i in range(prefilled)}
    monkeypatch.setattr(calibration, "_FNV_CACHE", memo)
    batches, scalar = [], []
    many, one = calibration._fnv_accumulate_many, calibration._fnv_accumulate
    monkeypatch.setattr(
        calibration, "_fnv_accumulate_many",
        lambda keys: batches.append(len(keys)) or many(keys),
    )
    monkeypatch.setattr(
        calibration, "_fnv_accumulate",
        lambda key: scalar.append(key) or one(key),
    )
    seeds = {}

    def score(config):
        seeds[config_key(config)] = stable_config_seed(config, salt=3)
        return _score(config)

    chunk = calibration._REFERENCE_CHUNK
    n_reference = 2 * chunk + 88
    calibrator = QualityCalibrator(cifar10_space(), score, n_reference, seed=5)
    assert batches == [chunk, chunk, 88]
    assert scalar == []
    assert memo == {f"k{i}": i for i in range(prefilled)}

    # The same draws, scores and seeds as one unchunked scalar pass.
    monkeypatch.setattr(calibration, "_FNV_CACHE", {})
    rng = np.random.default_rng(5)
    configs = [cifar10_space().sample(rng) for _ in range(n_reference)]
    np.testing.assert_array_equal(
        calibrator._sorted_scores, np.sort([_score(config) for config in configs])
    )
    assert seeds == {
        config_key(config): stable_config_seed(config, salt=3) for config in configs
    }


@pytest.mark.parametrize("prefilled", [0, 7, 10])
def test_priming_never_grows_the_fnv_memo_past_its_bound(prefilled, monkeypatch):
    """A build primes the seed memo one chunk at a time and takes each
    chunk out again, so it leaves the memo within its bound however
    full it was; the runs that seed after it fill it no further than
    its bound, with the right accumulators."""
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    monkeypatch.setattr(calibration, "_FNV_CACHE_LIMIT", 10)
    memo = {f"k{i}": i for i in range(prefilled)}
    monkeypatch.setattr(calibration, "_FNV_CACHE", memo)
    QualityCalibrator(cifar10_space(), _score, 600, seed=5)
    assert len(memo) == prefilled
    rng = np.random.default_rng(0)
    for _ in range(25):
        stable_config_seed(cifar10_space().sample(rng), salt=3)
        assert len(memo) <= 10
    for key, acc in memo.items():
        if not key.startswith("k"):
            assert acc == calibration._fnv_accumulate(key)


@pytest.mark.parametrize("workload", list(_REFERENCE_DIGESTS), ids=lambda w: w.__name__)
def test_a_build_from_empty_memos_peaks_below_4_mb(workload, monkeypatch):
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    monkeypatch.setattr(calibration, "_FNV_CACHE", {})
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        workload()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - base < 4 * 2**20


@pytest.mark.parametrize(
    "workload, space, seed",
    [
        (Cifar10Workload, cifar10_space, 20170711),
        (LunarLanderWorkload, lunarlander_space, 20170712),
        (LSTMSparsityWorkload, lstm_space, 20170713),
    ],
    ids=["cifar10", "lunarlander", "lstm"],
)
def test_a_build_leaves_the_seed_memo_as_it_found_it(
    workload, space, seed, monkeypatch
):
    monkeypatch.setattr(calibration, "_REFERENCE_CACHE", OrderedDict())
    # One entry a run put there, and one that is also a reference key.
    reference = config_key(space().sample(np.random.default_rng(seed)))
    before = {
        "run": 7,
        reference: calibration._fnv_accumulate(reference),
    }
    memo = dict(before)
    monkeypatch.setattr(calibration, "_FNV_CACHE", memo)
    workload()
    assert memo == before


def _stream(run):
    return [run.step() for _ in range(run._max_epochs)]


@pytest.mark.parametrize(
    "module, workload_class, run_class",
    [
        (cifar10, Cifar10Workload, cifar10.SyntheticSupervisedRun),
        (lunarlander, LunarLanderWorkload, lunarlander.SyntheticRLRun),
    ],
    ids=["cifar10", "lunarlander"],
)
def test_memoised_runs_step_out_the_memo_free_stream(
    module, workload_class, run_class, monkeypatch
):
    monkeypatch.setattr(calibration, "_STATIC_CACHE", {})
    workload = workload_class()
    rng = np.random.default_rng(3)
    for _ in range(6):
        config = workload.space.sample(rng)
        quantile = workload._calibrator.quantile(config)
        by_hand = run_class(
            config=config,
            quantile=quantile,
            seed=5,
            true_curve=module._true_curve(config, quantile, module.MAX_EPOCHS),
            epoch_seconds=module._mean_epoch_seconds(config),
        )
        first = workload.create_run(config, seed=5)
        second = workload.create_run(dict(config), seed=5)  # a memo hit
        assert second._true_curve is first._true_curve
        assert not first._true_curve.flags.writeable
        expected = _stream(by_hand)
        assert _stream(first) == expected
        assert _stream(second) == expected
        # Resuming a memo-built run from a snapshot continues the stream.
        resumed = workload.create_run(config, seed=5)
        half = module.MAX_EPOCHS // 2
        for _ in range(half):
            resumed.step()
        state = resumed.snapshot_state()
        restored = workload.create_run(config, seed=5)
        restored.restore_state(state)
        assert [restored.step() for _ in range(half)] == expected[half:2 * half]


def test_calibration_seeds_never_share_a_static_entry(monkeypatch):
    monkeypatch.setattr(calibration, "_STATIC_CACHE", {})
    config = cifar10_space().sample(np.random.default_rng(8))
    default = Cifar10Workload()
    other = Cifar10Workload(calibration_seed=7)
    runs = [default.create_run(config), other.create_run(config)]
    assert len(calibration._STATIC_CACHE) == 2
    assert runs[0]._quantile == default.quality_quantile(config)
    assert runs[1]._quantile == other.quality_quantile(config)
    assert runs[0]._true_curve is not runs[1]._true_curve
    # The same seed on another workload is another entry too.
    lunar = LunarLanderWorkload(calibration_seed=20170711)
    lunar.create_run(lunarlander_space().sample(np.random.default_rng(8)))
    assert len(calibration._STATIC_CACHE) == 3


def test_static_memo_stays_at_its_bound(monkeypatch):
    monkeypatch.setattr(calibration, "_STATIC_CACHE", {})
    monkeypatch.setattr(calibration, "_STATIC_CACHE_LIMIT", 5)
    workload = Cifar10Workload()
    rng = np.random.default_rng(4)
    configs = [workload.space.sample(rng) for _ in range(23)]
    for config in configs + configs:
        run = workload.create_run(config, seed=1)
        assert len(calibration._STATIC_CACHE) <= 5
        assert run._quantile == workload.quality_quantile(config)
