"""Pinned observation streams of the calibrated synthetic workloads.

Every scheduler, fig bench and lab cell sees these workloads only
through their per-epoch ``(duration, metric, extras)`` streams, so the
streams are pinned bit for bit: a digest over each stepped
:class:`EpochResult`, over a run resumed from a mid-run snapshot, and
over the trace :func:`record_trace` records (the batched
``observed_stream`` hook, where a run offers one).  Hand-built runs on
curves at the clip bounds and at the one-second duration floor pin the
clipping too, which the calibrated curves never reach.  A refactor of
the workload code must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim.trace import record_trace
from repro.workloads.cifar10 import Cifar10Workload, SyntheticSupervisedRun
from repro.workloads.lstm_sparsity import LSTMSparsityWorkload
from repro.workloads.lunarlander import LunarLanderWorkload, SyntheticRLRun

CONFIGS = 12
SEEDS = (0, 3)

#: blake2b-128 over the streams below, one per workload.
DIGESTS = {
    "cifar10": "3426a36595998f3a12feaced0e5bf97b",
    "lunarlander": "b5790a9c61a2a75218e971452b45029a",
    "lstm": "047e419258178783d366e12bd442d4c3",
}

WORKLOADS = {
    "cifar10": Cifar10Workload,
    "lunarlander": LunarLanderWorkload,
    "lstm": LSTMSparsityWorkload,
}


def _feed(digest, *values) -> None:
    digest.update(repr(values).encode())
    digest.update(b"\n")


def _feed_result(digest, result) -> None:
    _feed(
        digest,
        result.epoch,
        result.duration,
        result.metric,
        result.done,
        sorted(result.extras.items()),
    )


def _step_out(run):
    results = []
    while not run.finished:
        results.append(run.step())
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_streams_are_pinned(name):
    workload = WORKLOADS[name]()
    max_epochs = workload.domain.max_epochs
    rng = np.random.default_rng(4317)
    configs = [workload.space.sample(rng) for _ in range(CONFIGS)]
    digest = hashlib.blake2b(digest_size=16)
    for seed in SEEDS:
        streams = []
        for config in configs:
            stepped = _step_out(workload.create_run(config, seed=seed))
            assert len(stepped) == max_epochs
            for result in stepped:
                _feed_result(digest, result)
            streams.append(stepped)

            # A snapshot taken mid-run and restored into a fresh run
            # continues the same stream.
            cut = max_epochs // 3
            source = workload.create_run(config, seed=seed)
            for _ in range(cut):
                source.step()
            state = source.snapshot_state()
            assert sorted(state) == ["epoch", "rng_state"]
            _feed(digest, state["epoch"], state["rng_state"])
            resumed = workload.create_run(config, seed=seed)
            resumed.restore_state(state)
            assert resumed.epochs_completed == cut
            tail = _step_out(resumed)
            assert tail == stepped[cut:]
            for result in tail:
                _feed_result(digest, result)

        trace = record_trace(workload, configs, seed=seed)
        np.testing.assert_array_equal(
            trace.durations, [[r.duration for r in s] for s in streams]
        )
        np.testing.assert_array_equal(
            trace.metrics, [[r.metric for r in s] for s in streams]
        )
        digest.update(trace.durations.tobytes())
        digest.update(trace.metrics.tobytes())
    assert digest.hexdigest() == DIGESTS[name]


#: blake2b-128 of hand-built runs whose curves sit at a clip bound, with
#: a one-second mean epoch so about half the durations hit their floor.
CLIPPED_DIGESTS = {
    "cifar10-high": "9fd32b6c611b529e8a9f57c5d24cb790",
    "cifar10-low": "b9bbf0f1129cb0619207afeddf8397d5",
    "lunarlander-high": "99fe653bfc26db1fab651dec16daadee",
    "lunarlander-low": "7b445f8cb756ed638eb12c18563b26e5",
}

CLIPPED = {
    "cifar10-high": (SyntheticSupervisedRun, Cifar10Workload, 0.996, 1.0),
    "cifar10-low": (SyntheticSupervisedRun, Cifar10Workload, 0.004, 0.0),
    "lunarlander-high": (SyntheticRLRun, LunarLanderWorkload, 296.0, 300.0),
    "lunarlander-low": (SyntheticRLRun, LunarLanderWorkload, -496.0, -500.0),
}


@pytest.mark.parametrize("name", list(CLIPPED))
def test_clipped_streams_are_pinned(name):
    run_class, workload_class, level, bound = CLIPPED[name]
    config = workload_class().space.sample(np.random.default_rng(29))
    digest = hashlib.blake2b(digest_size=16)
    for seed in SEEDS:

        def build():
            return run_class(
                config=config,
                quantile=0.5,
                seed=seed,
                true_curve=np.full(40, level),
                epoch_seconds=1.0,
            )

        stepped = _step_out(build())
        assert bound in [result.metric for result in stepped]
        assert 1.0 in [result.duration for result in stepped]
        for result in stepped:
            _feed_result(digest, result)
        durations, metrics = build().observed_stream()
        np.testing.assert_array_equal(durations, [r.duration for r in stepped])
        np.testing.assert_array_equal(metrics, [r.metric for r in stepped])
    assert digest.hexdigest() == CLIPPED_DIGESTS[name]
