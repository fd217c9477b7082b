"""Trace recording and replay (§7.1's Trace Generator).

One property per test.  The trace and the learned scheduler's
training environment rest on one guarantee: a configuration's
observed stream is a pure function of (configuration content,
experiment seed), never of the order configurations were minted or
scheduled in.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import standard_configs
from repro.cli import main as cli_main
from repro.core.pop import POPPolicy
from repro.framework.experiment import ExperimentSpec
from repro.generators.random_gen import RandomGenerator
from repro.policies.default import DefaultPolicy
from repro.sim.runner import run_simulation
from repro.sim.trace import Trace, TraceWorkload, record_trace
from repro.workloads.calibration import config_key
from repro.workloads.cifar10 import Cifar10Workload
from repro.workloads.lunarlander import LunarLanderWorkload

SEED = 5

#: Written by ``repro record-trace --workload cifar10 --configs 4
#: --gen-seed 3 --seed 2`` at v1.8.0, before ``Trace`` held arrays.
FIXTURE = (
    Path(__file__).parent.parent / "fixtures" / "trace_1_8" / "cifar10.trace.json"
)


@pytest.fixture(scope="module")
def small_trace(cifar10_workload):
    configs = standard_configs(cifar10_workload, 6)
    return record_trace(cifar10_workload, configs, seed=0)


@pytest.fixture(scope="module")
def configs(cifar10_workload):
    generator = RandomGenerator(cifar10_workload.space, seed=11, max_configs=8)
    return [generator.create_job()[1] for _ in range(8)]


def test_record_covers_all_epochs(small_trace, cifar10_workload):
    assert len(small_trace) == 6
    shape = (6, cifar10_workload.domain.max_epochs)
    assert small_trace.durations.shape == shape
    assert small_trace.metrics.shape == shape


@pytest.mark.parametrize(
    "make_workload", [Cifar10Workload, LunarLanderWorkload]
)
def test_observed_stream_matches_scalar_stepping(make_workload):
    """The batched hook draws the same RNG stream as epoch stepping."""
    workload = make_workload()
    generator = RandomGenerator(workload.space, seed=2, max_configs=3)
    for _ in range(3):
        _, config = generator.create_job()
        durations, metrics = workload.create_run(
            config, seed=SEED
        ).observed_stream()
        run = workload.create_run(config, seed=SEED)
        scalar_durations, scalar_metrics = [], []
        while not run.finished:
            result = run.step()
            scalar_durations.append(result.duration)
            scalar_metrics.append(result.metric)
        np.testing.assert_array_equal(durations, scalar_durations)
        np.testing.assert_array_equal(metrics, scalar_metrics)


def test_recorded_streams_reorder_invariant(cifar10_workload, configs):
    """Each configuration's stream survives any list permutation."""
    forward = record_trace(cifar10_workload, configs, seed=SEED)
    order = list(reversed(range(len(configs))))
    backward = record_trace(
        cifar10_workload, [configs[i] for i in order], seed=SEED
    )
    np.testing.assert_array_equal(backward.durations, forward.durations[order])
    np.testing.assert_array_equal(backward.metrics, forward.metrics[order])


def test_recorded_streams_subset_invariant(cifar10_workload, configs):
    """Dropping configurations leaves the survivors' streams alone."""
    full = record_trace(cifar10_workload, configs, seed=SEED)
    subset = record_trace(cifar10_workload, configs[::2], seed=SEED)
    np.testing.assert_array_equal(subset.durations, full.durations[::2])
    np.testing.assert_array_equal(subset.metrics, full.metrics[::2])


def test_scalar_des_per_config_curves_order_independent(
    cifar10_workload, configs
):
    """Permuting the configuration list must not change any config's
    observed curve in the *scalar* DES (per-config RNG isolation)."""
    spec = ExperimentSpec(
        num_machines=2,
        num_configs=len(configs),
        tmax=48 * 3600.0,
        seed=SEED,
        stop_on_target=False,
    )
    forward = run_simulation(
        cifar10_workload, DefaultPolicy(), configs=configs, spec=spec
    )
    permutation = [3, 0, 6, 1, 7, 4, 2, 5]
    backward = run_simulation(
        cifar10_workload,
        DefaultPolicy(),
        configs=[configs[i] for i in permutation],
        spec=spec,
    )
    by_key_forward = {
        config_key(job.config): job.metrics for job in forward.jobs
    }
    by_key_backward = {
        config_key(job.config): job.metrics for job in backward.jobs
    }
    assert by_key_forward.keys() == by_key_backward.keys()
    for key, curve in by_key_forward.items():
        assert by_key_backward[key] == curve


def test_pop_over_trace_equals_pop_over_live_workload(
    cifar10_workload, configs
):
    """Replaying the recorded streams reproduces the live result,
    field for field."""
    spec = ExperimentSpec(
        num_machines=2, num_configs=len(configs), tmax=24 * 3600.0, seed=SEED
    )
    live = run_simulation(
        cifar10_workload, POPPolicy(), configs=configs, spec=spec
    )
    replay = run_simulation(
        TraceWorkload(record_trace(cifar10_workload, configs, seed=SEED)),
        POPPolicy(),
        configs=configs,
        spec=spec,
    )
    assert replay.to_dict() == live.to_dict()


def test_replay_reproduces_streams(small_trace):
    workload = TraceWorkload(small_trace)
    run = workload.create_run(small_trace.configs[2])
    for epoch in range(20):
        result = run.step()
        assert result.duration == small_trace.durations[2, epoch]
        assert result.metric == small_trace.metrics[2, epoch]


def test_replay_unknown_config_rejected(small_trace):
    workload = TraceWorkload(small_trace)
    with pytest.raises(KeyError, match="not present"):
        workload.create_run({"bogus": 1})


def test_keyed_lookup_finds_every_config_after_save_load(
    small_trace, tmp_path
):
    path = tmp_path / "trace.json"
    small_trace.save(path)
    loaded = Trace.load(path)
    workload = TraceWorkload(loaded)
    for row, config in enumerate(loaded.configs):
        run = workload.create_run(dict(config))
        first = run.step()
        assert first.duration == small_trace.durations[row, 0]
        assert first.metric == small_trace.metrics[row, 0]


def test_replay_suspend_resume(small_trace):
    workload = TraceWorkload(small_trace)
    run = workload.create_run(small_trace.configs[0])
    for _ in range(5):
        run.step()
    state = run.snapshot_state()
    after = run.step().metric
    fresh = workload.create_run(small_trace.configs[0])
    fresh.restore_state(state)
    assert fresh.step().metric == after
    with pytest.raises(ValueError, match="out of range"):
        fresh.restore_state({"epoch": 9999})


def test_reorder_moves_streams_with_configs(small_trace):
    perm = [5, 4, 3, 2, 1, 0]
    reordered = small_trace.reorder(perm)
    assert reordered.configs[0] == small_trace.configs[5]
    np.testing.assert_array_equal(
        reordered.durations, small_trace.durations[perm]
    )
    np.testing.assert_array_equal(reordered.metrics, small_trace.metrics[perm])


def test_recorded_streams_reordered_view(cifar10_workload, configs):
    """Reordering a recorded trace moves each row with its config."""
    trace = record_trace(cifar10_workload, configs, seed=SEED)
    order = [1, 0, 3, 2, 5, 4, 7, 6]
    view = trace.reorder(order)
    for new_row, old_row in enumerate(order):
        assert view.configs[new_row] == trace.configs[old_row]
        np.testing.assert_array_equal(
            view.metrics[new_row], trace.metrics[old_row]
        )
        np.testing.assert_array_equal(
            view.durations[new_row], trace.durations[old_row]
        )
    with pytest.raises(ValueError):
        trace.reorder([0, 0, 1, 2, 3, 4, 5, 6])


def test_reorder_validates_permutation(small_trace):
    with pytest.raises(ValueError, match="rearrangement"):
        small_trace.reorder([0, 0, 1, 2, 3, 4])


def test_shuffled_deterministic(small_trace):
    assert small_trace.shuffled(3).configs == small_trace.shuffled(3).configs
    assert small_trace.shuffled(3).configs != small_trace.shuffled(4).configs


def test_save_load_roundtrip(small_trace, tmp_path):
    path = tmp_path / "trace.json"
    small_trace.save(path)
    loaded = Trace.load(path)
    assert loaded.configs == small_trace.configs
    np.testing.assert_array_equal(loaded.durations, small_trace.durations)
    np.testing.assert_array_equal(loaded.metrics, small_trace.metrics)
    assert loaded.domain == small_trace.domain


def test_stream_length_validated(small_trace):
    with pytest.raises(ValueError, match="epochs"):
        Trace(
            configs=(small_trace.configs[0],),
            durations=[[60.0]],
            metrics=[[0.1]],
            domain=small_trace.domain,
        )


@pytest.mark.parametrize(
    "column, value",
    [
        pytest.param(1, float("nan"), id="nan-metric"),
        pytest.param(1, float("inf"), id="inf-metric"),
        pytest.param(0, float("nan"), id="nan-duration"),
        pytest.param(0, float("inf"), id="inf-duration"),
        pytest.param(0, -60.0, id="negative-duration"),
        pytest.param(0, 0.0, id="zero-duration"),
    ],
)
def test_malformed_trace_rejected_on_load(tmp_path, column, value):
    """A user-supplied trace with a non-finite metric or a duration
    that is not finite and positive fails on load, naming the cell."""
    payload = json.loads(FIXTURE.read_text())
    payload["streams"][2][7][column] = value
    path = tmp_path / "bad.trace.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="configuration 2, epoch 8"):
        Trace.load(path)


def test_final_metrics(small_trace):
    finals = small_trace.final_metrics()
    assert len(finals) == 6
    assert finals[0] == small_trace.metrics[0, -1]


def test_trace_replay_identical_experiments(small_trace):
    """Two simulations over the same trace are bit-identical — the
    property the order-sensitivity study (§7.2.2) depends on."""
    workload = TraceWorkload(small_trace)
    spec = ExperimentSpec(num_machines=2, num_configs=6, seed=0, stop_on_target=False)
    a = run_simulation(workload, DefaultPolicy(), configs=small_trace.configs, spec=spec)
    b = run_simulation(workload, DefaultPolicy(), configs=small_trace.configs, spec=spec)
    assert a.epochs_trained == b.epochs_trained
    assert a.finished_at == b.finished_at
    assert a.best_metric == b.best_metric


def test_trace_workload_space_requires_attachment(small_trace, cifar10_workload):
    bare = TraceWorkload(small_trace)
    with pytest.raises(RuntimeError, match="no search space"):
        _ = bare.space
    attached = TraceWorkload(small_trace, space=cifar10_workload.space)
    assert attached.space is cifar10_workload.space


def test_fixture_trace_rerecords_byte_identically(tmp_path):
    out = tmp_path / "cifar10.trace.json"
    cli_main([
        "record-trace", "--workload", "cifar10", "--configs", "4",
        "--gen-seed", "3", "--seed", "2", "--out", str(out),
    ])
    assert out.read_bytes() == FIXTURE.read_bytes()


def test_fixture_trace_loads_and_resaves_byte_identically(tmp_path):
    path = tmp_path / "resaved.trace.json"
    Trace.load(FIXTURE).save(path)
    assert path.read_bytes() == FIXTURE.read_bytes()


def test_fixture_trace_replays():
    trace = Trace.load(FIXTURE)
    spec = ExperimentSpec(
        num_machines=2, num_configs=len(trace), seed=0, stop_on_target=False
    )
    result = run_simulation(
        TraceWorkload(trace), POPPolicy(), configs=trace.configs, spec=spec
    )
    assert result.epochs_trained > 0
    replayed = {config_key(job.config): job.metrics for job in result.jobs}
    for row, config in enumerate(trace.configs):
        curve = replayed[config_key(config)]
        assert curve == trace.metrics[row, : len(curve)].tolist()
