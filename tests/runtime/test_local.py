"""Tests for the live threaded runtime."""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.experiments import standard_configs
from repro.framework.experiment import ExperimentSpec
from repro.framework.job import JobState
from repro.policies.bandit import BanditPolicy
from repro.policies.default import DefaultPolicy
from repro.runtime.local import run_live
from repro.sim.runner import run_simulation


def test_requires_generator_xor_configs(cifar10_workload):
    with pytest.raises(ValueError, match="exactly one"):
        run_live(cifar10_workload, DefaultPolicy())


def test_time_scale_validation(cifar10_workload):
    configs = standard_configs(cifar10_workload, 2)
    with pytest.raises(ValueError, match="time_scale"):
        run_live(
            cifar10_workload, DefaultPolicy(), configs=configs, time_scale=0.0
        )
    with pytest.raises(ValueError, match="machine_mtbf"):
        run_live(
            cifar10_workload, DefaultPolicy(), configs=configs,
            spec=ExperimentSpec(machine_mtbf=4000.0),
        )


def test_live_default_run_completes_all_jobs(cifar10_workload):
    configs = standard_configs(cifar10_workload, 4)
    result = run_live(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=2, num_configs=4, seed=0, stop_on_target=False
        ),
        time_scale=2e-5,
    )
    assert all(job.state is JobState.COMPLETED for job in result.jobs)
    assert result.epochs_trained == 4 * cifar10_workload.domain.max_epochs


def test_live_stops_on_target(cifar10_workload):
    configs = standard_configs(cifar10_workload, 8)
    result = run_live(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(num_machines=4, num_configs=8, seed=0),
        time_scale=2e-5,
    )
    if result.reached_target:  # depends on the config pool
        assert result.time_to_target is not None
        assert result.best_metric >= cifar10_workload.domain.target


def test_live_matches_simulation_for_bandit(cifar10_workload):
    """Fig 12a: live and simulated runs agree closely.  Bandit is
    deterministic given the trace, so only timing jitter differs."""
    configs = standard_configs(cifar10_workload, 10)
    spec = ExperimentSpec(
        num_machines=3, num_configs=10, seed=0, stop_on_target=False
    )
    sim = run_simulation(
        cifar10_workload, BanditPolicy(), configs=configs, spec=spec
    )
    # The time scale must keep per-epoch Python overhead (~1 ms) small
    # relative to the scaled epoch duration, just as the paper's live
    # runs keep scheduling overhead small relative to real epochs.
    live = run_live(
        cifar10_workload,
        BanditPolicy(),
        configs=configs,
        spec=spec,
        time_scale=3e-4,
    )
    assert live.epochs_trained == sim.epochs_trained
    states_sim = sorted((j.job_id, j.state.value) for j in sim.jobs)
    states_live = sorted((j.job_id, j.state.value) for j in live.jobs)
    assert states_sim == states_live
    # wall-clock agreement within the paper's 13% validation error
    assert live.finished_at == pytest.approx(sim.finished_at, rel=0.13)


def test_live_cancel_event_stops_run_with_partial_result(cifar10_workload):
    """Setting the cancel event mid-run stops the workers gracefully
    and returns the partial result — the daemon's DELETE path."""
    configs = standard_configs(cifar10_workload, 4)
    cancel = threading.Event()
    progressed = []

    def hook(scheduler):
        progressed.append(scheduler.result.epochs_trained)
        cancel.set()

    result = run_live(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=2, num_configs=4, seed=0, stop_on_target=False
        ),
        time_scale=2e-3,
        cancel_event=cancel,
        progress_hook=hook,
        progress_every_epochs=10,
    )
    full = 4 * cifar10_workload.domain.max_epochs
    assert progressed and progressed[0] >= 10
    assert 0 < result.epochs_trained < full


def test_live_preset_cancel_event_returns_promptly(cifar10_workload):
    configs = standard_configs(cifar10_workload, 2)
    cancel = threading.Event()
    cancel.set()
    start = time.monotonic()
    result = run_live(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=2, num_configs=2, seed=0, stop_on_target=False
        ),
        time_scale=2e-3,  # full run would take ~7s wall
        cancel_event=cancel,
    )
    assert time.monotonic() - start < 2.0
    assert result.epochs_trained < 2 * cifar10_workload.domain.max_epochs


def test_live_timestamps_on_simulated_axis(cifar10_workload):
    configs = standard_configs(cifar10_workload, 2)
    result = run_live(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=2, num_configs=2, seed=0, stop_on_target=False
        ),
        time_scale=2e-5,
    )
    # 120 epochs x ~60 s each ~ 7200 simulated seconds.
    assert 3000.0 < result.finished_at < 20000.0
