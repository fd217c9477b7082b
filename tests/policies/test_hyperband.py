"""Tests for the successive-halving SAP (end-to-end via simulation)."""

from __future__ import annotations

import pytest

from repro.framework.experiment import ExperimentSpec
from repro.framework.job import JobState
from repro.policies.hyperband import SuccessiveHalvingPolicy
from repro.sim.runner import run_simulation
from repro.analysis.experiments import standard_configs


def test_constructor_validation():
    with pytest.raises(ValueError, match="eta"):
        SuccessiveHalvingPolicy(eta=1.0)
    with pytest.raises(ValueError, match="initial_budget"):
        SuccessiveHalvingPolicy(initial_budget=0)


def test_successive_halving_eliminates_most_configs(cifar10_workload):
    configs = standard_configs(cifar10_workload, 18)
    policy = SuccessiveHalvingPolicy(eta=3.0, initial_budget=4)
    result = run_simulation(
        cifar10_workload,
        policy,
        configs=configs,
        spec=ExperimentSpec(
            num_machines=3, num_configs=18, seed=0, stop_on_target=False
        ),
    )
    # After rung 0 at most ceil(18/3)=6 survive, then 2, then 1.
    terminated = [j for j in result.jobs if j.state is JobState.TERMINATED]
    assert len(terminated) >= 12
    # Epochs spent must be far below exhaustive (18 x 120).
    assert result.epochs_trained < 18 * 120 / 3


def test_survivors_trained_longer_than_losers(cifar10_workload):
    configs = standard_configs(cifar10_workload, 9)
    policy = SuccessiveHalvingPolicy(eta=3.0, initial_budget=4)
    result = run_simulation(
        cifar10_workload,
        policy,
        configs=configs,
        spec=ExperimentSpec(
            num_machines=3, num_configs=9, seed=0, stop_on_target=False
        ),
    )
    by_state = {}
    for job in result.jobs:
        by_state.setdefault(job.state, []).append(job.epochs_completed)
    survivors = by_state.get(JobState.COMPLETED, []) + [
        max(epochs for epochs in by_state.get(JobState.TERMINATED, [0]))
    ]
    losers = sorted(by_state.get(JobState.TERMINATED, []))
    assert max(survivors) > losers[0]
    # rung budgets: losers killed at 4 or 12 epochs
    assert losers[0] <= 12


def test_best_survivor_quality(cifar10_workload):
    """The surviving config should be among the better ones."""
    configs = standard_configs(cifar10_workload, 12)
    finals = [
        cifar10_workload.create_run(c, seed=0).true_final_accuracy
        for c in configs
    ]
    policy = SuccessiveHalvingPolicy(eta=2.0, initial_budget=6)
    result = run_simulation(
        cifar10_workload,
        policy,
        configs=configs,
        spec=ExperimentSpec(
            num_machines=4, num_configs=12, seed=0, stop_on_target=False
        ),
    )
    longest = max(result.jobs, key=lambda j: j.epochs_completed)
    index = int(longest.job_id.split("-")[1])
    # The most-trained config is in the top half of true quality.
    assert finals[index] >= sorted(finals)[len(finals) // 2]


@pytest.mark.parametrize("policy_name", ["successive-halving", "hyperband"])
def test_allocation_starts_idle_jobs_in_queue_order(cifar10_workload, policy_name):
    """An allocation round starts its candidates head of the queue
    first: the initial round takes the first jobs in FIFO order."""
    from repro import registry
    from repro.framework.events import LifecycleKind

    configs = standard_configs(cifar10_workload, 12)
    result = run_simulation(
        cifar10_workload,
        registry.build_policy(policy_name),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=3, num_configs=12, seed=0, stop_on_target=False
        ),
    )
    created = [job.job_id for job in result.jobs]
    first_round = [
        event.job_id for event in result.lifecycle
        if event.kind is LifecycleKind.STARTED and event.timestamp == 0.0
    ]
    assert first_round == created[:3]
