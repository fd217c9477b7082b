"""The threaded driver shared by the live and the cluster runtime."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import standard_configs
from repro.cluster import run_cluster
from repro.framework.events import LifecycleKind
from repro.framework.experiment import ExperimentSpec
from repro.policies.default import DefaultPolicy
from repro.runtime.local import run_live
from repro.sim.runner import run_simulation

RUNTIMES = [
    pytest.param(run_live, id="live"),
    pytest.param(run_cluster, id="cluster"),
]


def _stamps(result, kind):
    return [event.timestamp for event in result.lifecycle if event.kind is kind]


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_clock_reads_zero_until_the_drivers_launch(runtime, cifar10_workload):
    """Minting, worker spawn and ``begin()`` happen at time 0.0, as in
    the simulator: startup is not charged to the Tmax horizon."""
    configs = standard_configs(cifar10_workload, 2)
    spec = ExperimentSpec(
        num_machines=2, num_configs=2, seed=0, stop_on_target=False
    )
    result = runtime(
        cifar10_workload, DefaultPolicy(), configs=configs, spec=spec,
        time_scale=2e-5,
    )
    sim = run_simulation(
        cifar10_workload, DefaultPolicy(), configs=configs, spec=spec
    )
    # Default on 2 configs x 2 machines: begin() starts both jobs and
    # nothing starts later.
    for run in (sim, result):
        assert _stamps(run, LifecycleKind.CREATED) == [0.0, 0.0]
        assert _stamps(run, LifecycleKind.STARTED) == [0.0, 0.0]
    assert result.finished_at > 0.0


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_progress_hook_regrows_a_pool_the_setup_hook_shrank(
    runtime, cifar10_workload
):
    """The monitor wakes the drivers of machines a progress hook
    returns to service."""
    machines, n_configs = 3, 6
    regrown = []

    def shrink(scheduler):
        scheduler.resize(1)

    def regrow(scheduler):
        if not regrown:
            regrown.append(scheduler.result.epochs_trained)
            scheduler.resize(machines)

    result = runtime(
        cifar10_workload,
        DefaultPolicy(),
        configs=standard_configs(cifar10_workload, n_configs),
        spec=ExperimentSpec(
            num_machines=machines, num_configs=n_configs, seed=0,
            stop_on_target=False,
        ),
        time_scale=2e-5,
        setup_hook=shrink,
        progress_hook=regrow,
        progress_every_epochs=10,
    )
    assert regrown and regrown[0] < result.epochs_trained
    max_epochs = cifar10_workload.domain.max_epochs
    assert result.epochs_trained == n_configs * max_epochs
    returned_at = max(_stamps(result, LifecycleKind.MACHINE_RETURNED))
    hosts_after = {
        stat.machine_id
        for job in result.jobs
        for stat in job.history
        if stat.timestamp > returned_at
    }
    assert hosts_after == {f"machine-{index:02d}" for index in range(machines)}
