"""The pool gauges are set only when their values change, yet every read
sees what setting them at every epoch would give.

``_record_pool_snapshot`` sets ``slots_promising_ratio`` and
``jobs_active`` only when the pair differs from the last one it set.  A
test-only scheduler subclass sets both on every pool snapshot, the way
the scheduler did before; the registry read at every epoch boundary and
the final result must be the same under both, for every registered
policy and across a mid-run resize, which moves the policies' slot
counts.
"""

from __future__ import annotations

import pytest

import repro.sim.runner as sim_runner
from repro.analysis.experiments import standard_configs
from repro.framework.experiment import ExperimentSpec
from repro.framework.scheduler import HyperDriveScheduler
from repro.observability import Recorder
from repro.registry import POLICIES, build_policy
from repro.sim.runner import run_simulation

#: Families whose values are wall-clock times, which differ run to run.
WALL_CLOCK = ("predictor_fit_seconds",)
#: A pool where POP's promising slots move while the active count
#: does not (cifar10, seed 0), so a gauge keyed on one would go stale.
MACHINES, CONFIGS = 8, 20


class EveryEpochGauges(HyperDriveScheduler):
    """The reference: both gauges set on every pool snapshot."""

    def _record_pool_snapshot(self, now: float) -> None:
        super()._record_pool_snapshot(now)
        num_machines = self.resource_manager.num_machines
        slots = getattr(self.policy, "promising_slots", 0)
        self._m_promising_ratio.set(
            slots / num_machines if num_machines else 0.0
        )
        self._m_jobs_active.set(self.job_manager.num_active)


def registry_read(recorder):
    families = recorder.metrics.to_dict()
    for name in WALL_CLOCK:
        families.pop(name, None)
    return families


def shrink_then_grow(scheduler):
    epochs = scheduler.result.epochs_trained
    if epochs == 30:
        scheduler.resize(2)
    elif epochs == 90:
        scheduler.resize(MACHINES)


def run(workload, predictor, policy, scheduler_cls, monkeypatch, plan=None):
    monkeypatch.setattr(sim_runner, "HyperDriveScheduler", scheduler_cls)
    recorder = Recorder()
    reads = []

    def every_epoch(scheduler):
        reads.append(registry_read(recorder))
        if plan is not None:
            plan(scheduler)

    result = run_simulation(
        workload,
        build_policy(policy),
        configs=standard_configs(workload, CONFIGS),
        spec=ExperimentSpec(
            num_machines=MACHINES, num_configs=CONFIGS, seed=0,
            tmax=6 * 3600.0,
        ),
        predictor=predictor,
        recorder=recorder,
        progress_hook=every_epoch,
        progress_every_epochs=1,
    )
    final = result.to_dict()
    for span in final["observability"]["spans"].values():
        span.pop("wall_seconds")
    for name in WALL_CLOCK:
        final["observability"]["metrics"].pop(name, None)
    return reads, final


def assert_same_as_every_epoch(workload, predictor, policy, monkeypatch,
                               plan=None):
    reads, final = run(
        workload, predictor, policy, HyperDriveScheduler, monkeypatch, plan
    )
    ref_reads, ref_final = run(
        workload, predictor, policy, EveryEpochGauges, monkeypatch, plan
    )
    assert len(reads) == final["epochs_trained"] > 0
    assert reads == ref_reads
    assert final == ref_final


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_gauges_read_as_if_set_every_epoch(
    policy, cifar10_workload, fast_predictor, monkeypatch
):
    assert_same_as_every_epoch(
        cifar10_workload, fast_predictor, policy, monkeypatch
    )


@pytest.mark.parametrize("policy", ["pop", "default"])
def test_gauges_read_as_if_set_every_epoch_across_a_resize(
    policy, cifar10_workload, fast_predictor, monkeypatch
):
    assert_same_as_every_epoch(
        cifar10_workload, fast_predictor, policy, monkeypatch,
        plan=shrink_then_grow,
    )
