"""The per-epoch records are frozen, slotted dataclasses, built once.

``AppStat``, ``IterationFinished``, ``EpochResult`` and ``FollowUp``
carry ``__slots__`` (no per-instance ``__dict__``) and stay frozen;
they pickle, deep-copy and compare as before.  The plain next-epoch
instruction is one shared ``FollowUp``, and ``scaled_epoch`` hands back
its input when neither contention nor machine speed changes it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.analysis.experiments import standard_configs
from repro.framework.events import AppStat, IterationFinished
from repro.framework.experiment import ExperimentSpec
from repro.framework.scheduler import (
    NEXT_EPOCH,
    FollowUp,
    FollowUpAction,
    HyperDriveScheduler,
)
from repro.policies import DefaultPolicy
from repro.sim.runner import run_simulation
from repro.workloads.base import EpochResult

RECORDS = [
    AppStat(
        job_id="job-0001", epoch=3, metric=0.41, duration=62.5,
        timestamp=1200.0, machine_id="machine-02", extras={"sparsity": 0.3},
    ),
    IterationFinished(
        job_id="job-0001", epoch=3, metric=0.41, timestamp=1200.0,
        machine_id="machine-02", job_finished=False,
    ),
    EpochResult(epoch=3, duration=62.5, metric=0.41, done=False),
    FollowUp(FollowUpAction.RELEASE_MACHINE, delay=4.0),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    field = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_round_trip_and_compare_by_value(record):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
        dataclasses.replace(record),
    ):
        assert clone == record and clone is not record
        assert dataclasses.asdict(clone) == dataclasses.asdict(record)
    changed = dataclasses.replace(
        record, **{dataclasses.fields(record)[1].name: 99.0}
    )
    assert changed != record


def test_the_shared_next_epoch_follow_up_is_never_mutated(cifar10_workload):
    assert NEXT_EPOCH == FollowUp(FollowUpAction.NEXT_EPOCH)
    with pytest.raises(dataclasses.FrozenInstanceError):
        NEXT_EPOCH.delay = 5.0
    # A run whose epochs mostly continue plainly, some with a
    # checkpoint's latency as their delay.
    run_simulation(
        cifar10_workload,
        DefaultPolicy(),
        configs=standard_configs(cifar10_workload, 6),
        spec=ExperimentSpec(num_machines=3, num_configs=6, seed=0,
                            checkpoint_interval=4),
    )
    assert NEXT_EPOCH == FollowUp(FollowUpAction.NEXT_EPOCH, 0.0, 1.0)


def test_scaled_epoch_returns_its_input_only_when_nothing_scales(
    cifar10_workload,
):
    spec = ExperimentSpec(num_machines=2, machine_speed_factors=(1.0, 2.0))
    scheduler = HyperDriveScheduler(
        cifar10_workload, DefaultPolicy(), spec, clock=lambda: 0.0
    )
    raw = EpochResult(epoch=1, duration=60.0, metric=0.3, done=False)
    first, second = scheduler.resource_manager.machine_ids
    assert scheduler.scaled_epoch(first, raw, 1.0) is raw
    stretched = scheduler.scaled_epoch(first, raw, 1.5)
    assert stretched.duration == 90.0 and stretched.extras is raw.extras
    assert scheduler.scaled_epoch(second, raw, 1.0).duration == 30.0
    assert raw.duration == 60.0
