"""The written audit trail is the full per-epoch trail, filtered by two
documented rules.

Before the rules, the scheduler wrote one ``pool_snapshot`` and one
``sap_decision`` record per epoch.  A test-only scheduler subclass
rebuilds that full stream as it happens: every record actually written,
plus, at each of those two call sites, the record the unfiltered trail
held there.  The written trail must equal the full stream with

* a ``pool_snapshot`` dropped when it equals the last one kept, and
* a ``sap_decision`` CONTINUE dropped when its policy gave no rationale
  or only ``{"reason": "between_boundaries"}``

removed, across the simulator's registered policies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import pytest

import repro.sim.runner as sim_runner
from repro.analysis.experiments import standard_configs
from repro.framework.events import Decision
from repro.framework.experiment import ExperimentSpec
from repro.framework.scheduler import HyperDriveScheduler
from repro.observability import Recorder
from repro.registry import build_policy
from repro.sim.runner import run_simulation

N_CONFIGS = 20
MACHINES = 4
POOL_FIELDS = ("promising", "running", "active", "promising_slots")

#: (kind, timestamp, job_id, machine_id, data) of one audit record.
Entry = Tuple[str, float, Optional[str], Optional[str], Dict[str, Any]]


def _entry(record) -> Entry:
    return (
        record.kind, record.timestamp, record.job_id, record.machine_id,
        dict(record.data),
    )


class FullStreamScheduler(HyperDriveScheduler):
    """Keeps ``full``: the trail as it was written before the rules,
    each entry paired with whether a rule may drop it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.full: List[Tuple[Entry, bool]] = []
        self._copied = 0

    def copy_written(self) -> None:
        records = self.recorder.audit.records
        self.full.extend((_entry(r), False) for r in records[self._copied:])
        self._copied = len(records)

    def _skip_written(self) -> None:
        self._copied = len(self.recorder.audit.records)

    def _audit_decision(self, decision, job, event, rationale) -> None:
        self.copy_written()
        data = {
            "decision": decision.value,
            "epoch": event.epoch,
            "metric": event.metric,
            "confidence": job.confidence,
            "expected_remaining_time": job.expected_remaining_time,
            "threshold": getattr(self.policy, "threshold", None),
            "promising_slots": getattr(self.policy, "promising_slots", None),
            "promising": job.promising,
        }
        if rationale:
            data.update(rationale)
        consulted_nothing = decision is Decision.CONTINUE and rationale in (
            None, {}, {"reason": "between_boundaries"}
        )
        entry = ("sap_decision", self._clock(), job.job_id, event.machine_id, data)
        self.full.append((entry, consulted_nothing))
        super()._audit_decision(decision, job, event, rationale)
        self._skip_written()

    def _record_pool_snapshot(self, now: float) -> None:
        self.copy_written()
        super()._record_pool_snapshot(now)
        self._skip_written()
        sample = self.result.pool_timeline[-1]
        data = {field: getattr(sample, field) for field in POOL_FIELDS}
        self.full.append((("pool_snapshot", now, None, None, data), True))


def _filtered(full: List[Tuple[Entry, bool]]) -> List[Entry]:
    kept, last_pool = [], None
    for entry, droppable in full:
        kind, data = entry[0], entry[4]
        if kind == "pool_snapshot":
            if data == last_pool:
                continue
            last_pool = data
        elif droppable:
            continue
        kept.append(entry)
    return kept


@pytest.mark.parametrize(
    "policy_name",
    [
        "default", "bandit", "hyperband", "successive-halving", "learned",
        "pop", "pop-budget",
    ],
)
def test_written_trail_is_the_full_trail_filtered_by_the_rules(
    policy_name, cifar10_workload, fast_predictor, monkeypatch
):
    schedulers = []

    def factory(*args, **kwargs):
        scheduler = FullStreamScheduler(*args, **kwargs)
        schedulers.append(scheduler)
        return scheduler

    monkeypatch.setattr(sim_runner, "HyperDriveScheduler", factory)
    recorder = Recorder()
    result = run_simulation(
        cifar10_workload,
        build_policy(policy_name),
        configs=standard_configs(cifar10_workload, N_CONFIGS),
        spec=ExperimentSpec(
            num_machines=MACHINES, num_configs=N_CONFIGS, seed=0,
            stop_on_target=False,
        ),
        predictor=fast_predictor,
        recorder=recorder,
    )
    (scheduler,) = schedulers
    scheduler.copy_written()
    written = [_entry(record) for record in recorder.audit.records]
    assert written == _filtered(scheduler.full)
    assert result.summary()["audit_events"] == len(written)
    assert len(written) < len(scheduler.full)

    # The timeline keeps every sample; its change points are the
    # written pool snapshots.
    samples = [
        tuple(getattr(sample, field) for field in POOL_FIELDS)
        for sample in result.pool_timeline
    ]
    change_points = [
        sample for index, sample in enumerate(samples)
        if index == 0 or sample != samples[index - 1]
    ]
    assert change_points == [
        tuple(entry[4][field] for field in POOL_FIELDS)
        for entry in written if entry[0] == "pool_snapshot"
    ]

    # Every suspend and terminate is written.
    def stops(entries):
        return [
            entry for entry in entries
            if entry[0] == "sap_decision"
            and entry[4]["decision"] in ("suspend", "terminate")
        ]

    assert stops(written) == stops(entry for entry, _ in scheduler.full)
