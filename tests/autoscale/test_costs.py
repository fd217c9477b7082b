"""Cost model, machine classes, and the per-experiment meter."""

from __future__ import annotations

import json

import pytest

from repro.autoscale import (
    ON_DEMAND,
    SPOT,
    CostMeter,
    CostModel,
    machine_classes,
)
from repro.observability import Journal, Recorder


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_cost_model_rates():
    model = CostModel(on_demand_rate=1.0, spot_rate=0.25)
    assert model.rate(ON_DEMAND) == 1.0
    assert model.rate(SPOT) == 0.25
    with pytest.raises(ValueError, match=">= 0"):
        CostModel(on_demand_rate=-1.0)


def test_machine_classes_newest_fraction_is_spot():
    ids = [f"machine-{i:02d}" for i in range(4)]
    classes = machine_classes(ids, 0.5)
    assert classes["machine-00"] == ON_DEMAND
    assert classes["machine-01"] == ON_DEMAND
    assert classes["machine-02"] == SPOT
    assert classes["machine-03"] == SPOT
    assert machine_classes(ids, 0.0) == {m: ON_DEMAND for m in ids}
    assert machine_classes(ids, 1.0) == {m: SPOT for m in ids}
    with pytest.raises(ValueError, match="spot_fraction"):
        machine_classes(ids, 1.5)


def test_meter_charges_class_distinct_rates():
    meter = CostMeter("exp-1", model=CostModel(spot_rate=0.3))
    cost_od = meter.charge(ON_DEMAND, 3600.0)
    cost_spot = meter.charge(SPOT, 3600.0)
    assert cost_od == pytest.approx(1.0)
    assert cost_spot == pytest.approx(0.3)
    assert meter.spent_dollars == pytest.approx(1.3)
    assert meter.machine_seconds(ON_DEMAND) == pytest.approx(3600.0)
    assert meter.machine_seconds() == pytest.approx(7200.0)
    with pytest.raises(ValueError, match=">= 0"):
        meter.charge(ON_DEMAND, -1.0)


def test_meter_budget_accounting_and_exhaustion():
    meter = CostMeter("exp-1", budget_slot_hours=1.0)
    assert meter.budget_dollars == pytest.approx(1.0)
    assert not meter.exhausted
    meter.charge(ON_DEMAND, 1800.0)
    assert meter.remaining_dollars == pytest.approx(0.5)
    meter.charge(ON_DEMAND, 1800.0)
    assert meter.exhausted
    assert meter.remaining_dollars == 0.0  # floors, never negative
    meter.charge(ON_DEMAND, 3600.0)
    assert meter.remaining_dollars == 0.0


def test_meter_without_budget_never_exhausts():
    meter = CostMeter("exp-1")
    meter.charge(ON_DEMAND, 10_000_000.0)
    assert meter.budget_dollars is None
    assert not meter.exhausted


def test_meter_exports_gauges():
    recorder = Recorder()
    meter = CostMeter("exp-1", budget_slot_hours=2.0, recorder=recorder)
    meter.charge(SPOT, 3600.0)
    metrics = recorder.metrics
    assert metrics.get("cost_machine_seconds").value(**{"class": SPOT}) == 3600.0
    assert metrics.get("cost_spent_dollars").value(experiment="exp-1") == (
        pytest.approx(0.3)
    )
    assert metrics.get("cost_budget_dollars").value(experiment="exp-1") == 2.0
    assert metrics.get("cost_budget_remaining_dollars").value(
        experiment="exp-1"
    ) == pytest.approx(1.7)


def test_meter_owned_trail_reconciles(tmp_path):
    path = tmp_path / "cost.jsonl"
    meter = CostMeter(
        "exp-1", budget_slot_hours=5.0, cost_path=path,
        model=CostModel(spot_rate=0.5),
    )
    meter.charge(ON_DEMAND, 1800.0)
    meter.charge(SPOT, 3600.0)
    meter.record("cost_tick", clock=1800.0)
    meter.close()
    records = read_jsonl(path)
    assert [r["event"] for r in records] == ["cost_tick", "cost_summary"]
    summary = records[-1]
    assert summary["machine_seconds"] == {ON_DEMAND: 1800.0, SPOT: 3600.0}
    # The trail's dollars reconcile with the raw machine-seconds.
    expected = 1800.0 / 3600.0 * 1.0 + 3600.0 / 3600.0 * 0.5
    assert summary["spent_dollars"] == pytest.approx(expected)
    assert summary["budget_dollars"] == pytest.approx(5.0)


def test_meter_shared_exporter_not_closed(tmp_path):
    path = tmp_path / "cost.jsonl"
    exporter = Journal(path)
    first = CostMeter("exp-1", exporter=exporter)
    second = CostMeter("exp-2", exporter=exporter)
    first.charge(ON_DEMAND, 60.0)
    first.close()
    # A shared (daemon-owned) sink survives one experiment's close.
    second.charge(ON_DEMAND, 120.0)
    second.close()
    exporter.close()
    records = read_jsonl(path)
    experiments = [r["experiment"] for r in records]
    assert experiments == ["exp-1", "exp-2"]
    assert all(r["event"] == "cost_summary" for r in records)
