"""Tests for ExperimentSpec validation and result archival."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.analysis.experiments import standard_configs
from repro.framework.experiment import ExperimentSpec
from repro.policies.default import DefaultPolicy
from repro.sim.runner import run_simulation


def test_spec_defaults_are_paper_values():
    spec = ExperimentSpec()
    assert spec.num_machines == 4
    assert spec.num_configs == 100
    assert spec.overlap_prediction


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"num_machines": 0}, "num_machines"),
        ({"num_configs": 0}, "num_configs"),
        ({"tmax": 0.0}, "tmax"),
        ({"prediction_seconds": -1.0}, "prediction_seconds"),
        ({"prediction_contention": 1.0}, "prediction_contention"),
    ],
)
def test_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(**kwargs)


def test_result_to_dict_and_save(cifar10_workload, tmp_path):
    configs = standard_configs(cifar10_workload, 4)
    result = run_simulation(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=2, num_configs=4, seed=0, stop_on_target=False,
        ),
    )
    record = result.to_dict()
    assert record["policy"] == "default"
    assert len(record["jobs"]) == 4
    for job in record["jobs"]:
        assert len(job["metrics"]) == len(job["durations"])
        assert job["state"] == "completed"
    assert record["spec"]["num_machines"] == 2

    path = tmp_path / "result.json"
    result.save_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["epochs_trained"] == result.epochs_trained
    assert loaded["jobs"][0]["job_id"] == record["jobs"][0]["job_id"]


def test_to_dict_records_match_asdict(cifar10_workload):
    """The timeline is written as change points, each run expanding to
    ``dataclasses.asdict`` of every sample it covers; the milestone
    records are exactly what ``asdict`` produced, entry for entry and
    byte for byte once serialised."""
    configs = standard_configs(cifar10_workload, 40)
    result = run_simulation(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=8, num_configs=40, seed=0, stop_on_target=False,
            dynamic_target=True, target=0.30, target_increment=0.05,
        ),
    )
    assert result.pool_timeline and len(result.target_achievements) >= 2
    record = result.to_dict()
    timeline = record["pool_timeline"]
    samples = list(result.pool_timeline)
    assert timeline["timestamps"] == [s.timestamp for s in samples]
    runs = timeline["runs"]
    assert runs[0][0] == 0 and len(runs) < len(samples)
    ends = [run[0] for run in runs[1:]] + [len(samples)]
    expanded = []
    for (start, promising, running, active, slots), end in zip(runs, ends):
        assert start < end
        for timestamp in timeline["timestamps"][start:end]:
            expanded.append(dict(
                timestamp=timestamp, promising=promising, running=running,
                active=active, promising_slots=slots,
            ))
    assert expanded == [asdict(s) for s in samples]
    # Runs are maximal: neighbours differ in their counts.
    assert all(a[1:] != b[1:] for a, b in zip(runs, runs[1:]))
    assert len(record["target_achievements"]) == len(
        result.target_achievements
    )
    for entry, milestone in zip(
        record["target_achievements"], result.target_achievements
    ):
        assert entry == asdict(milestone)
    reference = dict(
        record,
        target_achievements=[asdict(m) for m in result.target_achievements],
    )
    assert json.dumps(record) == json.dumps(reference)


def test_job_training_times_property(cifar10_workload):
    configs = standard_configs(cifar10_workload, 2)
    result = run_simulation(
        cifar10_workload,
        DefaultPolicy(),
        configs=configs,
        spec=ExperimentSpec(
            num_machines=2, num_configs=2, seed=0, tmax=3600.0,
            stop_on_target=False,
        ),
    )
    times = result.job_training_times
    assert set(times) == {job.job_id for job in result.jobs}
    assert all(v > 0 for v in times.values())
