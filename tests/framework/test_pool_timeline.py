"""The pool timeline as change points reads as the per-sample list it
replaced, and decodes the list form that results of repro 1.5–1.8 hold."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import standard_configs
from repro.analysis.render import sparkline
from repro.analysis.report import render_report
from repro.core.pop import POPPolicy
from repro.framework.experiment import ExperimentSpec, PoolSnapshot, PoolTimeline
from repro.sim.runner import run_simulation

LAB_STORE_1_8 = Path(__file__).parent.parent / "fixtures" / "lab_store_1_8"

#: Few distinct values, so that equal neighbours (one run) are common.
counts = st.tuples(*(st.integers(0, 2) for _ in range(4)))
records = st.lists(
    st.tuples(st.floats(0.0, 1e6, allow_nan=False), counts), max_size=40
)


def as_list(samples):
    return [PoolSnapshot(timestamp, *c) for timestamp, c in samples]


def as_timeline(samples) -> PoolTimeline:
    timeline = PoolTimeline()
    for timestamp, c in samples:
        timeline.append(timestamp, c)
    return timeline


@given(samples=records)
@settings(max_examples=200, deadline=None)
def test_timeline_reads_as_the_sample_list(samples):
    expected = as_list(samples)
    timeline = as_timeline(samples)
    assert len(timeline) == len(expected)
    assert bool(timeline) == bool(expected)
    assert list(timeline) == expected
    for index in range(-len(expected), len(expected)):
        assert timeline[index] == expected[index]
    assert timeline[1:-1:2] == expected[1:-1:2]
    assert timeline[-3:] == expected[-3:]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            timeline[index]


@given(samples=records)
@settings(max_examples=200, deadline=None)
def test_timeline_round_trips_and_opens_a_run_per_change(samples):
    timeline = PoolTimeline()
    opened = [timeline.append(timestamp, c) for timestamp, c in samples]
    assert opened == [
        index == 0 or c != samples[index - 1][1]
        for index, (_, c) in enumerate(samples)
    ]
    encoded = timeline.to_dict()
    assert len(encoded["runs"]) == sum(opened)
    assert encoded["timestamps"] == [timestamp for timestamp, _ in samples]
    decoded = PoolTimeline.from_dict(json.loads(json.dumps(encoded)))
    assert decoded == timeline
    assert decoded.to_dict() == encoded
    # The list form decodes to the same runs.
    legacy = [asdict(sample) for sample in as_list(samples)]
    assert PoolTimeline.from_dict(legacy) == timeline


def test_1_8_list_form_expands_to_its_stored_dicts():
    cells = sorted(LAB_STORE_1_8.glob("*/cells/*.json"))
    assert cells
    for path in cells:
        stored = json.loads(path.read_text())["result"]["pool_timeline"]
        assert isinstance(stored, list) and stored
        decoded = PoolTimeline.from_dict(stored)
        assert [asdict(sample) for sample in decoded] == stored
        assert len(decoded.to_dict()["runs"]) <= len(stored)


def test_report_renders_both_forms_alike(cifar10_workload, fast_predictor):
    result = run_simulation(
        cifar10_workload,
        POPPolicy(),
        configs=standard_configs(cifar10_workload, 16),
        spec=ExperimentSpec(
            num_machines=4, num_configs=16, seed=0, stop_on_target=False,
            tmax=12 * 3600.0,
        ),
        predictor=fast_predictor,
    )
    record = json.loads(json.dumps(result.to_dict()))
    legacy = dict(
        record,
        pool_timeline=[asdict(sample) for sample in result.pool_timeline],
    )
    report = render_report(record)
    # The per-sample ratios, as the list form's renderer computed them.
    ratios = [
        s.promising / s.active for s in result.pool_timeline if s.active > 0
    ]
    assert len(set(ratios)) > 1
    assert (
        "## Promising/active ratio over time\n\n"
        f"`{sparkline(ratios, width=60)}`\n"
        f"(starts {ratios[0]:.2f}, ends {ratios[-1]:.2f})\n"
    ) in report
    assert render_report(legacy) == report
    assert render_report(result) == report
    for path in sorted(LAB_STORE_1_8.glob("*/cells/*.json")):
        stored = json.loads(path.read_text())["result"]
        current = dict(
            stored,
            pool_timeline=PoolTimeline.from_dict(
                stored["pool_timeline"]
            ).to_dict(),
        )
        assert render_report(current) == render_report(stored)
