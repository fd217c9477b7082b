"""StudySpec validation, grid expansion, and cell-key stability."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.lab import FIXED_GENERATOR, Cell, StudySpec


def make_spec(**overrides) -> StudySpec:
    base = dict(
        name="test-study",
        policies=("pop", "default"),
        workloads=("cifar10",),
        seeds=(0, 1),
        baseline={"policy": "pop"},
    )
    base.update(overrides)
    return StudySpec(**base)


# ------------------------------------------------------------- validation


def test_unknown_policy_lists_choices():
    with pytest.raises(ValueError, match=r"unknown policy 'sjf'.*choices"):
        make_spec(policies=("pop", "sjf"))


def test_unknown_workload_lists_choices():
    with pytest.raises(ValueError, match=r"unknown workload 'imagenet'"):
        make_spec(workloads=("imagenet",))


def test_unknown_generator_lists_fixed_pseudo_generator():
    with pytest.raises(ValueError, match=r"unknown generator 'smac'.*fixed"):
        make_spec(generators=("smac",))


def test_empty_seeds_rejected():
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        make_spec(seeds=())


def test_non_integer_seeds_rejected():
    with pytest.raises(ValueError, match="seeds must be integers"):
        make_spec(seeds=(0, "one"))


def test_baseline_not_in_grid_rejected():
    with pytest.raises(ValueError, match="not in the study grid"):
        make_spec(baseline={"policy": "bandit"})


def test_baseline_must_match_compare_axis():
    with pytest.raises(ValueError, match="exactly the compare axis"):
        make_spec(compare_axis="workload", baseline={"policy": "pop"})


def test_duplicate_levels_rejected():
    with pytest.raises(ValueError, match="duplicate levels in policies"):
        make_spec(policies=("pop", "pop"))


def test_bad_compare_axis_rejected():
    with pytest.raises(ValueError, match="compare_axis"):
        make_spec(compare_axis="seed")


def test_bad_metric_rejected():
    with pytest.raises(ValueError, match="metric"):
        make_spec(metric="wall_clock")


def test_config_orders_require_fixed_generator():
    with pytest.raises(ValueError, match="fixed configuration set"):
        make_spec(generators=("random",), config_orders=(0, 1))


def test_invalid_scalar_knobs_rejected():
    with pytest.raises(ValueError, match="num_configs"):
        make_spec(num_configs=0)
    with pytest.raises(ValueError, match="tmax_hours"):
        make_spec(tmax_hours=0.0)
    with pytest.raises(ValueError, match="machines"):
        make_spec(machines=(0,))


# -------------------------------------------------------------- expansion


def test_cells_cross_product_and_determinism():
    spec = make_spec(seeds=(0, 1, 2), machines=(2, 4))
    cells = spec.cells()
    assert len(cells) == 2 * 3 * 2  # policies x seeds x machines
    assert [c.label() for c in cells] == [c.label() for c in spec.cells()]
    # every combination appears exactly once
    combos = {(c.policy, c.seed, c.machines) for c in cells}
    assert len(combos) == len(cells)


def test_replicate_count():
    assert make_spec(seeds=(0, 1), config_orders=(0, 1, 2)).replicate_count() == 6


# ------------------------------------------------------------------ JSON


def test_json_round_trip(tmp_path):
    spec = make_spec(machines=(2, None), num_configs=7)
    payload = spec.to_dict()
    assert json.dumps(payload)  # serialisable
    assert StudySpec.from_dict(payload) == spec
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    assert StudySpec.from_json_file(path) == spec


def test_from_dict_rejects_unknown_fields():
    payload = make_spec().to_dict()
    payload["paralellism"] = 4
    with pytest.raises(ValueError, match="unknown StudySpec fields: paralellism"):
        StudySpec.from_dict(payload)


def test_from_json_file_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        StudySpec.from_json_file(path)


def test_with_overrides_revalidates():
    spec = make_spec()
    assert spec.with_overrides(seeds=(5,)).seeds == (5,)
    with pytest.raises(ValueError):
        spec.with_overrides(policies=("nope",))


# ------------------------------------------------------------- cell keys


def test_cell_key_pins_defaults():
    """An explicit default and a None default are the *same* cell."""
    explicit = make_spec(machines=(4,)).cells()[0]
    defaulted = make_spec(machines=(None,)).cells()[0]
    assert explicit.resolved() == defaulted.resolved()
    assert explicit.key() == defaulted.key()


def test_cell_key_distinguishes_every_field():
    base = make_spec().cells()[0]
    assert base.key() != make_spec(seeds=(7, 1)).cells()[0].key()
    assert base.key() != make_spec(num_configs=99).cells()[0].key()
    assert base.key() != make_spec(tmax_hours=1.0).cells()[0].key()


def test_cell_key_stable_across_processes():
    """The content address must not depend on interpreter state
    (dict order, hash randomisation): a fresh process with a different
    PYTHONHASHSEED computes the identical key."""
    spec = make_spec()
    keys = [cell.key() for cell in spec.cells()]
    script = (
        "from repro.lab import StudySpec\n"
        f"spec = StudySpec.from_dict({spec.to_dict()!r})\n"
        "print('\\n'.join(cell.key() for cell in spec.cells()))\n"
    )
    for hashseed in ("0", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                **__import__("os").environ,
                "PYTHONHASHSEED": hashseed,
            },
        )
        assert out.stdout.split() == keys


def test_cell_label_mentions_distinguishing_parts():
    cell = Cell(
        study="s",
        workload="cifar10",
        policy="pop",
        generator=FIXED_GENERATOR,
        seed=3,
        machines=8,
        config_order=5,
        configs=10,
        gen_seed=None,
        target=None,
        tmax_hours=1.0,
        stop_on_target=True,
    )
    assert cell.label() == "cifar10/pop/8m/s3/o5"
    assert "random" in cell.__class__(**{**cell.__dict__, "generator": "random"}).label()
