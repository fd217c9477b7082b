"""A lab store written by repro 1.8.0 resumes as it was left."""

from __future__ import annotations

import shutil
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.lab import CellStore, StudyRunner
from repro.lab.runner import execute_cell

#: Two studies that ``run_study`` of repro 1.8.0 wrote, six mlp cells in
#: all (2 machines, 6 configs, 3 simulated hours, ``best_metric``):
#:
#: * ``golden-fixed-order``: default and bandit on the fixed
#:   configuration set under ``config_orders=(3,)``;
#: * ``golden-generated``: default and pop-budget on the ``tpe``
#:   generator with ``gen_seed_mode="per-seed"`` over seeds 0 and 1, and
#:   a 1.0 slot-hour budget, which the lab's budget stop enforces on the
#:   budget-blind default policy.
#:
#: Cell keys, reports and the run behind each cell must not move.
LAB_STORE_1_8 = Path(__file__).parent.parent / "fixtures" / "lab_store_1_8"
STUDIES = ("golden-fixed-order", "golden-generated")


@pytest.mark.parametrize("study", STUDIES)
def test_1_8_lab_store_resumes_without_executing(tmp_path, study):
    root = tmp_path / study
    shutil.copytree(LAB_STORE_1_8 / study, root)
    store = CellStore(root)
    spec = store.load_spec()
    cells = spec.cells()
    assert {cell.key() for cell in cells} == store.completed_keys()
    for cell in cells:
        assert store.load_cell(cell.key())["cell"] == cell.resolved()

    runner = StudyRunner(spec, store, max_workers=1)
    progress = runner.run()
    assert (progress.executed, progress.skipped) == (0, len(cells))
    runner.write_report()
    for name in ("report.md", "report.json"):
        assert (root / name).read_bytes() == (
            LAB_STORE_1_8 / study / name
        ).read_bytes()


def without_wall_clock(result: dict) -> dict:
    """``result`` minus the fields that differ between two runs of one cell."""
    observability = result["observability"]
    for span in observability["spans"].values():
        del span["wall_seconds"]
    observability["metrics"].pop("predictor_fit_seconds", None)
    return result


@pytest.mark.parametrize("study", STUDIES)
def test_1_8_lab_cells_rerun_to_their_stored_results(study):
    store = CellStore(LAB_STORE_1_8 / study)
    for cell in store.load_spec().cells():
        stored = store.load_cell(cell.key())
        fresh = execute_cell(asdict(cell))
        assert (fresh["key"], fresh["label"], fresh["cell"]) == (
            stored["key"], stored["label"], stored["cell"]
        )
        assert without_wall_clock(fresh["result"]) == without_wall_clock(
            stored["result"]
        ), cell.label()
