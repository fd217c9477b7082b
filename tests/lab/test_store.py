"""CellStore: durability, spec pinning, journaling, reports."""

from __future__ import annotations

import json

import pytest

from repro.lab import CellStore, StudyMismatchError, StudySpec


def make_spec(**overrides) -> StudySpec:
    base = dict(
        name="store-study",
        policies=("pop", "default"),
        workloads=("cifar10",),
        seeds=(0,),
        baseline={"policy": "pop"},
    )
    base.update(overrides)
    return StudySpec(**base)


def payload_for(key: str) -> dict:
    return {
        "key": key,
        "label": f"label-{key}",
        "cell": {"policy": "pop"},
        "result": {"reached_target": True, "time_to_target": 60.0},
        "wall_seconds": 0.5,
    }


def test_save_and_load_round_trip(tmp_path):
    store = CellStore(tmp_path / "study")
    store.save_cell("abc123", payload_for("abc123"))
    assert store.has("abc123")
    assert not store.has("zzz")
    assert store.completed_keys() == {"abc123"}
    assert store.load_cell("abc123") == payload_for("abc123")


def test_no_partial_files_visible(tmp_path):
    store = CellStore(tmp_path)
    store.save_cell("k1", payload_for("k1"))
    # atomic write leaves no temp droppings behind
    names = {path.name for path in store.cells_dir.iterdir()}
    assert names == {"k1.json"}


def test_journal_records_completion_order(tmp_path):
    store = CellStore(tmp_path)
    for key in ("k1", "k2", "k3"):
        store.save_cell(key, payload_for(key))
    journal = store.journal()
    assert [entry["key"] for entry in journal] == ["k1", "k2", "k3"]
    assert journal[0]["label"] == "label-k1"
    assert CellStore(tmp_path / "fresh").journal() == []


def test_spec_pinning(tmp_path):
    store = CellStore(tmp_path)
    spec = make_spec()
    store.save_spec(spec)
    assert store.load_spec() == spec
    store.save_spec(spec)  # identical re-save is a no-op (resume path)
    with pytest.raises(StudyMismatchError, match="different spec"):
        store.save_spec(make_spec(seeds=(0, 1)))


def test_load_spec_missing(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a study directory"):
        CellStore(tmp_path).load_spec()


def test_load_spec_refuses_pre_1_6_store(tmp_path):
    """A study.json from before 1.6 pins the two retired pool fields;
    resume/report must name the fix instead of dying in from_dict."""
    store = CellStore(tmp_path)
    stale = {
        **make_spec().to_dict(),
        "predict_workers": 1,
        "predict_cache_size": 2048,
    }
    store.spec_path.write_text(json.dumps(stale))
    with pytest.raises(
        StudyMismatchError, match=r"repro < 1\.6; re-run into a fresh --out"
    ) as excinfo:
        store.load_spec()
    assert "predict_cache_size, predict_workers" in str(excinfo.value)
    # ...and a new-version run into the same directory is refused too.
    with pytest.raises(StudyMismatchError, match="different spec"):
        store.save_spec(make_spec())


def test_mtime_ns_tracks_cell_file(tmp_path):
    store = CellStore(tmp_path)
    store.save_cell("k1", payload_for("k1"))
    first = store.mtime_ns("k1")
    assert first == store.mtime_ns("k1")  # stable while untouched
    store.save_cell("k1", payload_for("k1"))
    assert store.mtime_ns("k1") >= first  # rewrite refreshes the stamp


def test_write_report(tmp_path):
    store = CellStore(tmp_path)
    store.write_report("# hi\n", {"winner": "pop"})
    assert store.report_md_path.read_text() == "# hi\n"
    parsed = json.loads(store.report_json_path.read_text())
    assert parsed == {"winner": "pop"}
    # deterministic rendering: same payload -> same bytes
    before = store.report_json_path.read_bytes()
    store.write_report("# hi\n", {"winner": "pop"})
    assert store.report_json_path.read_bytes() == before
