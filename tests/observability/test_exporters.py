"""JSONL exporter (the :class:`Journal`) round-trip and numpy coercion
tests."""

from __future__ import annotations

import json

import numpy as np

from repro.observability.exporters import InMemoryExporter, encode_event
from repro.observability.journal import Journal


def read_events(path):
    return [json.loads(line) for line in Journal(path).lines()]


class TestJsonlExporter:
    """:class:`Journal` in its event-exporter role."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            {"kind": "sap_decision", "job_id": "job-0001", "data": {"p": 0.12}},
            {"kind": "lifecycle", "job_id": "job-0002", "data": {"event": "killed"}},
        ]
        with Journal(path) as exporter:
            for event in events:
                exporter.export(event)
            assert exporter.events_written == 2
        assert read_events(path) == events

    def test_one_compact_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path) as exporter:
            exporter.export({"kind": "a", "n": 1})
            exporter.export({"kind": "b", "n": 2})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert " " not in lines[0]  # compact separators

    def test_lazy_open_no_file_when_no_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        exporter = Journal(path)
        exporter.close()
        assert not path.exists()

    def test_numpy_scalars_coerced(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path) as exporter:
            exporter.export(
                {"kind": "prediction", "data": {
                    "p": np.float64(0.25), "epoch": np.int64(7),
                }}
            )
        (event,) = read_events(path)
        assert event["data"]["p"] == 0.25
        assert event["data"]["epoch"] == 7

    def test_close_is_idempotent(self, tmp_path):
        exporter = Journal(tmp_path / "e.jsonl")
        exporter.export({"kind": "x"})
        exporter.close()
        exporter.close()

    def test_encode_event_falls_back_to_str(self):
        class Odd:
            def __str__(self):
                return "odd"

        decoded = json.loads(encode_event({"v": Odd()}))
        assert decoded["v"] == "odd"


class TestInMemoryExporter:
    def test_collects_copies(self):
        exporter = InMemoryExporter()
        event = {"kind": "x", "n": 1}
        exporter.export(event)
        event["n"] = 2
        assert exporter.events == [{"kind": "x", "n": 1}]
