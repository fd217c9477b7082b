"""The one append-only JSONL file: torn-line reads, durability under
SIGKILL, appends across daemon lifetimes, the events route serving
stored lines, and ``--emit-events`` replacing a stale file."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.observability.exporters import encode_event
from repro.observability.journal import Journal
from repro.service.daemon import ExperimentService
from repro.service.store import TERMINAL_STATUSES
from repro.service.submission import Submission

SRC = Path(repro.__file__).resolve().parents[1]
RUN_STORE_1_7 = Path(__file__).parent.parent / "fixtures" / "run_store_1_7"
SUBMISSION = Submission(
    workload="cifar10", policy="bandit", configs=4, machines=2, seed=1,
    checkpoint_every=5,
)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.text(max_size=8),
)
events = st.lists(
    st.dictionaries(st.text(max_size=6), scalars, max_size=4), max_size=8
)


@settings(max_examples=200, deadline=None)
@given(events=events, data=st.data())
def test_lines_are_the_whole_line_prefix_at_any_cut(events, data):
    encoded = [encode_event(event) for event in events]
    with tempfile.TemporaryDirectory() as tmp:
        whole = Journal(Path(tmp) / "whole.jsonl")
        for event in events:
            whole.export(event)
        whole.close()
        stored = whole.path.read_bytes() if events else b""
        assert stored == "".join(line + "\n" for line in encoded).encode()
        cut = data.draw(st.integers(0, len(stored)), label="cut")
        torn = Path(tmp) / "torn.jsonl"
        torn.write_bytes(stored[:cut])
        expected = encoded[: stored[:cut].count(b"\n")]
        assert list(Journal(torn).lines()) == expected
        offset = data.draw(st.integers(0, len(events) + 1), label="offset")
        assert list(Journal(torn).lines(offset=offset)) == expected[offset:]


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def admitted(root):
    """Experiment ids of the ``broker_admit`` records in broker.jsonl."""
    return [
        record["data"]["exp_id"] for record in read_jsonl(root / "broker.jsonl")
        if record["kind"] == "broker_admit"
    ]


def test_broker_trail_survives_sigkill(tmp_path):
    """Every broker record a daemon exported is on disk after SIGKILL."""
    script = (
        "import os, signal, sys\n"
        "from repro.service.daemon import ExperimentService\n"
        "service = ExperimentService(sys.argv[1], port=0, slots=4)\n"
        "for index in range(int(sys.argv[2])):\n"
        "    service.broker.register(f'exp-{index}', 'default')\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    process = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), "5"],
        env=env, capture_output=True, timeout=120,
    )
    assert process.returncode == -signal.SIGKILL, process.stderr
    assert admitted(tmp_path) == [f"exp-{index}" for index in range(5)]


@contextlib.contextmanager
def running_service(root):
    service = ExperimentService(root, port=0, workers=1)
    service.start()
    try:
        yield service
    finally:
        service.stop()


def run_to_completion(service) -> str:
    exp_id = service.submit(SUBMISSION.to_dict())["id"]
    for _ in range(60):
        status = service.store.status(exp_id)
        if status in TERMINAL_STATUSES:
            break
        service.store.wait_for_status_change(exp_id, status, timeout=5.0)
    assert service.store.status(exp_id) == "completed"
    return exp_id


def test_broker_trail_appends_across_daemon_lifetimes(tmp_path):
    ids = []
    for _ in range(2):
        with running_service(tmp_path) as service:
            ids.append(run_to_completion(service))
    assert admitted(tmp_path) == ids


def assert_events_route_serves_stored_lines(service, exp_id):
    store = service.store
    total = len(store.read_events(exp_id))
    assert total > 20
    for offset in (0, total - 20):
        url = f"{service.url}/experiments/{exp_id}/events?offset={offset}"
        with urllib.request.urlopen(url, timeout=30) as response:
            body = response.read()
        assert body == "".join(
            encode_event(event) + "\n"
            for event in store.read_events(exp_id, offset)
        ).encode("utf-8")


def test_events_route_on_a_1_7_run_store(tmp_path):
    root = tmp_path / "runs"
    shutil.copytree(RUN_STORE_1_7, root)
    with running_service(root) as service:
        (record,) = service.store.list_experiments()
        assert_events_route_serves_stored_lines(service, record.id)


def test_events_route_on_a_fresh_submission(tmp_path):
    with running_service(tmp_path / "runs") as service:
        exp_id = run_to_completion(service)
        assert_events_route_serves_stored_lines(service, exp_id)


def test_emit_events_replaces_a_stale_file(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind":"stale"}\n')
    code = main([
        "run", "--workload", "cifar10", "--policy", "bandit",
        "--configs", "4", "--tmax-hours", "2",
        "--emit-events", str(path),
    ])
    assert code == 0
    kinds = [event["kind"] for event in read_jsonl(path)]
    assert "stale" not in kinds
    assert f"({len(kinds)} events)" in capsys.readouterr().out
