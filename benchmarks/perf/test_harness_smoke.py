"""Smoke test of the benchmark harness itself (not a tier-1 test).

    python -m pytest benchmarks/perf -q

Runs a scaled-down pass of all four workloads in both trace modes through
the real command, two at a time, and checks what the contract in
``BENCHMARK.json`` promises: the metric names printed are exactly the names
declared, every one carries its unit, failures are counted, and nothing is
left behind — no listening port, and no process that outlives the run that
started it (this process adopts such orphans, as the driver does, so that
``multiprocessing``'s resource tracker ending a moment late is seen).  Then breaks a cell of
each kind of workload on purpose: the run must still print its record,
with the failure counted and ``correct: false``.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
SECTIONS = {0: "end_to_end", 1: "per_layer"}
#: The user-facing metrics only some workloads have.
SCOPED = {
    "target_hours": ("pop_sim", "sched_sim"),
    "done_p50_ms": ("service_load",),
    "read_p50_ms": ("service_load",),
    "read_p99_ms": ("service_load",),
}


def listening_ports() -> set:
    ports = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] == "0A":  # TCP_LISTEN
                ports.add(int(fields[1].rsplit(":", 1)[1], 16))
    return ports


def become_subreaper() -> None:
    """Have every process that outlives the run that started it handed to
    this one (Linux ``PR_SET_CHILD_SUBREAPER``), where ``outlived`` sees it
    — the same check the benchmark's driver makes after each run."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


_running: set = set()
_running_lock = threading.Lock()


def outlived() -> list:
    """``(pid, command line)`` of each child of this process that is not a
    run still in progress: a process whose run has ended without stopping
    it and waiting for it.  An ended one (a zombie) counts: it was alive
    when its run exited.  Each is reaped here."""
    found = []
    with _running_lock:  # no run may start while its siblings are judged
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit() or int(entry.name) in _running:
                continue
            try:
                stat = (entry / "stat").read_text()
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if int(stat[stat.rindex(")") + 2:].split()[1]) != os.getpid():
                continue
            pid = int(entry.name)
            found.append((pid, cmdline.strip() or "<ended>"))
            try:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    return found


def run_one(job):
    workload, trace = job
    started = time.perf_counter()
    with _running_lock:
        process = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--scale", "smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        _running.add(process.pid)
    try:
        out, err = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
    with _running_lock:
        _running.discard(process.pid)
    finished = subprocess.CompletedProcess(process.args, process.returncode, out, err)
    return job, finished, time.perf_counter() - started, outlived()


@pytest.fixture(scope="module")
def runs():
    become_subreaper()
    ports_before = listening_ports()
    started = time.perf_counter()
    jobs = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_one, jobs))
    return {
        "finished": {job: (process, wall) for job, process, wall, _ in results},
        "wall": time.perf_counter() - started,
        "new_ports": listening_ports() - ports_before,
        "outlived": {job: left for job, _, _, left in results if left},
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(runs, workload, trace):
    process, _ = runs["finished"][(workload, trace)]
    assert process.returncode == 0, process.stderr[-2000:]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in MANIFEST[SECTIONS[trace]]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert result["failed"] == 0 and result["correct"] is True, process.stderr[-2000:]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_read_zero_where_the_workload_does_not_touch_them(runs, workload):
    process, _ = runs["finished"][(workload, 1)]
    metrics = json.loads(process.stdout.strip().splitlines()[-1])["metrics"]
    for name, metric in metrics.items():
        if name.startswith("service.") and workload != "service_load":
            assert metric["value"] == 0, name
        if name.startswith("cluster.") and workload != "cluster_run":
            assert metric["value"] == 0, name
        scoped = SCOPED.get(name)
        if scoped is not None:
            assert (metric["value"] > 0) == (workload in scoped), name
    if workload != "pop_sim":
        assert metrics["curves.predict_calls"]["value"] == 0
    else:
        assert metrics["curves.predict_calls"]["value"] > 0


def test_whole_smoke_pass_is_quick_and_leaves_nothing_behind(runs):
    # About half a minute on an idle two-core host; the limit is three
    # times that, so that a busy host does not fail the test.
    assert runs["wall"] < 90, f"smoke pass took {runs['wall']:.0f}s"
    assert not runs["outlived"], runs["outlived"]
    assert not runs["new_ports"], runs["new_ports"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must fail, quickly, without printing a result."""
    (tmp_path / "benchmarks").mkdir()
    target = tmp_path / "benchmarks" / "perf"
    target.mkdir()
    for path in HERE.glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    process = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "pop_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode != 0
    assert process.stdout.strip() == ""


# ------------------------------------------------- failures, forced on purpose


def run_in_process(capsys, workload: str, trace: int) -> dict:
    import run

    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "smoke"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def broken(monkeypatch):
    """The workload modules, importable, with the set-up probes stubbed
    out; a test then breaks the one function it wants to see fail."""
    monkeypatch.syspath_prepend(str(HERE))
    import harness

    monkeypatch.setattr(harness, "time_fresh_setups", lambda workload, scale: [1.0])
    monkeypatch.setattr(harness, "time_fresh_imports", lambda module, scale: [1.0])
    return monkeypatch


def boom(*args, **kwargs):
    raise RuntimeError("broken on purpose")


def test_every_cell_failing_still_prints_a_record(broken, capsys):
    import pop_sim

    broken.setattr(pop_sim, "run_cell", boom)
    result = run_in_process(capsys, "pop_sim", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["work_per_s"]["value"] == 0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_a_cell_failing_before_the_traced_pass_is_counted(broken, capsys):
    import pop_sim

    real, calls = pop_sim.run_cell, []

    def fails_twice(state, cell):  # the warm-up and the untraced pass
        calls.append(cell)
        return boom() if len(calls) <= 2 else real(state, cell)

    broken.setattr(pop_sim, "run_cell", fails_twice)
    result = run_in_process(capsys, "pop_sim", 1)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["curves.predict_calls"]["value"] > 0


def test_a_cluster_that_will_not_start_is_counted(broken, capsys):
    import cluster_run

    broken.setattr(cluster_run, "run_cell", boom)
    for trace in (0, 1):
        result = run_in_process(capsys, "cluster_run", trace)
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 1


def test_refused_experiments_are_counted(broken, capsys):
    import service_load
    from repro.service.client import ServiceError

    def refused(self, payload):
        raise ServiceError(503, "refused on purpose")

    broken.setattr("repro.service.client.ServiceClient.submit", refused)
    ports_before = listening_ports()
    result = run_in_process(capsys, "service_load", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == service_load.SIZES["smoke"]["counted"]
    assert result["metrics"]["work_per_s"]["value"] == 0
    assert not listening_ports() - ports_before


def test_a_first_pass_that_took_no_time_does_not_set_the_pass_count(broken):
    import harness

    assert harness.passes_for(20.0, 0.0, 3, "full") == 3
    assert harness.passes_for(20.0, 5.0, 3, "full") == 4
