"""What the four workloads share: paths, statistics, set-up probes, child
reaping and the result record.

Rules this file enforces (see README.md, "Why it repeats"):

* a rate is ``work / sum over cells of the median over passes`` of the
  cell's wall time — never one total, never divided by a host-speed probe;
* ``setup_s`` is a median of fresh set-ups in subprocesses;
* every child process is registered here and reaped on every exit path;
  whatever else is still below this process at exit (a grandchild whose
  parent went first, ``multiprocessing``'s resource tracker) is stopped and
  waited for too.
"""

from __future__ import annotations

import atexit
import ctypes
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"

#: Fresh set-ups (and, traced, fresh imports) timed per run; the runner's
#: own set-up, which warms the page cache, is the discarded first one.
FRESH_STARTS = {"full": 5, "smoke": 1}


def use_source_tree() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero where there is no
    program to measure (a directory holding only the benchmark)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SRC / 'repro'} is missing\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for children that import ``repro`` themselves."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# ------------------------------------------------------------------ scratch


def out_dir() -> Path:
    OUT.mkdir(exist_ok=True)
    ignore = OUT / ".gitignore"
    if not ignore.exists():
        ignore.write_text("*\n")
    return OUT


_scratch: List[Path] = []


def scratch_dir(prefix: str) -> Path:
    """A temp dir inside the checkout, removed when the process exits."""
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=out_dir()))
    _scratch.append(path)
    return path


# ----------------------------------------------------------------- children

_children: List[subprocess.Popen] = []


def spawn(argv: Sequence[str], **kwargs: Any) -> subprocess.Popen:
    process = subprocess.Popen(list(argv), **kwargs)
    _children.append(process)
    return process


def reap(process: subprocess.Popen, grace: float = 10.0) -> int:
    """SIGTERM, wait, SIGKILL if it will not go; returns the exit code."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr, process.stdin):
        if stream is not None:
            stream.close()
    if process in _children:
        _children.remove(process)
    return process.returncode


def first_line(process: subprocess.Popen, seconds: float) -> str:
    """The child's first line of standard output; ``""`` if none came
    within ``seconds``, in which case the child has been killed."""
    timer = threading.Timer(seconds, process.kill)
    timer.start()
    try:
        return process.stdout.readline()
    finally:
        timer.cancel()


def adopt_orphans() -> None:
    """Make this process the one that inherits every descendant whose own
    parent has gone (Linux ``PR_SET_CHILD_SUBREAPER``), so that the sweep
    at exit can see such a process, stop it and wait for it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the sweep still covers direct children


def _stop_resource_tracker() -> None:
    """``multiprocessing``'s spawn context (the cluster's workers) starts a
    resource-tracker process that only goes once its parent's end of a pipe
    closes, which by default is *after* the parent has exited.  Close it
    now and wait for the tracker; it ignores SIGTERM."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def _child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def _wait_all(pids: List[int], seconds: float) -> List[int]:
    """Wait up to ``seconds`` for ``pids`` to end; returns those still up."""
    deadline = time.monotonic() + seconds
    while pids:
        for pid in list(pids):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    pids.remove(pid)
            except ChildProcessError:
                pids.remove(pid)
        if not pids or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    return pids


def sweep_children(grace: float = 5.0) -> None:
    """Stop and wait for every process still below this one: SIGTERM, then
    SIGKILL after ``grace``.  Repeats, because a process that dies hands
    its own children over."""
    for _ in range(8):
        pids = _child_pids()
        if not pids:
            return
        for sig, seconds in ((signal.SIGTERM, grace), (signal.SIGKILL, grace)):
            for pid in pids:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            pids = _wait_all(pids, seconds)
            if not pids:
                break


def _cleanup() -> None:
    for process in list(_children):
        reap(process, grace=5.0)
    _stop_resource_tracker()
    sweep_children()
    for path in _scratch:
        shutil.rmtree(path, ignore_errors=True)


atexit.register(_cleanup)


def exit_on_sigterm() -> None:
    """Turn SIGTERM into a normal exit, so that the clean-up above runs
    (the default action would leave a daemon or a probe behind), and take
    over orphaned descendants so that it finds them."""
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


_t0 = time.perf_counter()


def progress(message: str) -> None:
    """A line on standard error, stamped with seconds since start."""
    print(f"[{time.perf_counter() - _t0:6.1f}s] {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    per cent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def rate_over_cells(work: float, cell_walls: Dict[str, List[float]]) -> float:
    """``work`` units per second of (sum over cells of the median wall)."""
    return work / sum(median(walls) for walls in cell_walls.values())


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process, plus the largest reaped child's when
    the workload's program runs in children (daemon, cluster workers).
    Read before the set-up probes run, which are children too."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ------------------------------------------------------------ set-up probes


def time_fresh_setups(workload: str, scale: str) -> List[float]:
    """Wall seconds from starting a fresh interpreter to the workload's
    ``setup()`` having returned in it, several times, one after another."""
    samples = []
    for _ in range(FRESH_STARTS[scale]):
        started = time.perf_counter()
        process = spawn(
            [sys.executable, str(HERE / "setup_probe.py"), workload, scale],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = first_line(process, 60.0)
            elapsed = time.perf_counter() - started
            if line.strip() != "READY":
                raise RuntimeError(
                    f"set-up probe for {workload} said {line!r}, not READY"
                )
            process.wait(timeout=60)
        finally:
            reap(process)
        samples.append(elapsed)
    return samples


def time_fresh_imports(module: str, scale: str) -> List[float]:
    """Wall seconds of ``python -c 'import <module>'``, fresh each time."""
    samples = []
    for _ in range(FRESH_STARTS[scale]):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=child_env(), check=True,
        )
        samples.append(time.perf_counter() - started)
    return samples


# ------------------------------------------------------------------- result


@dataclass
class Outcome:
    """Attempts, failures and broken output checks of one run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def attempt(self, ok: bool = True, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if why:
                self.problems.append(why)
        return ok

    def check(self, ok: bool, why: str) -> bool:
        """An output check: does not count as an operation, but a broken
        one makes the run incorrect."""
        if not ok:
            self.problems.append(why)
        return ok

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def check_passes_agree(self, prints: Dict[str, List[tuple]]) -> None:
        """``prints``: per cell, one ``(epochs_trained, time_to_target,
        best_metric)`` per pass — all passes of a cell must agree."""
        for cell, seen in prints.items():
            self.check(
                len(set(seen)) == 1,
                f"{cell}: passes disagree on epochs/time_to_target/best: {seen}",
            )

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def manifest_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json`` (the single list of
    names; the runner refuses to print anything else)."""
    manifest = json.loads(MANIFEST.read_text())
    return {entry["name"]: entry["unit"] for entry in manifest[section]}


def result_record(outcome: Outcome, values: Dict[str, float], section: str) -> Dict[str, Any]:
    """The object the command prints: exactly the names of ``section``.

    A workload whose operations all failed has nothing to take a median
    of and leaves those names out; they read 0 in a record that says
    ``correct: false`` beside its failure count.  Leaving a name out of a
    correct run is a bug in the benchmark."""
    units = manifest_units(section)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if extra or (missing and outcome.correct):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json {section}: "
            f"missing {missing}, unknown {extra}"
        )
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
            for name in units
        },
    }


def passes_for(seconds: float, first_pass_s: float, minimum: int, scale: str) -> int:
    """Whole passes that fit ``seconds``; a cell is never cut short and a
    full-scale run never does fewer than ``minimum`` (a smoke run does
    one).  A first pass in which nothing succeeded took no time and says
    nothing about how many fit: the minimum then."""
    if scale == "smoke":
        return 1
    fit = int(seconds // first_pass_s) if first_pass_s > 0 else 0
    return max(minimum, fit)
