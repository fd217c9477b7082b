"""Spans recorded from outside the program, for the traced pass only.

Nothing under ``src/`` knows about this file.  A :class:`Tracer` rebinds
public functions and methods of each layer to wrappers that record a span
(name, start, end, parent, cell id) in memory; :meth:`Tracer.restore` puts
the originals back, so the untraced passes run the program as shipped.

A layer's *self* time is its spans' duration minus the part their child
spans cover; *busy* time is the plain sum of durations.  Stacks are per
thread (the cluster head and the daemon run several), so a span's parent is
always a span of the same thread.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

_NAME, _START, _END, _PARENT, _CELL = range(5)
_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.cell: Optional[str] = None
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, self.cell]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[_END] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        A call made directly from a span of the same name (a policy method
        calling its parent class's) is not recorded twice.  ``after`` sees
        the return value (counters such as ``nfev``).
        """
        tracer = self
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][_NAME] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, None, stack[-1] if stack else None,
                      tracer.cell]
            stack.append(record)
            spans.append(record)
            record[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------- rebinding

    def rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` (class or module attribute) until
        :meth:`restore`; an inherited attribute is shadowed, not replaced."""
        original = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, replacement)

        def undo() -> None:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

        self._undo.append(undo)

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Rebind ``owner.attr`` (a class or module attribute) to a traced
        version of itself."""
        self.rebind(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def patch_everywhere(self, fn: Callable, name: str, after=None) -> None:
        """Rebind every ``repro`` module global that *is* ``fn`` — a
        function imported by name is bound once per importing module."""
        traced = self.wrap(fn, name, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.rebind(module, attr, traced)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --------------------------------------------------------------- reading

    def _finished(self) -> List[list]:
        return [record for record in self.spans if record[_END] is not None]

    def summary(self) -> Dict[str, SimpleNamespace]:
        """Per span name: calls, busy seconds, self seconds, median
        duration (``calls``, ``busy_s``, ``self_s``, ``p50_s``)."""
        spans = self._finished()
        child_time: Dict[int, float] = {}
        for record in spans:
            parent = record[_PARENT]
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + (
                    record[_END] - record[_START]
                )
        out: Dict[str, SimpleNamespace] = {}
        durations: Dict[str, List[float]] = {}
        for record in spans:
            entry = out.get(record[_NAME])
            if entry is None:
                entry = out[record[_NAME]] = SimpleNamespace(
                    calls=0, busy_s=0.0, self_s=0.0, p50_s=0.0
                )
            duration = record[_END] - record[_START]
            entry.calls += 1
            entry.busy_s += duration
            entry.self_s += duration - child_time.get(id(record), 0.0)
            durations.setdefault(record[_NAME], []).append(duration)
        for name, entry in out.items():
            entry.p50_s = statistics.median(durations[name])
        return out

    def dump(self, path) -> None:
        """Write the spans: a header line, then one JSON array per span
        (name index, start, end, parent span's line index or -1, cell)."""
        spans = self._finished()
        line_of = {id(record): line for line, record in enumerate(spans)}
        names: Dict[str, int] = {}
        with open(path, "w", encoding="utf-8") as handle:
            rows = [
                [
                    names.setdefault(record[_NAME], len(names)),
                    record[_START],
                    record[_END],
                    line_of.get(id(record[_PARENT]), -1),
                    record[_CELL],
                ]
                for record in spans
            ]
            header = {
                "columns": ["name", "start", "end", "parent", "cell"],
                "names": sorted(names, key=names.get),
                "counts": self.counts,
            }
            handle.write(json.dumps(header) + "\n")
            for row in rows:
                handle.write(json.dumps(row) + "\n")


EMPTY = SimpleNamespace(calls=0, busy_s=0.0, self_s=0.0, p50_s=0.0)


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Layer boundaries.  Each installer rebinds one group of public entry points.
# --------------------------------------------------------------------------


def install_experiment_layers(tracer: Tracer) -> None:
    """curves, core, policies, framework, sim, workloads, generators: every
    layer an experiment touches, whichever of the three driver loops runs
    the scheduler."""
    from repro import registry
    from repro.core import allocation
    from repro.curves import engine as curve_engine
    from repro.curves import fitting
    from repro.curves.predictor import CurvePredictor
    from repro.framework.scheduler import HyperDriveScheduler
    from repro.generators.base import HyperparameterGenerator
    from repro.sim import runner as sim_runner
    from repro.sim.engine import SimulationEngine
    from repro.workloads.base import TrainingRun

    for cls in _concrete_subclasses(CurvePredictor):
        if "predict" in vars(cls):
            tracer.patch(cls, "predict", "curves.predict")
    tracer.patch_everywhere(fitting.fit_model, "curves.fit")
    real_least_squares = fitting.optimize.least_squares
    tracer.rebind(
        fitting,
        "optimize",
        _Overlay(
            fitting.optimize,
            least_squares=tracer.wrap(
                real_least_squares,
                "curves.lsq",
                after=lambda result: tracer.count("curves.lsq_nfev", result.nfev),
            ),
        ),
    )
    real_cache_get = curve_engine.FitCache.get

    def cache_get(self, *args, **kwargs):
        fit = real_cache_get(self, *args, **kwargs)
        tracer.count("curves.cache_lookups")
        if fit is not None:
            tracer.count("curves.cache_hits")
        return fit

    tracer.rebind(curve_engine.FitCache, "get", cache_get)

    tracer.patch_everywhere(
        allocation.compute_slot_allocation, "core.allocate"
    )
    for cls in set(registry.POLICIES.values()):
        for method in ("on_iteration_finish", "allocate_jobs"):
            tracer.patch(cls, method, "policies.decide")
    tracer.patch(HyperDriveScheduler, "process_epoch", "framework.process_epoch")

    tracer.patch_everywhere(sim_runner.run_simulation, "sim.runner")
    tracer.patch(SimulationEngine, "run", "sim.engine")
    real_schedule = SimulationEngine.schedule

    def schedule(self, delay, callback):
        # The callback is the runner's code running inside the engine's
        # loop: a span here splits the two layers' self time and counts
        # the events actually processed.
        real_schedule(self, delay, tracer.wrap(callback, "sim.runner.event"))

    tracer.rebind(SimulationEngine, "schedule", schedule)

    for cls in _concrete_subclasses(TrainingRun):
        if "step" in vars(cls):
            tracer.patch(cls, "step", "workloads.step")
    tracer.patch_everywhere(registry.build_workload, "workloads.build")
    tracer.patch(HyperparameterGenerator, "create_job", "generators.mint")


def install_lab_layers(tracer: Tracer) -> None:
    from repro.lab import runner as lab_runner
    from repro.lab.store import CellStore

    tracer.patch_everywhere(lab_runner.execute_cell, "lab.execute_cell")
    tracer.patch(CellStore, "save_cell", "lab.store_save")
    tracer.patch(lab_runner.StudyRunner, "write_report", "lab.report")


def install_service_layers(tracer: Tracer) -> None:
    """Inside the daemon process (see ``daemon_launcher.py``)."""
    from http.server import BaseHTTPRequestHandler

    from repro.service import executor
    from repro.service.daemon import ExperimentService
    from repro.service.store import RunStore

    real_handle = BaseHTTPRequestHandler.handle_one_request

    def handle_one_request(self):
        with tracer.span("service.daemon.route_other") as record:
            real_handle(self)
            if self.raw_requestline:  # else: the client closed the link
                record[_NAME] = "service.daemon." + route_name(
                    self.command, self.path
                )

    tracer.rebind(BaseHTTPRequestHandler, "handle_one_request", handle_one_request)
    tracer.patch(ExperimentService, "submit", "service.daemon.admit")
    tracer.patch(executor, "execute", "service.executor.execute")
    for method, name in (
        ("append_event", "service.store.append"),
        ("save_checkpoint", "service.store.checkpoint"),
        ("read_events", "service.store.read_events"),
        ("get", "service.store.get"),
        ("list_experiments", "service.store.list"),
    ):
        tracer.patch(RunStore, method, name)


def install_cluster_layers(tracer: Tracer) -> None:
    from repro.cluster import runtime, transport

    tracer.patch_everywhere(runtime.run_cluster, "cluster.runtime")
    tracer.patch(transport.ClusterTransport, "send", "cluster.transport.send")


def route_name(method: Optional[str], path: str) -> str:
    """The daemon's route a request hit, as a metric-name fragment."""
    path, _, query = path.partition("?")
    path = path.rstrip("/")
    if method == "POST" and path == "/experiments":
        return "route_submit"
    if method == "GET" and path == "/experiments":
        return "route_list"
    if method == "GET" and path == "/metrics":
        return "route_metrics"
    if method == "GET" and path.endswith("/events"):
        tail = query.startswith("offset=") and query != "offset=0"
        return "route_events_tail" if tail else "route_events_full"
    if method == "GET" and path.startswith("/experiments/"):
        return "route_status"
    return "route_other"


class _Overlay:
    """A module stand-in: named attributes replaced, the rest passed on."""

    def __init__(self, base: Any, **replaced: Any) -> None:
        self._base = base
        self.__dict__.update(replaced)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._base, attr)


def _concrete_subclasses(base: type) -> List[type]:
    found, queue = [], [base]
    while queue:
        cls = queue.pop()
        for sub in cls.__subclasses__():
            found.append(sub)
            queue.append(sub)
    return found
