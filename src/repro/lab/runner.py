"""Study execution: grid fan-out with resumable, journaled cells.

The :class:`StudyRunner` expands a :class:`~repro.lab.spec.StudySpec`
into cells, skips everything the :class:`~repro.lab.store.CellStore`
already holds, and fans the remainder out over a
``ProcessPoolExecutor`` (``max_workers=1`` runs inline — no pool, no
pickling — which is what the deterministic tests use).  Each completed
cell is journaled to the store *as it finishes*, so a killed study
loses at most the cells that were mid-flight; progress streams onto
the observability registry (``lab_cells_done``, ``lab_cells_skipped``,
``lab_cell_seconds``) and the audit trail (``lab_study_started`` /
``lab_cell_completed`` / ``lab_cell_skipped`` / ``lab_study_finished``).

Cell execution reuses :func:`repro.sim.runner.run_simulation` verbatim
— a study is exactly N independent experiments.

Each cell also runs under its own private
:class:`~repro.observability.metrics.MetricsRegistry` and returns a
compact **telemetry digest** (wall/CPU seconds, predictor fit counts,
epochs) that crosses the process-pool boundary inside the cell payload,
is persisted in the cell record and the completion journal, and feeds
the study registry's ``lab_cell_cpu_seconds`` on the parent side.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..observability.recorder import NULL_RECORDER
from .analysis import analyze
from .report import render_json, render_markdown
from .spec import Cell, StudySpec
from .store import CellStore

__all__ = [
    "CellError",
    "StudyProgress",
    "StudyRunner",
    "run_study",
    "telemetry_digest",
]


def telemetry_digest(
    registry, wall_seconds: float, cpu_seconds: float
) -> Dict[str, Any]:
    """Roll one cell's registry up to the scalars worth persisting."""

    def total(name: str) -> float:
        family = registry.get(name)
        if family is None:
            return 0.0
        return float(sum(value for _, value in family.samples()))

    return {
        "wall_seconds": wall_seconds,
        "cpu_seconds": cpu_seconds,
        "epochs": total("scheduler_epochs_total"),
        "predictor_fits": total("predictor_fits_total"),
    }


class CellError(RuntimeError):
    """A cell failed; carries the cell label for diagnosis."""


def _with_budget_stop(policy, budget_slot_hours: float):
    """Enforce a machine-hour purse on a budget-blind policy.

    Budget-aware policies (``configure_budget``) manage the purse
    themselves; everyone else gets this shim so a fixed-budget study
    compares policies at *equal spend* — the experiment hard-stops the
    moment cumulative machine time crosses the budget.  This is the one
    place a cell runs differently from the same submission in the
    service, which leaves the budget to its broker (a spent budget
    shrinks the run to one slot; without a broker it runs past it).
    """
    inner = policy.application_stat
    state = {"spent": 0.0, "stopped": False}

    def application_stat(stat):
        inner(stat)
        state["spent"] += stat.duration / 3600.0
        if not state["stopped"] and state["spent"] >= budget_slot_hours:
            state["stopped"] = True
            if policy.ctx.stop_experiment is not None:
                policy.ctx.stop_experiment("budget_exhausted")

    policy.application_stat = application_stat
    return policy


@dataclass
class StudyProgress:
    """Counts reported by one :meth:`StudyRunner.run` invocation."""

    total: int
    executed: int
    skipped: int

    @property
    def done(self) -> int:
        return self.executed + self.skipped


def execute_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell to completion (top-level so pools can pickle it).

    Args:
        payload: ``asdict`` of a :class:`~repro.lab.spec.Cell`.

    Returns:
        The store payload: resolved cell config, label, the full
        ``ExperimentResult.to_dict()``, the wall seconds spent, and a
        ``telemetry`` digest from the cell's private registry.
    """
    from ..observability.recorder import Recorder
    from ..sim.runner import run_simulation

    cell = Cell(**payload)
    started = time.monotonic()
    cpu_started = time.process_time()
    recorder = Recorder()
    workload = cell.build_workload()
    policy = cell.build_policy()
    if cell.budget_slot_hours is not None and not hasattr(
        policy, "configure_budget"
    ):
        policy = _with_budget_stop(policy, cell.budget_slot_hours)
    configs = cell.mint_configs(workload)
    if cell.config_order is not None:
        permutation = np.random.default_rng(cell.config_order).permutation(
            len(configs)
        )
        configs = [configs[index] for index in permutation]
    result = run_simulation(
        workload, policy, configs=configs, spec=cell.build_spec(),
        recorder=recorder,
    )
    wall_seconds = time.monotonic() - started
    return {
        "key": cell.key(),
        "label": cell.label(),
        "cell": cell.resolved(),
        "result": result.to_dict(),
        "wall_seconds": wall_seconds,
        "telemetry": telemetry_digest(
            recorder.metrics,
            wall_seconds,
            time.process_time() - cpu_started,
        ),
    }


class StudyRunner:
    """Expand, fan out, journal, and report one study."""

    def __init__(
        self,
        spec: StudySpec,
        store: CellStore,
        recorder=None,
        max_workers: Optional[int] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 when given")
        self.spec = spec
        self.store = store
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.max_workers = max_workers
        metrics = self.recorder.metrics
        self._m_done = metrics.counter(
            "lab_cells_done", help="Study cells executed to completion"
        )
        self._m_skipped = metrics.counter(
            "lab_cells_skipped",
            help="Study cells skipped because the store already held them",
        )
        self._m_seconds = metrics.histogram(
            "lab_cell_seconds",
            help="Wall seconds per executed study cell",
        )
        self._m_running = metrics.gauge(
            "lab_cells_in_flight", help="Study cells currently executing"
        )
        self._m_cpu_seconds = metrics.histogram(
            "lab_cell_cpu_seconds",
            help="CPU seconds per executed study cell (child process)",
        )

    # ------------------------------------------------------------ running

    def run(
        self,
        on_cell: Optional[Callable[[StudyProgress], None]] = None,
    ) -> StudyProgress:
        """Execute every incomplete cell; returns the progress counts.

        Args:
            on_cell: called after every cell completes or is skipped
                (service progress streaming); exceptions propagate.
        """
        self.store.save_spec(self.spec)
        cells = self.spec.cells()
        done = self.store.completed_keys()
        pending = [cell for cell in cells if cell.key() not in done]
        progress = StudyProgress(
            total=len(cells), executed=0, skipped=len(cells) - len(pending)
        )
        audit = self.recorder.audit
        audit.record(
            "lab_study_started",
            study=self.spec.name,
            cells=len(cells),
            pending=len(pending),
            skipped=progress.skipped,
        )
        for cell in cells:
            if cell.key() in done:
                self._m_skipped.inc()
                audit.record(
                    "lab_cell_skipped", key=cell.key(), label=cell.label()
                )
                if on_cell is not None:
                    on_cell(progress)
        if pending:
            if self._effective_workers(len(pending)) == 1:
                self._run_inline(pending, progress, on_cell)
            else:
                self._run_pooled(pending, progress, on_cell)
        audit.record(
            "lab_study_finished",
            study=self.spec.name,
            executed=progress.executed,
            skipped=progress.skipped,
        )
        return progress

    def _effective_workers(self, pending_count: int) -> int:
        """``max_workers=None`` auto-sizes to the host, capped at 8."""
        if self.max_workers is not None:
            return self.max_workers
        return max(1, min(8, (os.cpu_count() or 2) - 1, pending_count))

    def _complete(
        self,
        payload: Dict[str, Any],
        progress: StudyProgress,
        on_cell: Optional[Callable[[StudyProgress], None]],
    ) -> None:
        self.store.save_cell(payload["key"], payload)
        progress.executed += 1
        self._m_done.inc()
        self._m_seconds.observe(payload["wall_seconds"])
        telemetry = payload.get("telemetry") or {}
        if "cpu_seconds" in telemetry:
            self._m_cpu_seconds.observe(telemetry["cpu_seconds"])
        self.recorder.audit.record(
            "lab_cell_completed",
            key=payload["key"],
            label=payload["label"],
            wall_seconds=round(payload["wall_seconds"], 3),
            cpu_seconds=round(telemetry.get("cpu_seconds", 0.0), 3),
        )
        if on_cell is not None:
            on_cell(progress)

    def _run_inline(
        self,
        pending: List[Cell],
        progress: StudyProgress,
        on_cell: Optional[Callable[[StudyProgress], None]],
    ) -> None:
        for cell in pending:
            self._m_running.set(1)
            try:
                payload = execute_cell(asdict(cell))
            except Exception as exc:
                raise CellError(f"cell {cell.label()} failed: {exc}") from exc
            finally:
                self._m_running.set(0)
            self._complete(payload, progress, on_cell)

    def _run_pooled(
        self,
        pending: List[Cell],
        progress: StudyProgress,
        on_cell: Optional[Callable[[StudyProgress], None]],
    ) -> None:
        workers = self._effective_workers(len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(execute_cell, asdict(cell)): cell
                for cell in pending
            }
            remaining = set(futures)
            self._m_running.set(len(remaining))
            try:
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    self._m_running.set(len(remaining))
                    for future in finished:
                        cell = futures[future]
                        try:
                            payload = future.result()
                        except Exception as exc:
                            raise CellError(
                                f"cell {cell.label()} failed: {exc}"
                            ) from exc
                        self._complete(payload, progress, on_cell)
            finally:
                self._m_running.set(0)
                for future in remaining:
                    future.cancel()

    # ------------------------------------------------------------ reporting

    def write_report(self) -> str:
        """Analyse the completed store and write report.md/report.json.

        Returns the markdown text.  Raises if cells are missing — run
        or resume the study first.
        """
        analysis = analyze(self.spec, self.store)
        markdown = render_markdown(analysis)
        self.store.write_report(markdown, render_json(analysis))
        return markdown


def run_study(
    spec: StudySpec,
    out_dir: Union[str, Path],
    recorder=None,
    max_workers: Optional[int] = None,
    on_cell: Optional[Callable[[StudyProgress], None]] = None,
) -> str:
    """Run (or resume) a study end-to-end and return the markdown report.

    The one-call form the examples and the service use: build the
    store, execute whatever is missing, write ``report.md`` +
    ``report.json`` under ``out_dir``.
    """
    store = CellStore(out_dir)
    runner = StudyRunner(
        spec, store, recorder=recorder, max_workers=max_workers
    )
    runner.run(on_cell=on_cell)
    return runner.write_report()
