"""Successive-halving SAP (the HyperBand bracket primitive).

Section 8 positions HyperBand as related sequential work; this policy
implements its core successive-halving bracket on top of HyperDrive's
suspend/resume machinery, demonstrating that the SAP API expresses
rounds-based schedulers too (§4.2's "barrier-like epoch scheduling").

All configurations train to the current rung budget (a barrier enforced
with suspends), the top ``1/eta`` fraction by best metric survive, the
rest are terminated, and the budget multiplies by ``eta``.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from ..framework.events import Decision, IterationFinished
from ..framework.job import JobState
from .base import SchedulingPolicy

__all__ = ["SuccessiveHalvingPolicy", "HyperBandPolicy"]


class SuccessiveHalvingPolicy(SchedulingPolicy):
    """Rounds-based successive halving.

    Args:
        eta: elimination factor (keep top 1/eta per rung).
        initial_budget: epochs every configuration gets in rung 0.
    """

    name = "successive_halving"

    def __init__(self, eta: float = 3.0, initial_budget: int = 4) -> None:
        super().__init__()
        if eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if initial_budget < 1:
            raise ValueError("initial_budget must be >= 1")
        self.eta = eta
        self.initial_budget = initial_budget
        self.rung = 0
        self.rung_budget = initial_budget
        self._waiting: Set[str] = set()

    # ------------------------------------------------------------ up-calls

    def allocate_jobs(self) -> None:
        ctx = self.ctx
        # Starting a job only takes it off the idle queue, so one pass
        # over the queue sees the candidates in the order a fresh read
        # before each start would.
        candidates = [
            job
            for job in ctx.job_manager.idle_jobs()
            if job.epochs_completed < self.rung_budget
        ]
        for job in candidates:
            machine_id = ctx.resource_manager.reserve_idle_machine()
            if machine_id is None:
                return
            ctx.start(job.job_id, machine_id)

    def on_iteration_finish(self, event: IterationFinished) -> Decision:
        ctx = self.ctx
        if event.epoch < self.rung_budget:
            return Decision.CONTINUE

        self._waiting.add(event.job_id)
        active = ctx.job_manager.active_jobs()
        still_training = [
            job
            for job in active
            if job.job_id not in self._waiting
            and job.epochs_completed < self.rung_budget
        ]
        if still_training:
            # Barrier: park at the rung boundary until the cohort lands.
            return Decision.SUSPEND
        return self._close_rung(event.job_id)

    # ------------------------------------------------------------ internals

    def _close_rung(self, current_job_id: str) -> Decision:
        """Rank the cohort, terminate the losers, advance the rung."""
        ctx = self.ctx
        cohort = [
            job
            for job in ctx.job_manager.active_jobs()
            if job.job_id in self._waiting
        ]
        cohort.sort(
            key=lambda job: ctx.domain.normalize(job.best_metric or 0.0),
            reverse=True,
        )
        keep = max(1, math.ceil(len(cohort) / self.eta))
        survivors = {job.job_id for job in cohort[:keep]}

        current_survives = current_job_id in survivors
        for job in cohort[keep:]:
            if job.job_id == current_job_id:
                continue  # decided via the returned Decision
            if job.state in (JobState.SUSPENDED, JobState.PENDING):
                ctx.job_manager.terminate_job(job.job_id)
                ctx.appstat_db.drop_snapshot(job.job_id)

        self.rung += 1
        self.rung_budget = min(
            int(round(self.rung_budget * self.eta)), ctx.domain.max_epochs
        )
        self._waiting.clear()
        # Survivors waiting in the idle queue are picked up by the
        # allocation round that follows the next machine release.
        return Decision.CONTINUE if current_survives else Decision.TERMINATE


class HyperBandPolicy(SchedulingPolicy):
    """Full HyperBand: several successive-halving brackets in sequence.

    HyperBand (Li et al., ICLR'17 — §8 related work) hedges the
    exploration/exploitation trade-off by running brackets with
    different aggressiveness: the first bracket starts many
    configurations on tiny budgets and halves hard; the last runs few
    configurations to (nearly) full budget.  Brackets run sequentially
    over disjoint slices of the experiment's configuration set, each
    slice scheduled with the barrier discipline of
    :class:`SuccessiveHalvingPolicy`.

    Args:
        eta: elimination factor shared by all brackets.
        max_budget: per-configuration epoch budget ``R``; None uses the
            domain's ``max_epochs``.
    """

    name = "hyperband"

    def __init__(self, eta: float = 3.0, max_budget: Optional[int] = None) -> None:
        super().__init__()
        if eta <= 1.0:
            raise ValueError("eta must exceed 1")
        self.eta = eta
        self.max_budget = max_budget
        self._brackets: Optional[list] = None  # list of (job_ids, r0)
        self._bracket_index = 0
        self.rung_budget = 1
        self._waiting: Set[str] = set()

    # ------------------------------------------------------------ brackets

    def _ensure_brackets(self) -> None:
        if self._brackets is not None:
            return
        ctx = self.ctx
        budget = self.max_budget or ctx.domain.max_epochs
        s_max = int(math.floor(math.log(budget, self.eta)))
        jobs = [job.job_id for job in ctx.job_manager.jobs()]
        # Aggressive brackets first; each takes a proportional slice of
        # the configuration set (most configs to the most aggressive).
        weights = [self.eta**s for s in range(s_max, -1, -1)]
        total = sum(weights)
        self._brackets = []
        cursor = 0
        for s, weight in zip(range(s_max, -1, -1), weights):
            count = max(1, int(round(len(jobs) * weight / total)))
            slice_ids = jobs[cursor : cursor + count]
            cursor += count
            if slice_ids:
                r0 = max(1, int(round(budget * self.eta**-s)))
                self._brackets.append((set(slice_ids), r0))
        # Any remainder joins the last bracket.
        for job_id in jobs[cursor:]:
            self._brackets[-1][0].add(job_id)
        self._enter_bracket(0)

    def _enter_bracket(self, index: int) -> None:
        self._bracket_index = index
        self._waiting.clear()
        if self._brackets is not None and index < len(self._brackets):
            self.rung_budget = self._brackets[index][1]

    def _current_bracket_ids(self) -> Set[str]:
        assert self._brackets is not None
        if self._bracket_index >= len(self._brackets):
            return set()
        return self._brackets[self._bracket_index][0]

    def _advance_if_bracket_done(self) -> None:
        """Move to the next bracket when the current one has no live
        jobs below its (final) budget."""
        ctx = self.ctx
        while self._bracket_index < len(self._brackets or []):
            bracket_ids = self._current_bracket_ids()
            live = [
                job
                for job in ctx.job_manager.active_jobs()
                if job.job_id in bracket_ids
            ]
            if live:
                return
            self._enter_bracket(self._bracket_index + 1)

    # ------------------------------------------------------------ up-calls

    def allocate_jobs(self) -> None:
        ctx = self.ctx
        self._ensure_brackets()
        self._advance_if_bracket_done()
        bracket_ids = self._current_bracket_ids()
        # One pass over the queue, as in SuccessiveHalvingPolicy.
        candidates = [
            job
            for job in ctx.job_manager.idle_jobs()
            if job.job_id in bracket_ids
            and job.epochs_completed < self.rung_budget
        ]
        for job in candidates:
            machine_id = ctx.resource_manager.reserve_idle_machine()
            if machine_id is None:
                return
            ctx.start(job.job_id, machine_id)

    def on_iteration_finish(self, event: IterationFinished) -> Decision:
        ctx = self.ctx
        self._ensure_brackets()
        if event.epoch < self.rung_budget:
            return Decision.CONTINUE
        self._waiting.add(event.job_id)
        bracket_ids = self._current_bracket_ids()
        still_training = [
            job
            for job in ctx.job_manager.active_jobs()
            if job.job_id in bracket_ids
            and job.job_id not in self._waiting
            and job.epochs_completed < self.rung_budget
        ]
        if still_training:
            return Decision.SUSPEND
        return self._close_rung(event.job_id, bracket_ids)

    def _close_rung(self, current_job_id: str, bracket_ids: Set[str]) -> Decision:
        ctx = self.ctx
        cohort = [
            job
            for job in ctx.job_manager.active_jobs()
            if job.job_id in self._waiting
        ]
        cohort.sort(
            key=lambda job: ctx.domain.normalize(job.best_metric or 0.0),
            reverse=True,
        )
        keep = max(1, math.ceil(len(cohort) / self.eta))
        survivors = {job.job_id for job in cohort[:keep]}
        current_survives = current_job_id in survivors
        for job in cohort[keep:]:
            if job.job_id == current_job_id:
                continue
            if job.state in (JobState.SUSPENDED, JobState.PENDING):
                ctx.job_manager.terminate_job(job.job_id)
                ctx.appstat_db.drop_snapshot(job.job_id)
        budget = self.max_budget or ctx.domain.max_epochs
        self.rung_budget = min(int(round(self.rung_budget * self.eta)), budget)
        self._waiting.clear()
        return Decision.CONTINUE if current_survives else Decision.TERMINATE
