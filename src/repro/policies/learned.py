"""Learned SAP: a frozen policy artifact driving the unchanged scheduler.

The serving half of :mod:`repro.learn`: load a frozen artifact (JSON
weights + feature schema), featurize live jobs with the exact
:func:`~repro.learn.features.feature_matrix` the agent trained on, and
turn the network's two heads into SAP decisions:

* **kill head** — at each eval-window boundary a job with positive
  kill logit (and at least one full observed window) is terminated;
  other non-running jobs that score a kill are terminated in the same
  pass (the successive-halving idiom).
* **allocation head** — jobs are ranked by allocation logit; a running
  job outside the top-``num_machines`` is suspended when idle jobs are
  waiting, and idle-queue priorities follow the scores so the best
  candidates resume first.

The policy never calls ``ctx.predict`` — its ERT/confidence inputs are
the closed-form proxies baked into the features — so decisions cost
microseconds and evaluation cells need no prediction budget.

Artifact resolution order: explicit constructor path, then the
``REPRO_LEARNED_ARTIFACT`` environment variable (which reaches the
lab's cell-worker subprocesses), then the committed pretrained
artifact (:data:`~repro.learn.artifact.PRETRAINED_PATH` — what makes
``learned-vs-pop`` runnable out of the box), then a seeded random
initialisation — the same initialisation
:class:`RandomInitLearnedPolicy` always uses, which is the control arm
of the ``learned-vs-pop`` study.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

from ..framework.events import Decision, IterationFinished
from ..framework.job import JobState
from ..learn.agent import PolicyNetwork
from ..learn.artifact import ARTIFACT_ENV_VAR, PRETRAINED_PATH, load_artifact
from ..learn.features import FEATURE_NAMES, arrays_from_jobs, feature_matrix
from .base import SchedulingPolicy

__all__ = ["LearnedPolicy", "RandomInitLearnedPolicy"]


def _random_init_network(hidden: int = 16, seed: int = 0) -> PolicyNetwork:
    return PolicyNetwork(len(FEATURE_NAMES), hidden=hidden, seed=seed)


class LearnedPolicy(SchedulingPolicy):
    """SAP driven by a frozen learned-policy artifact.

    Args:
        artifact_path: frozen artifact to load; None falls back to the
            :data:`~repro.learn.artifact.ARTIFACT_ENV_VAR` environment
            variable, then the committed pretrained artifact, then
            random initialisation.
        hidden: hidden width for the random-init fallback.
        init_seed: weight seed for the random-init fallback.
    """

    name = "learned"

    def __init__(
        self,
        artifact_path: Optional[str] = None,
        hidden: int = 16,
        init_seed: int = 0,
    ) -> None:
        super().__init__()
        path = artifact_path or os.environ.get(ARTIFACT_ENV_VAR) or None
        if path is None and os.path.exists(PRETRAINED_PATH):
            path = PRETRAINED_PATH
        if path:
            artifact = load_artifact(path)
            self.net = PolicyNetwork.from_weights(artifact["weights"])
            self.artifact_path: Optional[str] = path
        else:
            self.net = _random_init_network(hidden=hidden, seed=init_seed)
            self.artifact_path = None
        self.last_decision_rationale: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------ scoring

    def _jobs_and_scores(self):
        """Active jobs with their allocation/kill logits (row-aligned)."""
        ctx = self.ctx
        jobs = ctx.job_manager.active_jobs()
        if not jobs:
            return [], np.empty(0), np.empty(0)
        state = arrays_from_jobs(
            jobs,
            domain=ctx.domain,
            elapsed=max(ctx.now(), 0.0),
            tmax=ctx.tmax,
            slots=ctx.resource_manager.num_machines,
            target=ctx.target,
        )
        alloc, kill, _ = self.net.forward(feature_matrix(state))
        return jobs, alloc, kill

    # ------------------------------------------------------------ up-calls

    def allocate_jobs(self) -> None:
        ctx = self.ctx
        jobs, alloc, _ = self._jobs_and_scores()
        scores = {
            job.job_id: float(alloc[index])
            for index, job in enumerate(jobs)
        }
        for job in ctx.job_manager.idle_jobs():
            ctx.job_manager.label_job(job.job_id, scores.get(job.job_id, 0.0))
        while True:
            job = ctx.job_manager.get_idle_job()
            if job is None:
                return
            machine_id = ctx.resource_manager.reserve_idle_machine()
            if machine_id is None:
                return
            ctx.start(job.job_id, machine_id)

    def on_iteration_finish(self, event: IterationFinished) -> Decision:
        ctx = self.ctx
        window = ctx.domain.eval_boundary
        # Only a window decision has a rationale; a stale one would make
        # the scheduler audit a CONTINUE that consulted nothing.
        self.last_decision_rationale = None
        if event.job_finished or event.epoch % window != 0:
            return Decision.CONTINUE

        jobs, alloc, kill = self._jobs_and_scores()
        rows = {job.job_id: index for index, job in enumerate(jobs)}
        row = rows.get(event.job_id)
        if row is None:
            return Decision.CONTINUE

        # Kill pass: the reporting job via the returned Decision, parked
        # jobs directly (they get no up-call of their own).
        if float(kill[row]) > 0.0:
            self._note(event, "kill", float(kill[row]))
            return Decision.TERMINATE
        for job in jobs:
            other = rows[job.job_id]
            if (
                job.job_id != event.job_id
                and float(kill[other]) > 0.0
                and job.epochs_completed >= window
                and job.state in (JobState.SUSPENDED, JobState.PENDING)
            ):
                ctx.job_manager.terminate_job(job.job_id)
                ctx.appstat_db.drop_snapshot(job.job_id)

        # Allocation pass: keep the slot only while in the top-M.
        survivors: List[int] = [
            rows[job.job_id]
            for job in ctx.job_manager.active_jobs()
            if job.job_id in rows and float(kill[rows[job.job_id]]) <= 0.0
        ]
        order = sorted(survivors, key=lambda index: -float(alloc[index]))
        top = set(order[: ctx.resource_manager.num_machines])
        for job in ctx.job_manager.idle_jobs():
            index = rows.get(job.job_id)
            if index is not None:
                ctx.job_manager.label_job(job.job_id, float(alloc[index]))
        if row not in top and ctx.job_manager.idle_jobs():
            self._note(event, "suspend", float(alloc[row]))
            return Decision.SUSPEND
        self._note(event, "continue", float(alloc[row]))
        return Decision.CONTINUE

    def _note(self, event: IterationFinished, action: str, score: float) -> None:
        # Merged into the scheduler's sap_decision audit record, which
        # already carries job_id/epoch — keep these keys disjoint.
        self.last_decision_rationale = {
            "action": action,
            "score": round(score, 6),
            "artifact": self.artifact_path or "random-init",
        }


class RandomInitLearnedPolicy(LearnedPolicy):
    """The untrained control arm: always random-init weights.

    Evaluating the trained policy against this — same architecture,
    same decision plumbing, no training — isolates what *learning*
    contributed, which is the gated comparison in ``learned-vs-pop``.
    """

    name = "learned-random"

    def __init__(self, hidden: int = 16, init_seed: int = 0) -> None:
        SchedulingPolicy.__init__(self)
        self.net = _random_init_network(hidden=hidden, seed=init_seed)
        self.artifact_path = None
        self.last_decision_rationale = None
