"""The POP scheduling policy (§3, §5.3).

Per ``on_iteration_finish``:

1. Domain poor-check: a job that has not escaped the kill threshold
   after its grace period is terminated before any prediction runs.
2. At evaluation boundaries (every ``b`` epochs), the hosting Node
   Agent predicts the job's future curve; ERT and confidence ``p`` are
   computed per §3.1.1.
3. Jobs with ``p`` below the 0.05 lower bound are terminated.
4. The dynamic threshold ``p*`` is recomputed from all active jobs'
   confidences (the desired/deserved crossing of §3.2); every active
   job is (re)classified and promising jobs are labelled with
   ``priority = p``.
5. The current job continues if promising; if opportunistic and other
   idle jobs are waiting, it is suspended so the opportunistic pool
   round-robins.

``allocate_jobs`` fills the promising pool first (highest confidence
first, up to the pool size), then round-robins the remaining slots over
opportunistic jobs.  Allocation is work-conserving: a machine is never
left idle while any runnable job exists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..framework.events import Decision, IterationFinished
from ..framework.job import Job
from ..framework.policy_api import PolicyContext, SchedulingPolicy
from ..observability import NULL_RECORDER
from .allocation import compute_slot_allocation
from .classification import (
    CONFIDENCE_LOWER_BOUND,
    Category,
    classify,
    is_poor_by_domain,
)
from .ert import estimate_remaining_time

__all__ = ["POPPolicy"]


class POPPolicy(SchedulingPolicy):
    """Promising / Opportunistic / Poor scheduling.

    Args:
        eval_boundary: ``b``; None uses the workload domain's value
            (10 supervised / 20 RL epochs, per §5.3).
        grace_multiplier: the kill-threshold grace period, in units of
            ``b`` ("a few iterations", §2.1/§5.3).
        confidence_lower_bound: terminate when ``p`` falls below this.
        slots_per_config: ``k`` in the desired-slots computation.
    """

    name = "pop"

    def __init__(
        self,
        eval_boundary: Optional[int] = None,
        grace_multiplier: int = 2,
        confidence_lower_bound: float = CONFIDENCE_LOWER_BOUND,
        slots_per_config: int = 1,
        confidence_smoothing: float = 0.4,
    ) -> None:
        super().__init__()
        if grace_multiplier < 1:
            raise ValueError("grace_multiplier must be >= 1")
        if not 0.0 <= confidence_smoothing < 1.0:
            raise ValueError("confidence_smoothing must be in [0, 1)")
        self._eval_boundary = eval_boundary
        self.grace_multiplier = grace_multiplier
        self.confidence_lower_bound = confidence_lower_bound
        self.slots_per_config = slots_per_config
        self.confidence_smoothing = confidence_smoothing
        #: Current promising-pool size (read by the scheduler's
        #: timeline logging and by allocate_jobs).
        self.promising_slots: int = 0
        #: Current dynamic threshold p*.
        self.threshold: float = 1.0
        #: Predictions made per job (confidence kills require >= 2:
        #: a single early estimate is too noisy to end a job on).
        self._prediction_counts: Dict[str, int] = {}
        #: Why the latest ``on_iteration_finish`` decided what it did —
        #: consumed by the scheduler's decision audit trail so every
        #: TERMINATE record carries the inputs that justified it.
        self.last_decision_rationale: Optional[Dict[str, Any]] = None
        # Instrument handles; rebound to the live registry in bind().
        self._m_threshold = NULL_RECORDER.metrics.gauge("pop_threshold")
        self._m_reclassifications = NULL_RECORDER.metrics.counter(
            "pop_reclassifications_total"
        )
        self._m_best_ert = NULL_RECORDER.metrics.gauge("pop_best_ert_seconds")

    def bind(self, context: PolicyContext) -> None:
        super().bind(context)
        metrics = context.recorder.metrics
        self._m_threshold = metrics.gauge(
            "pop_threshold", help="Dynamic confidence threshold p* (§3.2)"
        )
        self._m_reclassifications = metrics.counter(
            "pop_reclassifications_total",
            help="POP reclassification rounds at evaluation boundaries",
        )
        self._m_best_ert = metrics.gauge(
            "pop_best_ert_seconds",
            help="Lowest expected remaining time across active jobs",
        )

    # --------------------------------------------------------------- knobs

    @property
    def eval_boundary(self) -> int:
        if self._eval_boundary is not None:
            return self._eval_boundary
        return self.ctx.domain.eval_boundary

    @property
    def grace_epochs(self) -> int:
        return self.grace_multiplier * self.eval_boundary

    # ------------------------------------------------------------ up-calls

    def allocate_jobs(self) -> None:
        ctx = self.ctx
        while True:
            idle_jobs = ctx.job_manager.idle_jobs()
            if not idle_jobs:
                return
            promising_idle = [job for job in idle_jobs if job.promising]
            opportunistic_idle = [job for job in idle_jobs if not job.promising]
            running_promising = sum(
                1 for job in ctx.job_manager.running_jobs() if job.promising
            )

            job = self._pick_next(
                promising_idle, opportunistic_idle, running_promising
            )
            if job is None:
                return
            machine_id = ctx.resource_manager.reserve_idle_machine()
            if machine_id is None:
                return
            ctx.start(job.job_id, machine_id)

    def _pick_next(
        self,
        promising_idle: List[Job],
        opportunistic_idle: List[Job],
        running_promising: int,
    ) -> Optional[Job]:
        """Pool-aware pick: promising first while the pool has room,
        then opportunistic round-robin; work-conserving otherwise."""
        if promising_idle and running_promising < self.promising_slots:
            return promising_idle[0]  # idle_jobs() already priority-sorted
        if opportunistic_idle:
            return opportunistic_idle[0]
        if promising_idle:
            return promising_idle[0]
        return None

    def on_iteration_finish(self, event: IterationFinished) -> Decision:
        ctx = self.ctx
        job = ctx.job_manager.get(event.job_id)

        # (1) Domain poor-check before any prediction (§5.3).
        if is_poor_by_domain(job.metrics, ctx.domain, self.grace_epochs):
            self.last_decision_rationale = {
                "reason": "domain_poor",
                "kill_threshold": ctx.domain.kill_threshold,
                "grace_epochs": self.grace_epochs,
                "best_metric": max(job.metrics),
            }
            return Decision.TERMINATE

        if event.epoch % self.eval_boundary != 0:
            self.last_decision_rationale = {"reason": "between_boundaries"}
            return Decision.CONTINUE

        # (2) Predict and compute ERT + confidence at the boundary.
        self._update_estimate(job)

        # (3) Confidence lower bound.  A job is only killed on
        # confidence once at least two predictions agree (the smoothed
        # value is below the bound on a non-first boundary): one noisy
        # early estimate must not end a potential achiever.
        if (
            job.confidence is not None
            and job.confidence < self.confidence_lower_bound
            and self._prediction_counts.get(job.job_id, 0) >= 2
        ):
            self.last_decision_rationale = {
                "reason": "confidence_below_bound",
                "p": job.confidence,
                "bound": self.confidence_lower_bound,
                "predictions": self._prediction_counts[job.job_id],
            }
            return Decision.TERMINATE

        # (4) Recompute the dynamic threshold and reclassify everyone.
        self._reclassify_all()

        # (5) Decide for the current job.
        if job.promising:
            self.last_decision_rationale = {
                "reason": "promising",
                "p": job.confidence,
                "p_star": self.threshold,
            }
            return Decision.CONTINUE
        if ctx.job_manager.num_idle > 0:
            self.last_decision_rationale = {
                "reason": "opportunistic_rotation",
                "p": job.confidence,
                "p_star": self.threshold,
                "idle_jobs": ctx.job_manager.num_idle,
            }
            return Decision.SUSPEND
        self.last_decision_rationale = {
            "reason": "work_conserving",
            "p": job.confidence,
            "p_star": self.threshold,
        }
        return Decision.CONTINUE

    # ------------------------------------------------------------ internals

    def _update_estimate(self, job: Job) -> None:
        """Run curve prediction for ``job`` and store ERT/confidence."""
        ctx = self.ctx
        epoch_duration = job.mean_epoch_duration
        if epoch_duration is None:
            return
        time_remaining = ctx.tmax - ctx.now()
        epochs_left = ctx.domain.max_epochs - job.epochs_completed
        horizon = min(
            epochs_left, max(1, int(time_remaining // epoch_duration))
        )
        if horizon < 1 or time_remaining <= 0:
            job.confidence = 0.0
            job.expected_remaining_time = 0.0
            return
        try:
            prediction = ctx.predict(job.job_id, horizon)
        except ValueError:
            return  # history still too short for the predictor
        estimate = estimate_remaining_time(
            prediction,
            target=ctx.normalized_target,
            epoch_duration=epoch_duration,
            time_remaining=time_remaining,
        )
        if ctx.recorder.enabled:
            ctx.recorder.audit.record(
                "prediction",
                job_id=job.job_id,
                epoch=job.epochs_completed,
                confidence=estimate.confidence,
                expected_remaining_seconds=estimate.expected_remaining_seconds,
                horizon_epochs=estimate.horizon_epochs,
                prediction_accuracy=estimate.prediction_accuracy,
            )
        # Exponentially smooth the confidence so single noisy
        # predictions do not flap a job between pools (or kill it).
        if job.confidence is None or self.confidence_smoothing == 0.0:
            job.confidence = estimate.confidence
        else:
            alpha = self.confidence_smoothing
            job.confidence = (
                alpha * job.confidence + (1.0 - alpha) * estimate.confidence
            )
        job.expected_remaining_time = estimate.expected_remaining_seconds
        self._prediction_counts[job.job_id] = (
            self._prediction_counts.get(job.job_id, 0) + 1
        )

    def _allocatable_slots(self) -> int:
        """Slots the desired/deserved computation divides.  In-service,
        not nominal: under a broker lease reclaim the drained machines
        must stop counting.  Subclasses may clamp further (e.g. the
        budget-aware variant caps at what the budget can afford)."""
        ctx = self.ctx
        return (
            getattr(ctx.resource_manager, "num_in_service", None)
            or ctx.resource_manager.num_machines
        )

    def _priority_for(self, job: Job) -> float:
        """Priority label for a promising job (§5.3 uses ``p``)."""
        assert job.confidence is not None
        return job.confidence

    def _reclassify_all(self) -> None:
        """Recompute p*, the pool size, and every job's category."""
        ctx = self.ctx
        active = ctx.job_manager.active_jobs()
        confidences = [
            job.confidence for job in active if job.confidence is not None
        ]
        total_slots = self._allocatable_slots()
        allocation = compute_slot_allocation(
            confidences,
            total_slots=total_slots,
            slots_per_config=self.slots_per_config,
        )
        self.threshold = allocation.threshold
        self.promising_slots = allocation.promising_slots
        self._m_threshold.set(self.threshold)
        self._m_reclassifications.inc()
        erts = [
            job.expected_remaining_time
            for job in active
            if job.expected_remaining_time
        ]
        if erts:
            self._m_best_ert.set(min(erts))
        categories: Optional[Dict[str, str]] = (
            {} if ctx.recorder.enabled else None
        )

        for job in active:
            category = classify(
                confidence=job.confidence,
                threshold=self.threshold,
                metrics=job.metrics,
                domain=ctx.domain,
                grace_epochs=self.grace_epochs,
                confidence_lower_bound=self.confidence_lower_bound,
            )
            if categories is not None:
                categories[job.job_id] = category.value
            promising = (
                category is Category.PROMISING and self.promising_slots > 0
            )
            ctx.job_manager.mark_promising(job.job_id, promising)
            if promising and job.confidence is not None:
                # Label promising jobs with priority = p (§5.3);
                # subclasses may reweight (e.g. value per dollar).
                ctx.job_manager.label_job(job.job_id, self._priority_for(job))
            elif job.priority is not None and not promising:
                ctx.job_manager.label_job(job.job_id, None)

        if categories is not None:
            # One audit record per reclassification round: the inputs
            # (confidences, slot math) and the resulting category map.
            ctx.recorder.audit.record(
                "pop_classification",
                threshold=self.threshold,
                promising_slots=self.promising_slots,
                effective_slots=allocation.effective_slots,
                num_promising=allocation.num_promising,
                active_jobs=len(active),
                confidences={
                    job.job_id: job.confidence
                    for job in active
                    if job.confidence is not None
                },
                categories=categories,
            )
