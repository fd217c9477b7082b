"""The HyperDrive scheduler core (§4.2 ➄).

:class:`HyperDriveScheduler` owns all experiment state — Job Manager,
Resource Manager, AppStat DB, Node Agents, the SAP — and encodes the
control flow between them.  It is *backend-agnostic*: a time backend
(the discrete-event simulator in :mod:`repro.sim` or the threaded live
runtime in :mod:`repro.runtime`) drives it by

1. calling :meth:`begin` once,
2. delivering :meth:`process_epoch` whenever a hosted job finishes an
   epoch and acting on the returned :class:`FollowUp`,
3. calling :meth:`machine_released` once any release delay (suspend
   latency) has elapsed,
4. draining :meth:`take_started_machines` after any call that may have
   started jobs, and scheduling those machines' first epochs.

All scheduling *logic* therefore lives here exactly once; backends only
decide when simulated or real time passes.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..curves.predictor import (
    CurvePrediction,
    CurvePredictor,
    InstrumentedCurvePredictor,
)
from ..observability import NULL_RECORDER
from .policy_api import PolicyContext, SchedulingPolicy
from ..workloads.base import EpochResult, Workload
from .appstat_db import AppStatDB
from .events import (
    AppStat,
    Decision,
    IterationFinished,
    LifecycleEvent,
    LifecycleKind,
)
from .experiment import (
    ExperimentResult,
    ExperimentSpec,
    TargetAchievement,
)
from .job import Job, JobState
from .job_manager import JobManager
from .node_agent import NodeAgent
from .resource_manager import ResourceManager
from .snapshot import cost_model_for_domain

__all__ = ["FollowUpAction", "FollowUp", "NEXT_EPOCH", "HyperDriveScheduler"]

logger = logging.getLogger(__name__)


class FollowUpAction(enum.Enum):
    """What the backend must do after ``process_epoch``."""

    NEXT_EPOCH = "next_epoch"  # schedule another epoch on this machine
    RELEASE_MACHINE = "release_machine"  # call machine_released after delay
    EXPERIMENT_DONE = "experiment_done"  # stop everything


@dataclass(frozen=True, slots=True)
class FollowUp:
    """Backend instruction produced by :meth:`process_epoch`.

    Attributes:
        action: what to do next on the machine.
        delay: seconds before the action happens (suspend latency, or a
            blocking prediction holding the machine).
        epoch_scale: duration multiplier for the next epoch (contention
            from an overlapped prediction, §5.2).
    """

    action: FollowUpAction
    delay: float = 0.0
    epoch_scale: float = 1.0


#: The plain "train the next epoch now" instruction, shared: most epochs
#: return it, and a frozen record is never mutated.
NEXT_EPOCH = FollowUp(FollowUpAction.NEXT_EPOCH)


class HyperDriveScheduler:
    """Backend-agnostic scheduling brain of HyperDrive."""

    def __init__(
        self,
        workload: Workload,
        policy: SchedulingPolicy,
        spec: ExperimentSpec,
        clock: Callable[[], float],
        predictor: Optional[CurvePredictor] = None,
        recorder=None,
        agent_factory: Optional[Callable[..., NodeAgent]] = None,
    ) -> None:
        self.workload = workload
        self.policy = policy
        self.spec = spec
        self._clock = clock
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.recorder.bind_clock(self._clock)
        if self.recorder.enabled and predictor is not None:
            predictor = InstrumentedCurvePredictor(predictor, self.recorder)
        self.job_manager = JobManager(recorder=self.recorder)
        self.resource_manager = ResourceManager(spec.num_machines)
        self.appstat_db = AppStatDB()
        self.target = (
            spec.target if spec.target is not None else workload.domain.target
        )
        cost_model = cost_model_for_domain(workload.domain.kind)
        # The agent factory is the runtime's substitution point: the
        # in-process runtimes use real NodeAgents, the cluster runtime
        # injects socket-backed proxies with the same surface — nothing
        # below this constructor knows the difference.
        if agent_factory is None:
            agent_factory = NodeAgent
        self.agents: Dict[str, NodeAgent] = {
            machine_id: agent_factory(
                machine_id=machine_id,
                workload=workload,
                snapshot_cost_model=cost_model,
                predictor=predictor,
                seed=spec.seed + index,
                recorder=self.recorder,
            )
            for index, machine_id in enumerate(self.resource_manager.machine_ids)
        }
        self.result = ExperimentResult(policy_name=policy.name, spec=spec)
        self._started_machines: List[str] = []
        self._charges: Dict[str, Tuple[float, float]] = {}
        #: Busy machines a resize() shrink is waiting to drain; evicted
        #: (suspend + release) at their next epoch boundary.
        self._evict_pending: Set[str] = set()
        self._done = False
        self._context: Optional[PolicyContext] = None
        # The per-epoch instruments are views of the result, plus the
        # kills by rationale (first-seen order) and the suspend count
        # kept here; the duration histogram's bucket is bound once.
        self._kills: Dict[str, int] = {}
        self._suspends = 0
        metrics = self.recorder.metrics
        result = self.result
        metrics.counter(
            "scheduler_epochs_total", help="Epochs processed by the scheduler"
        ).collect_from(
            lambda: {(): result.epochs_trained} if result.epochs_trained else {}
        )
        self._durations = metrics.histogram(
            "epoch_duration_seconds",
            help="Experiment-clock duration of completed epochs",
        ).bucket()
        metrics.counter(
            "scheduler_kills_total",
            help="Jobs terminated by the SAP, by rationale",
        ).collect_from(
            lambda: {
                (("reason", reason),): count
                for reason, count in self._kills.items()
            }
        )
        metrics.counter(
            "scheduler_suspends_total", help="Jobs suspended by the SAP"
        ).collect_from(lambda: {(): self._suspends} if self._suspends else {})
        metrics.gauge(
            "experiment_best_metric",
            help="Best evaluation metric observed so far",
        ).collect_from(
            lambda: {} if result.best_metric is None else {(): result.best_metric}
        )
        # Unless spans are kept or exported, the decision span is only
        # its summary entry, added to here without a span object.
        tracer = self.recorder.tracer
        self._decision_stats: Optional[Dict[str, float]] = (
            tracer.stats("scheduler.process_epoch")
            if self.recorder.enabled
            and not tracer.keep_spans
            and tracer.on_span is None
            else None
        )
        self._m_promising_ratio = metrics.gauge(
            "slots_promising_ratio",
            help="Promising-pool slots over total machine slots",
        )
        self._m_jobs_active = metrics.gauge(
            "jobs_active", help="Jobs still in play (pending/running/suspended)"
        )
        #: (promising ratio, active jobs) as last set on the two gauges.
        self._gauged: Optional[Tuple[float, int]] = None

    # -------------------------------------------------------------- set-up

    def add_job(self, job_id: str, config: Dict) -> Job:
        """Register one configuration as a schedulable job."""
        job = Job(job_id=job_id, config=dict(config))
        self.job_manager.add_job(job)
        self._log(LifecycleKind.CREATED, job_id)
        return job

    def begin(self) -> None:
        """Bind the policy and perform the initial allocation."""
        self._context = PolicyContext(
            job_manager=self.job_manager,
            resource_manager=self.resource_manager,
            appstat_db=self.appstat_db,
            domain=self.workload.domain,
            tmax=self.spec.tmax,
            target=self.target,
            now=self._clock,
            start=self._start_job,
            predict=self._predict,
            stop_experiment=self._stop_experiment,
            recorder=self.recorder,
        )
        self.policy.bind(self._context)
        self.policy.allocate_jobs()

    # ----------------------------------------------------- backend surface

    @property
    def done(self) -> bool:
        return self._done

    def take_started_machines(self) -> List[str]:
        """Machines whose jobs were just started/resumed; backends must
        schedule the first epoch on each.  Clears the buffer."""
        started, self._started_machines = self._started_machines, []
        return started

    def machine_speed(self, machine_id: str) -> float:
        """Speed multiplier of ``machine_id`` (1.0 = homogeneous)."""
        factors = self.spec.machine_speed_factors
        if factors is None:
            return 1.0
        index = self.resource_manager.machine_ids.index(machine_id)
        return factors[index]

    def scaled_epoch(
        self, machine_id: str, raw: EpochResult, scale: float
    ) -> EpochResult:
        """``raw`` as it elapses on ``machine_id``: stretched by
        ``scale`` (contention from an overlapped prediction) and shrunk
        by the machine's speed (heterogeneous clusters)."""
        speed = self.machine_speed(machine_id)
        if scale == 1.0 and speed == 1.0:
            return raw
        return EpochResult(
            epoch=raw.epoch,
            duration=raw.duration * scale / speed,
            metric=raw.metric,
            done=raw.done,
            extras=raw.extras,
        )

    def process_epoch(self, machine_id: str, result: EpochResult) -> FollowUp:
        """Handle one finished epoch; returns the backend instruction."""
        if self._done:
            return FollowUp(FollowUpAction.EXPERIMENT_DONE)
        agent = self.agents[machine_id]
        job_id = agent.job_id
        if job_id is None:
            raise RuntimeError(f"epoch reported by idle machine {machine_id}")
        job = self.job_manager.get(job_id)
        now = self._clock()

        stat = AppStat(
            job_id=job_id,
            epoch=result.epoch,
            metric=result.metric,
            duration=result.duration,
            timestamp=now,
            machine_id=machine_id,
            extras=dict(result.extras),
        )
        job.record(stat)
        self.appstat_db.record_stat(stat)
        self.result.epochs_trained += 1
        self._durations.append(float(result.duration))
        if self.result.best_metric is None or result.metric > self.result.best_metric:
            self.result.best_metric = result.metric
            self.result.best_job_id = job_id
        self.policy.application_stat(stat)

        if result.metric >= self.target and (
            self.spec.stop_on_target or self.spec.dynamic_target
        ):
            if not self.result.reached_target:
                self.result.reached_target = True
                self.result.time_to_target = now
            if self.spec.stop_on_target:
                self._done = True
                self._log(LifecycleKind.COMPLETED, job_id, machine_id,
                          {"reason": "target"})
                return FollowUp(FollowUpAction.EXPERIMENT_DONE)
            if self.spec.dynamic_target:
                # §9 dynamic-target mode: record the milestone and raise
                # the bar; the search continues toward the new target.
                self.result.target_achievements.append(
                    TargetAchievement(
                        timestamp=now,
                        target=self.target,
                        job_id=job_id,
                        metric=result.metric,
                    )
                )
                while result.metric >= self.target:
                    self.target += self.spec.target_increment
                if self._context is not None:
                    self._context.target = self.target

        run = agent.run
        job_finished = run is not None and run.finished
        event = IterationFinished(
            job_id=job_id,
            epoch=result.epoch,
            metric=result.metric,
            timestamp=now,
            machine_id=machine_id,
            job_finished=job_finished,
        )

        if job_finished:
            self._evict_pending.discard(machine_id)
            self.job_manager.complete_job(job_id)
            agent.release()
            self._log(LifecycleKind.COMPLETED, job_id, machine_id)
            self._record_pool_snapshot(now)
            return FollowUp(FollowUpAction.RELEASE_MACHINE)

        if machine_id in self._evict_pending:
            # A resize() shrink claimed this machine: suspend the job
            # at this boundary (lossless — snapshot + idle queue) and
            # surrender the slot without consulting the policy.
            self._evict_pending.discard(machine_id)
            snapshot = replace(agent.capture_snapshot(), timestamp=now)
            self.appstat_db.save_snapshot(snapshot)
            self.result.snapshots.append(snapshot)
            self.job_manager.suspend_job(job_id)
            agent.release()
            self._charges.pop(machine_id, None)
            self._suspends += 1
            self._log(
                LifecycleKind.SUSPENDED, job_id, machine_id,
                {"latency": snapshot.latency, "reason": "drain"},
            )
            self._record_pool_snapshot(now)
            return FollowUp(
                FollowUpAction.RELEASE_MACHINE, delay=snapshot.latency
            )

        decisions = self._decision_stats
        if decisions is not None:
            start, wall = self._clock(), time.perf_counter()
            decision = self.policy.on_iteration_finish(event)
            decisions["count"] += 1
            decisions["wall_seconds"] += time.perf_counter() - wall
            decisions["experiment_seconds"] += self._clock() - start
        else:
            with self.recorder.tracer.span(
                "scheduler.process_epoch",
                job_id=job_id,
                machine_id=machine_id,
                epoch=result.epoch,
            ):
                decision = self.policy.on_iteration_finish(event)
        self._record_pool_snapshot(now)
        rationale = getattr(self.policy, "last_decision_rationale", None)
        if self.recorder.enabled:
            self._audit_decision(decision, job, event, rationale)

        if self._done:
            # The SAP invoked stop_experiment (a user-defined global
            # termination criterion fired, §9 Ongoing Work).
            return FollowUp(FollowUpAction.EXPERIMENT_DONE)

        if decision is Decision.CONTINUE:
            blocking, scale = self._charges.pop(machine_id, (0.0, 1.0))
            if (
                self.spec.checkpoint_interval is not None
                and result.epoch % self.spec.checkpoint_interval == 0
            ):
                # Periodic checkpoint: bounds the work a machine
                # failure can destroy; its latency briefly holds the
                # machine, like any suspend capture.
                checkpoint = replace(agent.capture_snapshot(), timestamp=now)
                self.appstat_db.save_snapshot(checkpoint)
                self.result.snapshots.append(checkpoint)
                blocking += checkpoint.latency
            if blocking == 0.0 and scale == 1.0:
                return NEXT_EPOCH
            return FollowUp(
                FollowUpAction.NEXT_EPOCH, delay=blocking, epoch_scale=scale
            )
        if decision is Decision.SUSPEND:
            snapshot = replace(agent.capture_snapshot(), timestamp=now)
            self.appstat_db.save_snapshot(snapshot)
            self.result.snapshots.append(snapshot)
            self.job_manager.suspend_job(job_id)
            agent.release()
            self._charges.pop(machine_id, None)
            self._suspends += 1
            self._log(
                LifecycleKind.SUSPENDED,
                job_id,
                machine_id,
                {"latency": snapshot.latency, "size": snapshot.size_bytes},
            )
            return FollowUp(
                FollowUpAction.RELEASE_MACHINE, delay=snapshot.latency
            )
        # TERMINATE
        self.job_manager.terminate_job(job_id)
        agent.release()
        self.appstat_db.drop_snapshot(job_id)
        self._charges.pop(machine_id, None)
        reason = str((rationale or {}).get("reason", "policy"))
        self._kills[reason] = self._kills.get(reason, 0) + 1
        self._log(
            LifecycleKind.TERMINATED,
            job_id,
            machine_id,
            dict(rationale) if rationale else None,
        )
        return FollowUp(FollowUpAction.RELEASE_MACHINE)

    def machine_released(self, machine_id: str) -> None:
        """Backend signal: ``machine_id`` is idle again (any suspend
        latency elapsed).  Triggers a fresh allocation round."""
        self.resource_manager.release_machine(machine_id)
        if self._done:
            return
        self.policy.allocate_jobs()

    def machine_failed(self, machine_id: str) -> None:
        """Backend signal: ``machine_id`` crashed / was preempted.

        The hosted job (if any) loses all work since its most recent
        snapshot — periodic checkpoints (``checkpoint_interval``) bound
        that loss — and re-enters the idle queue to be resumed on
        another machine, the recovery path §5.1's snapshots enable.
        """
        self._evict_pending.discard(machine_id)
        agent = self.agents[machine_id]
        if agent.busy:
            job_id = agent.job_id
            assert job_id is not None
            job = self.job_manager.get(job_id)
            snapshot = self.appstat_db.load_snapshot(job_id)
            resume_epoch = snapshot.epoch if snapshot is not None else 0
            lost = job.truncate_history(resume_epoch)
            self.result.epochs_lost_to_failures += lost
            self.job_manager.suspend_job(job_id)
            agent.release()
            self._charges.pop(machine_id, None)
            self._log(
                LifecycleKind.MACHINE_FAILED,
                job_id,
                machine_id,
                {"epochs_lost": lost, "resume_epoch": resume_epoch},
            )
        else:
            self._log(LifecycleKind.MACHINE_FAILED, "-", machine_id)
        self.resource_manager.fail_machine(machine_id)
        self.result.machine_failures += 1

    def machine_recovered(self, machine_id: str) -> None:
        """Backend signal: a failed machine rejoined the pool."""
        self.resource_manager.recover_machine(machine_id)
        self._log(LifecycleKind.MACHINE_RECOVERED, "-", machine_id)
        if self._done:
            return
        self.policy.allocate_jobs()

    def resize(self, target: int) -> int:
        """Elastically resize the in-service machine pool to ``target``
        slots (a broker granted or reclaimed leases).

        Shrinking drains idle machines immediately; busy machines over
        the target are *marked for eviction* and drain at their next
        epoch boundary — their job is snapshotted and suspended through
        the normal SAP suspend path, so the work resumes losslessly on
        a surviving machine.  Growing returns drained machines to
        service and triggers an allocation round.  Returns the
        in-service count (shrinks show up fully once busy machines hit
        their next boundary).
        """
        rm = self.resource_manager
        target = max(0, min(target, rm.num_machines))
        before = rm.num_in_service
        drained_before = {m for m in rm.machine_ids if rm.is_drained(m)}
        for machine_id in rm.set_target_capacity(target):
            self._log(LifecycleKind.MACHINE_DRAINED, "-", machine_id)
        for machine_id in sorted(drained_before):
            if not rm.is_drained(machine_id):
                self._evict_pending.discard(machine_id)
                self._log(LifecycleKind.MACHINE_RETURNED, "-", machine_id)
        # Mark the newest busy machines for boundary eviction until the
        # (eventual) in-service count meets the target.
        busy = sorted(
            (m for m in rm.machine_ids
             if rm.is_busy(m) and not rm.is_drained(m)),
            reverse=True,
        )
        pending_after = rm.num_in_service - len(
            self._evict_pending & set(busy)
        )
        for machine_id in busy:
            if pending_after <= target:
                break
            if machine_id not in self._evict_pending:
                self._evict_pending.add(machine_id)
                pending_after -= 1
        # Over-marked from an earlier, deeper shrink? Unmark survivors
        # — but never a retiring machine (a targeted eviction, e.g. a
        # spot revocation, must complete regardless of pool size).
        unmarkable = sorted(
            m for m in self._evict_pending if not rm.is_retiring(m)
        )
        while pending_after < target and unmarkable:
            self._evict_pending.discard(unmarkable.pop(0))
            pending_after += 1
        # Pre-begin resize (a broker setup hook trimming the pool to
        # its granted leases) must not allocate: the policy is unbound
        # until begin() runs its initial allocation.
        if (
            self._context is not None
            and not self._done
            and rm.num_in_service != before
        ):
            self.policy.allocate_jobs()
        return rm.num_in_service

    def evict_machine(self, machine_id: str, quarantine: bool = False) -> bool:
        """Gracefully push one *specific* machine out of service.

        The spot-revocation path: an idle machine drains immediately;
        a busy one is marked for boundary eviction, so its job is
        snapshotted, suspended, and resumed on a survivor before the
        doomed instance disappears.  ``quarantine=True`` additionally
        bars the machine from resurrection by later capacity grows.
        Returns True when the machine is already drained.
        """
        rm = self.resource_manager
        already_drained = rm.is_drained(machine_id)
        drained_now = rm.retire_machine(machine_id, quarantine=quarantine)
        if drained_now:
            self._evict_pending.discard(machine_id)
            if not already_drained:
                self._log(LifecycleKind.MACHINE_DRAINED, "-", machine_id)
        else:
            self._evict_pending.add(machine_id)
        return drained_now

    def checkpoint_state(self) -> Dict[str, object]:
        """A JSON-serialisable progress checkpoint of the experiment.

        This is *observable* state — clock, epoch counts, per-job
        progress, headline metrics — persisted periodically by the
        experiment service for status reporting and resume bookkeeping.
        It is not a full state capture: recovery reconstructs the run
        by deterministic replay of the journaled inputs (see
        ``docs/service.md``), with this checkpoint marking how far the
        interrupted run had progressed.
        """
        best = self.result.best_metric
        return {
            "clock": float(self._clock()),
            "epochs_trained": int(self.result.epochs_trained),
            "best_metric": None if best is None else float(best),
            "best_job_id": self.result.best_job_id,
            "reached_target": bool(self.result.reached_target),
            "target": float(self.target),
            "machine_failures": int(self.result.machine_failures),
            "suspend_snapshots": len(self.result.snapshots),
            "jobs": {
                job.job_id: {
                    "state": job.state.value,
                    "epochs": int(job.epochs_completed),
                    "best_metric": (
                        None
                        if job.best_metric is None
                        else float(job.best_metric)
                    ),
                }
                for job in self.job_manager.jobs()
            },
        }

    def finalize(self) -> ExperimentResult:
        """Close out the experiment and return the result object."""
        self.result.finished_at = self._clock()
        self.result.jobs = self.job_manager.jobs()
        self.result.predictions_made = sum(
            agent.predictions_made for agent in self.agents.values()
        )
        if self.recorder.enabled:
            self.result.observability = self.recorder.snapshot()
        return self.result

    # ----------------------------------------------------- context closures

    def _start_job(self, job_id: str, machine_id: str) -> None:
        """Start or resume ``job_id`` on ``machine_id`` (SAP closure)."""
        job = self.job_manager.get(job_id)
        if job.state is JobState.PENDING:
            self.job_manager.start_job(job_id, machine_id)
            snapshot = None
            kind = LifecycleKind.STARTED
        elif job.state is JobState.SUSPENDED:
            self.job_manager.resume_job(job_id, machine_id)
            # A suspended job normally resumes from its snapshot; after
            # a machine failure with no checkpoint it restarts from
            # scratch (snapshot None -> fresh run), its history having
            # been truncated accordingly.
            snapshot = self.appstat_db.load_snapshot(job_id)
            kind = LifecycleKind.RESUMED
        else:
            raise ValueError(
                f"cannot start job {job_id} in state {job.state.value}"
            )
        agent = self.agents[machine_id]
        agent.assign(
            job_id, job.config, seed=self.spec.seed, snapshot=snapshot
        )
        self._started_machines.append(machine_id)
        self._log(kind, job_id, machine_id)

    def _stop_experiment(self, reason: str = "policy") -> None:
        """SAP-initiated global termination (§9 Ongoing Work)."""
        self._done = True
        if self.result.time_to_target is None:
            self.result.time_to_target = self._clock()
        self.result.reached_target = True

    def _predict(self, job_id: str, n_future: int) -> CurvePrediction:
        """Run curve prediction on the agent hosting ``job_id`` and
        charge its wall cost to the machine (§5.2)."""
        hosting = None
        for agent in self.agents.values():
            if agent.job_id == job_id:
                hosting = agent
                break
        if hosting is None:
            raise RuntimeError(
                f"job {job_id} is not hosted on any machine; prediction "
                "runs on Node Agents"
            )
        prediction = hosting.predict(n_future)
        blocking, scale = self._charges.get(hosting.machine_id, (0.0, 1.0))
        if self.spec.overlap_prediction:
            scale *= 1.0 + self.spec.prediction_contention
        else:
            blocking += self.spec.prediction_seconds
        self._charges[hosting.machine_id] = (blocking, scale)
        return prediction

    # ------------------------------------------------------------ internal

    def _audit_decision(
        self,
        decision: Decision,
        job: Job,
        event: IterationFinished,
        rationale: Optional[Dict],
    ) -> None:
        """One audit record per SAP decision that consulted something,
        carrying the inputs that produced it (confidence ``p``, ERT, the
        dynamic threshold, the promising-slot count) plus the policy's
        own rationale.  A CONTINUE with no rationale, or only POP's
        ``between_boundaries``, is not written: a job's epochs with no
        record between two written ones are exactly those continues."""
        if decision is Decision.CONTINUE and (
            not rationale or rationale == {"reason": "between_boundaries"}
        ):
            return
        data = {
            "decision": decision.value,
            "epoch": event.epoch,
            "metric": event.metric,
            "confidence": job.confidence,
            "expected_remaining_time": job.expected_remaining_time,
            "threshold": getattr(self.policy, "threshold", None),
            "promising_slots": getattr(self.policy, "promising_slots", None),
            "promising": job.promising,
        }
        if rationale:
            data.update(rationale)  # the policy's own account wins
        self.recorder.audit.record(
            "sap_decision",
            job_id=job.job_id,
            machine_id=event.machine_id,
            **data,
        )

    def _record_pool_snapshot(self, now: float) -> None:
        job_manager = self.job_manager
        promising = job_manager.num_promising
        running = job_manager.num_running
        active = job_manager.num_active
        promising_slots = getattr(self.policy, "promising_slots", 0)
        num_machines = self.resource_manager.num_machines
        gauged = (
            promising_slots / num_machines if num_machines else 0.0,
            active,
        )
        if gauged != self._gauged:
            self._gauged = gauged
            self._m_promising_ratio.set(gauged[0])
            self._m_jobs_active.set(active)
        # The timeline keeps every sample (Fig 4c averages over them)
        # as runs of equal counts; the audit trail gets only the change
        # points, the samples that open a run.
        opened = self.result.pool_timeline.append(
            now, (promising, running, active, promising_slots)
        )
        if opened and self.recorder.enabled:
            self.recorder.audit.record(
                "pool_snapshot",
                promising=promising,
                running=running,
                active=active,
                promising_slots=promising_slots,
            )

    def _log(
        self,
        kind: LifecycleKind,
        job_id: str,
        machine_id: Optional[str] = None,
        detail: Optional[Dict] = None,
    ) -> None:
        timestamp = self._clock()
        if logger.isEnabledFor(logging.INFO) and kind is not LifecycleKind.CREATED:
            logger.info(
                "[t=%8.0fs] %-16s job=%s machine=%s %s",
                timestamp,
                kind.value,
                job_id,
                machine_id or "-",
                detail or "",
            )
        if self.recorder.enabled and kind is not LifecycleKind.CREATED:
            self.recorder.audit.record(
                "lifecycle",
                job_id=job_id,
                machine_id=machine_id,
                event=kind.value,
                **(detail or {}),
            )
        self.result.lifecycle.append(
            LifecycleEvent(
                kind=kind,
                job_id=job_id,
                timestamp=timestamp,
                machine_id=machine_id,
                detail=detail or {},
            )
        )
