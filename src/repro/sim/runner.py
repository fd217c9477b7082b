"""Run HyperDrive experiments under simulated time.

``run_simulation`` is the workhorse behind every sensitivity study and
most benches: it wires a :class:`HyperDriveScheduler` to the
:class:`SimulationEngine`, mints jobs from a Hyperparameter Generator
(or an explicit configuration list, for order-sensitivity studies),
and drives the experiment to completion.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..curves.predictor import CurvePredictor, LeastSquaresCurvePredictor
from ..framework.experiment import ExperimentResult, ExperimentSpec
from ..framework.scheduler import (
    FollowUpAction,
    HyperDriveScheduler,
)
from ..generators.base import HyperparameterGenerator
from ..policies.base import SchedulingPolicy
from ..workloads.base import EpochResult, Workload
from .engine import SimulationEngine

__all__ = ["run_simulation", "default_predictor", "initial_jobs"]


def default_predictor() -> CurvePredictor:
    """The predictor configuration used by simulation benches.

    The fast least-squares ensemble over the seven cheapest curve
    families: the paper itself traded MCMC fidelity for speed (§5.2);
    see the MCMC-budget ablation bench for the comparison.
    """
    return LeastSquaresCurvePredictor(
        n_sample_curves=100,
        restarts=2,
        model_names=LeastSquaresCurvePredictor.FAST_MODEL_SUBSET,
        max_nfev=60,
    )


def initial_jobs(
    generator: Optional[HyperparameterGenerator],
    configs: Optional[Sequence[Dict[str, Any]]],
    count: int,
) -> List[Tuple[str, Dict[str, Any]]]:
    """An experiment's ``(job_id, config)`` pairs, for every runtime.

    Exactly one source: explicit ``configs`` become ``job-NNNN`` in
    order, or ``generator`` mints up to ``count`` of them.
    """
    if (generator is None) == (configs is None):
        raise ValueError("provide exactly one of generator or configs")
    if configs is not None:
        return [
            (f"job-{index:04d}", config) for index, config in enumerate(configs)
        ]
    return generator.create_jobs(count)


def run_simulation(
    workload: Workload,
    policy: SchedulingPolicy,
    generator: Optional[HyperparameterGenerator] = None,
    spec: Optional[ExperimentSpec] = None,
    predictor: Optional[CurvePredictor] = None,
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    recorder=None,
    stop_check: Optional[Callable[[], bool]] = None,
    progress_hook: Optional[Callable[[HyperDriveScheduler], None]] = None,
    progress_every_epochs: int = 50,
    setup_hook: Optional[Callable[[HyperDriveScheduler], None]] = None,
) -> ExperimentResult:
    """Simulate one hyperparameter-exploration experiment.

    Args:
        workload: the training problem.
        policy: the SAP under test.
        generator: HG minting configurations; required unless
            ``configs`` is given.
        spec: experiment parameters (machines, Tmax, target, ...).
        predictor: learning-curve predictor for policies that use one.
        configs: explicit configuration list (bypasses the generator;
            used for configuration-order sensitivity, §7.2.2).
        recorder: observability facade
            (:class:`~repro.observability.Recorder`); None disables
            instrumentation at zero cost.
        stop_check: external cancellation probe, polled between events;
            returning True ends the run early with a partial result
            (the experiment service's cancel endpoint rides on this).
        progress_hook: called with the scheduler roughly every
            ``progress_every_epochs`` trained epochs (service
            checkpointing); None disables the bookkeeping.
        progress_every_epochs: epoch granularity of ``progress_hook``.
        setup_hook: called once with the fully built scheduler before
            ``begin`` — the broker shrinks the machine pool to its
            granted slot leases here, before any job starts.

    Returns:
        The finalised :class:`ExperimentResult`.
    """
    if spec is None:
        spec = ExperimentSpec()
    jobs = initial_jobs(generator, configs, spec.num_configs)

    engine = SimulationEngine(recorder=recorder)
    scheduler = HyperDriveScheduler(
        workload=workload,
        policy=policy,
        spec=spec,
        clock=lambda: engine.now,
        predictor=predictor if predictor is not None else default_predictor(),
        recorder=recorder,
    )

    for job_id, config in jobs:
        scheduler.add_job(job_id, config)

    generations: Dict[str, int] = {
        machine_id: 0 for machine_id in scheduler.resource_manager.machine_ids
    }
    if spec.machine_mtbf is not None:
        _arm_failures(scheduler, engine, generations, spec)

    if progress_every_epochs < 1:
        raise ValueError("progress_every_epochs must be >= 1")
    last_progress = 0

    def _stop_when() -> bool:
        # Stop on target, and also once no job is live — otherwise
        # perpetual fault-injection events would idle the clock out to
        # Tmax after the real work has finished.
        nonlocal last_progress
        if (
            progress_hook is not None
            and scheduler.result.epochs_trained - last_progress
            >= progress_every_epochs
        ):
            last_progress = scheduler.result.epochs_trained
            progress_hook(scheduler)
            # A hook may resize the pool (broker sync): jobs started on
            # regrown machines need their first epoch scheduled.
            _schedule_started_machines(scheduler, engine, generations)
        if scheduler.done or not scheduler.job_manager.num_active:
            return True
        return stop_check is not None and stop_check()

    if setup_hook is not None:
        setup_hook(scheduler)
    scheduler.begin()
    _schedule_started_machines(scheduler, engine, generations)
    engine.run(until=spec.tmax, stop_when=_stop_when)
    return scheduler.finalize()


def _arm_failures(
    scheduler: HyperDriveScheduler,
    engine: SimulationEngine,
    generations: Dict[str, int],
    spec: ExperimentSpec,
) -> None:
    """Schedule exponential machine failures and recoveries.

    Bumping a machine's generation invalidates its in-flight epoch and
    release events, modelling the work a crash destroys mid-epoch.
    """
    rng = np.random.default_rng(spec.seed + 987654)

    def schedule_next(machine_id: str) -> None:
        delay = float(rng.exponential(spec.machine_mtbf))
        engine.schedule(delay, lambda: fail(machine_id))

    def fail(machine_id: str) -> None:
        if scheduler.done:
            return
        generations[machine_id] += 1
        scheduler.machine_failed(machine_id)
        # A job freed by the failure may be resumable elsewhere now.
        scheduler.policy.allocate_jobs()
        _schedule_started_machines(scheduler, engine, generations)
        engine.schedule(
            spec.machine_recovery_seconds, lambda: recover(machine_id)
        )

    def recover(machine_id: str) -> None:
        if scheduler.done:
            return
        scheduler.machine_recovered(machine_id)
        _schedule_started_machines(scheduler, engine, generations)
        schedule_next(machine_id)

    for machine_id in generations:
        schedule_next(machine_id)


def _schedule_started_machines(
    scheduler: HyperDriveScheduler,
    engine: SimulationEngine,
    generations: Optional[Dict[str, int]] = None,
) -> None:
    for machine_id in scheduler.take_started_machines():
        _begin_epoch(
            scheduler, engine, machine_id, generations,
            extra_delay=0.0, scale=1.0,
        )


def _generation(generations: Optional[Dict[str, int]], machine_id: str) -> int:
    return 0 if generations is None else generations.get(machine_id, 0)


def _begin_epoch(
    scheduler: HyperDriveScheduler,
    engine: SimulationEngine,
    machine_id: str,
    generations: Optional[Dict[str, int]],
    extra_delay: float,
    scale: float,
) -> None:
    """Advance the hosted run one epoch and schedule its completion.

    The completion event carries the machine's current generation; if
    the machine fails meanwhile (generation bump), the stale event is
    dropped — the crash destroyed that epoch's work.
    """
    agent = scheduler.agents[machine_id]
    # A blocking prediction holds the machine before the epoch starts.
    result = scheduler.scaled_epoch(machine_id, agent.train_epoch(), scale)
    generation = _generation(generations, machine_id)
    engine.schedule(
        extra_delay + result.duration,
        lambda: _finish_epoch(
            scheduler, engine, machine_id, generations, generation, result
        ),
    )


def _finish_epoch(
    scheduler: HyperDriveScheduler,
    engine: SimulationEngine,
    machine_id: str,
    generations: Optional[Dict[str, int]],
    generation: int,
    result: EpochResult,
) -> None:
    if generation != _generation(generations, machine_id):
        return  # the machine failed while this epoch was in flight
    followup = scheduler.process_epoch(machine_id, result)
    if followup.action is FollowUpAction.NEXT_EPOCH:
        _begin_epoch(
            scheduler,
            engine,
            machine_id,
            generations,
            extra_delay=followup.delay,
            scale=followup.epoch_scale,
        )
    elif followup.action is FollowUpAction.RELEASE_MACHINE:
        engine.schedule(
            followup.delay,
            lambda: _release_machine(
                scheduler, engine, machine_id, generations, generation
            ),
        )
    else:  # EXPERIMENT_DONE
        engine.stop()
    _schedule_started_machines(scheduler, engine, generations)


def _release_machine(
    scheduler: HyperDriveScheduler,
    engine: SimulationEngine,
    machine_id: str,
    generations: Optional[Dict[str, int]],
    generation: int,
) -> None:
    if generation != _generation(generations, machine_id):
        return  # the machine failed during the release window
    scheduler.machine_released(machine_id)
    _schedule_started_machines(scheduler, engine, generations)
