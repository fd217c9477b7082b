"""Live threaded runtime: real concurrency, scaled wall-clock time.

The paper validates its discrete-event simulator against live cluster
runs (Fig. 12a, max error 13%).  This module is the "live" side of that
comparison in our single-machine world: every machine is a real thread,
Node Agents genuinely execute training runs (for the MLP workload that
means real SGD), epoch durations elapse as scaled wall-clock sleeps,
and all coordination goes through the shared scheduler under a lock —
so thread-scheduling jitter, lock contention, and message timing
perturb the experiment exactly the way network/OS jitter perturbs the
paper's live runs.

:class:`ThreadedExperiment` is the one thread-per-machine driver: the
cluster runtime (:mod:`repro.cluster.runtime`) runs the same loops with
Node Agents in worker processes, overriding only its hooks.

``time_scale`` maps simulated seconds to wall seconds (default 1 ms per
simulated second, so a 4-hour experiment replays in ~14 s).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..curves.predictor import CurvePredictor
from ..framework.experiment import ExperimentResult, ExperimentSpec
from ..framework.scheduler import FollowUpAction, HyperDriveScheduler
from ..framework.transport import MessageBus
from ..generators.base import HyperparameterGenerator
from ..observability import NULL_RECORDER, NULL_TRACER
from ..policies.base import SchedulingPolicy
from ..workloads.base import Workload
from ..sim.runner import default_predictor, initial_jobs

__all__ = ["run_live"]

_START = "start"
_STOP = "stop"


class _UnlockedPredictor(CurvePredictor):
    """Releases the scheduler lock while a prediction computes.

    This is §5.2's distributed-prediction optimisation in threaded
    form: predictions run on the Node Agent (the machine thread that
    asked for them), overlapped with everything else, instead of
    serialising the whole cluster behind the central scheduler.
    Without it, every machine stalls for every prediction and the live
    runtime drifts far from the simulator.
    """

    def __init__(self, inner: CurvePredictor, lock) -> None:
        self._inner = inner
        self._lock = lock

    def min_observations(self) -> int:
        return self._inner.min_observations()

    def predict(self, observed, n_future):
        self._lock.release()
        try:
            return self._inner.predict(observed, n_future)
        finally:
            self._lock.acquire()


def check_threaded_arguments(
    spec: ExperimentSpec,
    time_scale: float,
    progress_every_epochs: int,
    failures_hint: str,
) -> None:
    """Reject arguments a threaded runtime cannot honour."""
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    if progress_every_epochs < 1:
        raise ValueError("progress_every_epochs must be >= 1")
    if spec.machine_mtbf is not None:
        raise ValueError(
            "ExperimentSpec.machine_mtbf is honoured only by run_simulation; "
            + failures_hint
        )


class ThreadedExperiment:
    """One threaded run: a driver thread per machine around the shared
    scheduler, a monitor loop on the calling thread.

    The live runtime uses this class as is.  The cluster runtime
    overrides the hooks — :meth:`_launch`, :meth:`_resume_delay`,
    :meth:`_epoch_span`, :meth:`_epoch_lost`, :meth:`_take_started`,
    :meth:`_tick` and :meth:`_teardown` — and shares the clock, the
    epoch loop, the monitor and the shutdown.
    """

    #: Thread-name prefix of the per-machine drivers.
    thread_prefix = "live-worker"
    #: Exceptions that abandon a driver's current assignment but keep
    #: the driver waiting for its next one.
    recoverable: Tuple[Type[BaseException], ...] = ()

    def __init__(
        self,
        workload: Workload,
        policy: SchedulingPolicy,
        spec: ExperimentSpec,
        time_scale: float,
        predictor: Optional[CurvePredictor] = None,
        recorder=None,
        stop_check: Optional[Callable[[], bool]] = None,
        progress_hook: Optional[Callable] = None,
        progress_every_epochs: int = 50,
        setup_hook: Optional[Callable] = None,
        agent_factory: Optional[Callable] = None,
        bus: Optional[MessageBus] = None,
    ) -> None:
        self.spec = spec
        self.time_scale = time_scale
        self.stop_check = stop_check
        self.progress_hook = progress_hook
        self.progress_every_epochs = progress_every_epochs
        self.setup_hook = setup_hook
        # Set when the drivers launch; the clock reads 0.0 until then.
        self._t0: Optional[float] = None
        self.lock = threading.Lock()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Lock contention is the threaded runtimes' analogue of the
        # paper's central-scheduler serialisation (§5.2): measurable
        # when observability is on.
        self._m_lock_wait = self.recorder.metrics.histogram(
            "runtime_lock_wait_seconds",
            help="Wall seconds driver threads waited on the scheduler lock",
        )
        self.scheduler = HyperDriveScheduler(
            workload=workload,
            policy=policy,
            spec=spec,
            clock=self._clock,
            predictor=(
                _UnlockedPredictor(predictor, self.lock)
                if predictor is not None
                else None
            ),
            recorder=recorder,
            agent_factory=agent_factory,
        )
        self.machine_ids = self.scheduler.resource_manager.machine_ids
        self.bus = bus if bus is not None else MessageBus()
        # Declared before any producer exists: the scheduler may start
        # jobs (and send to these topics) before the drivers subscribe,
        # and delivery is strict.
        self._drive = {
            machine_id: self.bus.declare_topic(f"drive/{machine_id}")
            for machine_id in self.machine_ids
        }
        self.stop_event = threading.Event()
        self._threads: List[threading.Thread] = []

    def _clock(self) -> float:
        """Experiment time: scaled wall-clock since the drivers launched."""
        t0 = self._t0
        return 0.0 if t0 is None else (time.monotonic() - t0) / self.time_scale

    def _sleep(self, simulated_seconds: float) -> None:
        # Event.wait instead of time.sleep so a stop/cancel mid-epoch
        # wakes the driver immediately instead of after the full
        # (scaled) epoch duration.
        self.stop_event.wait(max(simulated_seconds, 0.0) * self.time_scale)

    @contextmanager
    def _locked(self):
        """Acquire the scheduler lock, recording the wait when
        observability is on."""
        if self.recorder.enabled:
            waited = time.perf_counter()
            self.lock.acquire()
            self._m_lock_wait.observe(time.perf_counter() - waited)
        else:
            self.lock.acquire()
        try:
            yield
        finally:
            self.lock.release()

    # ---------------------------------------------------------------- hooks

    def _launch(self) -> None:
        """Bring up the machines before ``begin`` (nothing in-process)."""

    def _resume_delay(self, machine_id: str) -> float:
        """Extra delay before a new assignment's first epoch."""
        return 0.0

    def _epoch_span(self, machine_id: str, agent):
        """Trace context around one epoch's train, sleep and settle."""
        return NULL_TRACER.span("epoch")

    def _epoch_lost(self, agent) -> bool:
        """Under the lock: whether the finished epoch must be dropped
        (an in-process machine never loses one)."""
        return False

    def _take_started(self) -> List[str]:
        """Under the lock: machines whose jobs were just started."""
        return self.scheduler.take_started_machines()

    def _tick(self) -> bool:
        """One monitor round's extra work; False aborts the run."""
        return True

    def _teardown(self) -> None:
        """Release the machines once every driver has stopped."""

    # -------------------------------------------------------------- drivers

    def _notify_started(self, started: Sequence[str]) -> None:
        for machine_id in started:
            self.bus.send(f"drive/{machine_id}", _START, None, sender="scheduler")

    def _driver(self, machine_id: str) -> None:
        mailbox = self._drive[machine_id]
        while not self.stop_event.is_set():
            message = mailbox.get(timeout=0.02)
            if message is None:
                continue
            if message.kind == _STOP:
                return
            try:
                self._run_assignment(machine_id)
            except self.recoverable:
                continue

    def _run_assignment(self, machine_id: str) -> None:
        """Drive the hosted job epoch by epoch until it leaves this
        machine (suspend/terminate/complete) or the experiment ends."""
        agent = self.scheduler.agents[machine_id]
        extra_delay, scale = self._resume_delay(machine_id), 1.0
        while not self.stop_event.is_set():
            # Training executes outside the lock: the agent is owned by
            # this thread while the job is assigned here.
            if agent.run is None:
                return
            with self._epoch_span(machine_id, agent) as epoch_span:
                raw = agent.train_epoch()
                epoch_span.set(epoch=raw.epoch)
                result = self.scheduler.scaled_epoch(machine_id, raw, scale)
                self._sleep(extra_delay + result.duration)
                if self.stop_event.is_set():
                    # Stopped/cancelled mid-epoch: the epoch never
                    # finished, so its result must not be recorded.
                    return
                with self._locked():
                    if self._epoch_lost(agent):
                        return
                    followup = self.scheduler.process_epoch(machine_id, result)
                    started = self._take_started()
            self._notify_started(started)

            if followup.action is FollowUpAction.NEXT_EPOCH:
                extra_delay, scale = followup.delay, followup.epoch_scale
                continue
            if followup.action is FollowUpAction.RELEASE_MACHINE:
                self._sleep(followup.delay)
                if self.stop_event.is_set():
                    return
                with self._locked():
                    if self.scheduler.resource_manager.is_failed(machine_id):
                        return  # the node died during the release delay
                    self.scheduler.machine_released(machine_id)
                    started = self._take_started()
                self._notify_started(started)
                return
            # EXPERIMENT_DONE
            self.stop_event.set()
            return

    # ------------------------------------------------------------------ run

    def run(self, jobs: Sequence[Tuple[str, Dict[str, Any]]]) -> ExperimentResult:
        for job_id, config in jobs:
            self.scheduler.add_job(job_id, config)
        self._launch()
        with self.lock:
            if self.setup_hook is not None:
                self.setup_hook(self.scheduler)
            self.scheduler.begin()
            started = self._take_started()
        # Minting, launch and begin() happen at time 0.0, as in the
        # simulator: startup is not charged to the Tmax horizon.
        self._t0 = time.monotonic()
        for machine_id in self.machine_ids:
            thread = threading.Thread(
                target=self._driver,
                args=(machine_id,),
                name=f"{self.thread_prefix}-{machine_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._notify_started(started)

        try:
            self._monitor()
        except BaseException:
            # KeyboardInterrupt (or any monitor failure) must not
            # abandon the drivers silently: stop them best-effort, then
            # let the original exception propagate.
            self._shutdown(strict=False)
            raise
        self._shutdown(strict=True)
        with self.lock:
            return self.scheduler.finalize()

    def _monitor(self) -> None:
        """Wait for completion, cancellation, or the Tmax deadline,
        emitting progress checkpoints along the way."""
        deadline = time.monotonic() + self.spec.tmax * self.time_scale + 30.0
        last_progress = 0
        while not self.stop_event.is_set() and time.monotonic() < deadline:
            time.sleep(0.02)
            if self.stop_check is not None and self.stop_check():
                return
            if self.recorder.enabled:
                self.bus.export_metrics(self.recorder.metrics)
            if not self._tick():
                return
            with self.lock:
                quiescent = (
                    self.scheduler.resource_manager.num_busy == 0
                    and self.scheduler.job_manager.num_idle == 0
                )
                epochs = self.scheduler.result.epochs_trained
                started: Sequence[str] = ()
                if (
                    self.progress_hook is not None
                    and epochs - last_progress >= self.progress_every_epochs
                ):
                    last_progress = epochs
                    self.progress_hook(self.scheduler)
                    # A hook may resize the pool (broker sync): jobs
                    # started on regrown machines need their wake-up.
                    started = self._take_started()
            self._notify_started(started)
            if quiescent:
                return

    def _shutdown(self, strict: bool) -> None:
        """Stop all drivers; with ``strict`` raise if any fail to stop.

        The daemon's cancel endpoint relies on this path being
        reliable: a driver that outlives the join window means the
        scheduler may still mutate after finalize, so that is an error
        rather than a silent leak.
        """
        self.stop_event.set()
        for machine_id in self.machine_ids:
            self.bus.send(f"drive/{machine_id}", _STOP, None, sender="scheduler")
        for thread in self._threads:
            thread.join(timeout=5.0)
        stuck = [thread.name for thread in self._threads if thread.is_alive()]
        self._teardown()
        if stuck and strict:
            raise RuntimeError(
                "runtime threads failed to stop within 5s: "
                + ", ".join(stuck)
                + "; experiment state may be inconsistent"
            )


def run_live(
    workload: Workload,
    policy: SchedulingPolicy,
    generator: Optional[HyperparameterGenerator] = None,
    spec: Optional[ExperimentSpec] = None,
    predictor: Optional[CurvePredictor] = None,
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    time_scale: float = 1e-3,
    recorder=None,
    stop_check: Optional[Callable[[], bool]] = None,
    progress_hook: Optional[Callable] = None,
    progress_every_epochs: int = 50,
    setup_hook: Optional[Callable] = None,
) -> ExperimentResult:
    """Run one experiment on the live threaded runtime.

    Args:
        workload: the training problem.
        policy: the SAP under test.
        generator: HG minting configurations (or pass ``configs``).
        spec: experiment parameters; ``machine_mtbf`` is rejected (only
            the simulator arms machine failures).
        predictor: curve predictor; defaults to the bench predictor.
        configs: explicit configuration list.
        time_scale: wall seconds per simulated second.
        recorder: observability facade
            (:class:`~repro.observability.Recorder`); None disables
            instrumentation at zero cost.
        stop_check: external cancellation probe, as in
            :func:`~repro.sim.runner.run_simulation`: the monitor calls
            it every 20 ms round, and True stops the run promptly
            (in-flight epochs are discarded) with the partial result.
        progress_hook: called with the scheduler (under the lock)
            roughly every ``progress_every_epochs`` trained epochs.
        progress_every_epochs: epoch granularity of ``progress_hook``.
        setup_hook: called once with the scheduler (under the lock)
            before ``begin`` — the broker shrinks the machine pool to
            its granted slot leases here, before any job starts.

    Returns:
        The finalised :class:`ExperimentResult`, with timestamps on the
        simulated-seconds axis (comparable to ``run_simulation``): the
        clock starts at 0.0 when the machine threads launch.

    Raises:
        RuntimeError: a worker thread failed to stop during shutdown.
    """
    if spec is None:
        spec = ExperimentSpec()
    check_threaded_arguments(
        spec, time_scale, progress_every_epochs,
        "inject failures into a threaded run with run_cluster's FaultPlan",
    )
    jobs = initial_jobs(generator, configs, spec.num_configs)
    experiment = ThreadedExperiment(
        workload=workload,
        policy=policy,
        spec=spec,
        time_scale=time_scale,
        predictor=predictor if predictor is not None else default_predictor(),
        recorder=recorder,
        stop_check=stop_check,
        progress_hook=progress_hook,
        progress_every_epochs=progress_every_epochs,
        setup_hook=setup_hook,
    )
    return experiment.run(jobs)
