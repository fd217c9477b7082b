"""Episodic scheduling environment for learned-policy training.

:class:`SchedulerEnv` wraps the simulator substrate — registry
workloads, hyperparameter generators, and the §7.1
:class:`~repro.sim.trace.Trace` — as a gym-style episodic environment:

* ``reset(gen_seed)`` mints a fresh configuration set from the
  generator under that seed and records every configuration's
  observed stream as a trace (so an episode's dynamics are a pure
  function of ``(env config, gen_seed)`` — deterministic rollouts).
* The cluster is modelled **asynchronously**, mirroring the
  discrete-event scheduler: each ``step`` happens when a machine
  frees, and the action assigns one configuration (possibly the one
  that just freed — a CONTINUE) to that machine for one eval window
  (``domain.eval_boundary`` epochs), plus any kills.  Giving a window
  to configuration A therefore delays every other configuration *on
  that machine's timeline only* — the same exploration price the real
  scheduler charges — unlike a synchronous barrier, which underprices
  exploration and teaches policies that spread slots too thin.
* Observations are :func:`~repro.learn.features.feature_matrix` rows —
  the exact featurization the frozen SAP computes from live jobs, so
  there is no train/serve skew.
* The reward is terminal and mirrors the repo's headline metric:
  best normalized accuracy, plus the remaining-horizon fraction when
  the target is reached (reaching it *faster* is worth more).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..learn.features import ConfigStateArrays, feature_matrix
from ..metrics.stats import minmax_normalize
from .trace import Trace, record_trace

__all__ = ["EnvConfig", "SchedulerEnv"]


@dataclass(frozen=True)
class EnvConfig:
    """Static environment parameters (the workload/cluster shape)."""

    workload: str = "cifar10"
    generator: str = "random"
    num_configs: int = 16
    slots: int = 4
    tmax_hours: float = 8.0
    target: Optional[float] = None  # raw scale; None = domain default
    stream_seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "generator": self.generator,
            "num_configs": self.num_configs,
            "slots": self.slots,
            "tmax_hours": self.tmax_hours,
            "target": self.target,
            "stream_seed": self.stream_seed,
        }


@dataclass
class _EpisodeState:
    streams: Trace
    normalized: np.ndarray     # (n, max_epochs) streams.metrics in [0, 1]
    epochs: np.ndarray         # (n,) epochs completed (in-flight included)
    invested: np.ndarray       # (n,) training seconds spent
    alive: np.ndarray          # (n,) not killed
    running_until: np.ndarray  # (n,) completion time of in-flight window
    machine_free: np.ndarray   # (slots,) per-machine release time
    steps: int = 0
    target_reached: bool = False
    time_to_target: Optional[float] = None
    gen_seed: int = 0
    killed: List[int] = field(default_factory=list)


class SchedulerEnv:
    """Asynchronous window-granularity scheduling episodes.

    One action per machine release: the policy allocates a single
    configuration (``slots_per_step == 1``) to the freed machine and
    may kill others.  Configurations mid-window on other machines are
    not candidates — they are busy, exactly as running jobs are in the
    scheduler.
    """

    #: Configurations allocated per decision (one machine frees at a
    #: time in the async model).
    slots_per_step = 1

    def __init__(self, config: Optional[EnvConfig] = None) -> None:
        from ..registry import build_workload

        self.config = config or EnvConfig()
        # Workload construction (calibrator + reference grid) dominates;
        # build once and share across episodes.
        self.workload = build_workload(self.config.workload)
        self.domain = self.workload.domain
        self.window = int(self.domain.eval_boundary)
        self.tmax = float(self.config.tmax_hours) * 3600.0
        self.raw_target = (
            float(self.config.target)
            if self.config.target is not None
            else float(self.domain.target)
        )
        self.norm_target = float(self.domain.normalize(self.raw_target))
        self._state: Optional[_EpisodeState] = None

    @property
    def n_features(self) -> int:
        from ..learn.features import FEATURE_NAMES

        return len(FEATURE_NAMES)

    # ------------------------------------------------------------ episode

    def reset(self, gen_seed: int) -> np.ndarray:
        """Start an episode: mint configs under ``gen_seed``, return
        the initial observation matrix."""
        from ..registry import build_generator

        generator = build_generator(
            self.config.generator,
            self.workload,
            max_configs=self.config.num_configs,
            gen_seed=gen_seed,
        )
        configs = [
            config for _, config in generator.create_jobs(self.config.num_configs)
        ]
        if not configs:
            raise RuntimeError("generator produced no configurations")
        # The noise seed varies *with* the generator seed (offset by the
        # static stream_seed) so training sees a different training-noise
        # realization per configuration set — a policy trained on one
        # frozen noise draw overfits it and loses the generalization the
        # held-out study measures.  Dynamics stay a pure function of
        # (EnvConfig, gen_seed).
        streams = record_trace(
            self.workload, configs, seed=self.config.stream_seed + gen_seed
        )
        n = len(streams)
        self._state = _EpisodeState(
            streams=streams,
            normalized=self._normalize(streams.metrics),
            epochs=np.zeros(n, dtype=int),
            invested=np.zeros(n),
            alive=np.ones(n, dtype=bool),
            running_until=np.zeros(n),
            machine_free=np.zeros(self.config.slots),
            gen_seed=gen_seed,
        )
        return self.observe()

    @property
    def now(self) -> float:
        """The next decision time: the earliest machine release."""
        state = self._require_state()
        return float(state.machine_free.min())

    def candidates(self) -> np.ndarray:
        """Indices assignable at the next machine release.

        Fast-forwards the freed machine past windows of time where
        every schedulable configuration is mid-window elsewhere (the
        machine idles until the next completion, as the real scheduler
        would leave it without idle jobs).
        """
        state = self._require_state()
        max_epochs = self.domain.max_epochs
        while True:
            t = state.machine_free.min()
            if t >= self.tmax or state.target_reached:
                return np.empty(0, dtype=int)
            schedulable = (
                state.alive
                & (state.epochs < max_epochs)
                & (state.running_until <= t)
            )
            ready = np.flatnonzero(schedulable)
            if ready.size:
                return ready
            busy = state.running_until[
                state.alive
                & (state.epochs < max_epochs)
                & (state.running_until > t)
            ]
            if busy.size == 0:
                return np.empty(0, dtype=int)
            # Idle this machine until the next in-flight completion.
            state.machine_free[int(np.argmin(state.machine_free))] = float(
                busy.min()
            )

    def state_arrays(self) -> ConfigStateArrays:
        state = self._require_state()
        normalized = state.normalized
        n = len(state.streams)
        last = np.zeros(n)
        prev = np.zeros(n)
        best = np.zeros(n)
        for index in range(n):
            k = int(state.epochs[index])
            if k == 0:
                continue
            last[index] = float(normalized[index, k - 1])
            best[index] = float(normalized[index, :k].max())
            if k > self.window:
                prev[index] = float(normalized[index, k - 1 - self.window])
        return ConfigStateArrays(
            epochs=state.epochs.copy(),
            last=last,
            prev=prev,
            best=best,
            invested=state.invested.copy(),
            elapsed=float(state.machine_free.min()),
            tmax=self.tmax,
            slots=self.config.slots,
            window=self.window,
            max_epochs=self.domain.max_epochs,
            norm_target=self.norm_target,
        )

    def observe(self) -> np.ndarray:
        return feature_matrix(self.state_arrays())

    def step(
        self,
        slots: Sequence[int],
        kills: Sequence[int] = (),
    ) -> tuple:
        """Apply one scheduling decision at the next machine release.

        ``slots`` holds the configuration to run next on the freed
        machine (at most one in the async model).  Returns
        ``(observation, reward, done, info)``; the reward is 0 until
        the terminal step.
        """
        state = self._require_state()
        streams = state.streams

        for index in kills:
            if state.alive[index]:
                state.alive[index] = False
                state.killed.append(int(index))

        machine = int(np.argmin(state.machine_free))
        t = float(state.machine_free[machine])
        assigned = False
        for index in list(slots)[:1]:
            index = int(index)
            if not state.alive[index] or state.running_until[index] > t:
                continue
            start = int(state.epochs[index])
            advance = min(self.window, self.domain.max_epochs - start)
            if advance <= 0:
                continue
            chunk_durations = streams.durations[index, start:start + advance]
            chunk_metrics = streams.metrics[index, start:start + advance]
            spent = np.cumsum(chunk_durations)
            hits = np.flatnonzero(chunk_metrics >= self.raw_target)
            if hits.size:
                candidate_time = t + float(spent[hits[0]])
                if candidate_time <= self.tmax and (
                    state.time_to_target is None
                    or candidate_time < state.time_to_target
                ):
                    state.time_to_target = candidate_time
            total = float(spent[-1])
            state.invested[index] += total
            state.epochs[index] = start + advance
            state.running_until[index] = t + total
            state.machine_free[machine] = t + total
            assigned = True
        if not assigned:
            # No (valid) assignment: the machine idles to the next event.
            busy = state.running_until[state.running_until > t]
            state.machine_free[machine] = (
                float(busy.min()) if busy.size else self.tmax
            )
        state.steps += 1

        elapsed = float(state.machine_free.min())
        if (
            state.time_to_target is not None
            and elapsed >= state.time_to_target
        ):
            state.target_reached = True

        done = (
            state.target_reached
            or elapsed >= self.tmax
            or self.candidates().size == 0
        )
        if done and state.time_to_target is not None:
            state.target_reached = True
        reward = self._terminal_reward(state) if done else 0.0
        info = {
            "elapsed": elapsed,
            "steps": state.steps,
            "best_norm": self._best_norm(state),
            "target_reached": state.target_reached,
            "time_to_target": state.time_to_target,
            "gen_seed": state.gen_seed,
            "killed": list(state.killed),
        }
        return self.observe(), reward, done, info

    # ------------------------------------------------------------ helpers

    def _best_norm(self, state: _EpisodeState) -> float:
        best = 0.0
        for index in range(len(state.streams)):
            k = int(state.epochs[index])
            if k:
                best = max(best, float(state.normalized[index, :k].max()))
        return best

    def _normalize(self, metrics: np.ndarray) -> np.ndarray:
        """The normalized view policies reason in (eq. 4)."""
        if not self.domain.normalizes:
            return np.clip(metrics, 0.0, 1.0)
        return minmax_normalize(metrics, self.domain.r_min, self.domain.r_max)

    def _terminal_reward(self, state: _EpisodeState) -> float:
        """Best accuracy per unit time: the best normalized metric,
        plus the unspent-horizon fraction when the target was hit."""
        reward = self._best_norm(state)
        if state.target_reached and state.time_to_target is not None:
            reward += max(0.0, 1.0 - state.time_to_target / self.tmax)
        return reward

    def _require_state(self) -> _EpisodeState:
        if self._state is None:
            raise RuntimeError("call reset() before stepping the env")
        return self._state
