"""Workload abstraction: what HyperDrive schedules.

A :class:`Workload` bundles a hyperparameter :class:`SearchSpace` with a
:class:`DomainSpec` (targets, kill thresholds, normalisation — the
"domain knowledge from the model owner" of §2.1) and a factory for
:class:`TrainingRun` objects.

A :class:`TrainingRun` is the unit the Node Agent drives: calling
:meth:`TrainingRun.step` trains for one epoch and returns an
:class:`EpochResult` carrying the epoch duration and the evaluation
metric.  Runs are suspendable: :meth:`TrainingRun.snapshot_state`
captures everything needed for :meth:`TrainingRun.restore_state` to
continue the run on another machine — the CRIU role from §5.1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..generators.space import SearchSpace
from ..metrics.stats import minmax_normalize

__all__ = ["DomainSpec", "EpochResult", "TrainingRun", "Workload"]


@dataclass(frozen=True)
class DomainSpec:
    """Model-owner domain knowledge consumed by scheduling policies.

    Attributes:
        kind: ``"supervised"`` or ``"reinforcement"``.
        metric_name: e.g. ``"validation_accuracy"`` or ``"reward"``.
        target: raw-scale target performance (paper: 0.77 accuracy for
            CIFAR-10; reward 200 for LunarLander).
        kill_threshold: raw-scale non-learning threshold used for early
            termination (0.15 accuracy; -100 reward).
        random_performance: raw performance of a non-learning model
            (0.10 accuracy; about -200 reward for a random lander).
        max_epochs: maximum epochs a configuration may train.
        eval_boundary: the paper's ``b``: policies act every ``b``-th
            epoch (10 for supervised, RL's 2000 iterations expressed in
            this repo's epoch units).
        r_min / r_max: min-max normalisation range for RL rewards
            (eq. 4); None for metrics already in [0, 1].
    """

    kind: str
    metric_name: str
    target: float
    kill_threshold: float
    random_performance: float
    max_epochs: int
    eval_boundary: int
    r_min: Optional[float] = None
    r_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("supervised", "reinforcement"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.eval_boundary < 1:
            raise ValueError("eval_boundary must be positive")
        if (self.r_min is None) != (self.r_max is None):
            raise ValueError("r_min and r_max must be given together")

    @property
    def normalizes(self) -> bool:
        return self.r_min is not None

    def normalize(self, value: float) -> float:
        """Map a raw metric into [0, 1] for the curve predictor."""
        if not self.normalizes:
            return float(min(max(value, 0.0), 1.0))
        return float(minmax_normalize([value], self.r_min, self.r_max)[0])

    @property
    def normalized_target(self) -> float:
        return self.normalize(self.target)

    @property
    def normalized_kill_threshold(self) -> float:
        return self.normalize(self.kill_threshold)


@dataclass(frozen=True, slots=True)
class EpochResult:
    """One epoch of training as observed by the Node Agent.

    Attributes:
        epoch: 1-based epoch index just completed.
        duration: wall-clock seconds the epoch took (simulated time in
            the DES, measured time in the live runtime).
        metric: raw-scale evaluation metric after this epoch.
        done: True when the run has exhausted its epoch budget.
        extras: additional model-owner metrics beyond the primary one
            (§9 Ongoing Work: e.g. model sparsity alongside perplexity).
            Carried through to :class:`~repro.framework.events.AppStat`
            so SAPs can build multi-metric termination criteria.
    """

    epoch: int
    duration: float
    metric: float
    done: bool
    extras: Dict[str, float] = field(default_factory=dict)


class TrainingRun(abc.ABC):
    """A single configuration's training process."""

    @property
    @abc.abstractmethod
    def config(self) -> Dict[str, Any]:
        """The hyperparameter configuration being trained."""

    @property
    @abc.abstractmethod
    def epochs_completed(self) -> int:
        """How many epochs have been trained so far."""

    @abc.abstractmethod
    def step(self) -> EpochResult:
        """Train one epoch and return its result.

        Raises:
            RuntimeError: if called after the run finished.
        """

    @abc.abstractmethod
    def snapshot_state(self) -> Dict[str, Any]:
        """Capture resumable state (JSON-serialisable plus ndarrays)."""

    @abc.abstractmethod
    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`snapshot_state`."""

    @property
    def finished(self) -> bool:
        return False


class Workload(abc.ABC):
    """A schedulable hyperparameter-exploration problem."""

    @property
    @abc.abstractmethod
    def space(self) -> SearchSpace:
        """The hyperparameter search space."""

    @property
    @abc.abstractmethod
    def domain(self) -> DomainSpec:
        """Domain knowledge for scheduling policies."""

    @abc.abstractmethod
    def create_run(self, config: Dict[str, Any], seed: int = 0) -> TrainingRun:
        """Instantiate a training run for ``config``.

        Args:
            config: a point from :attr:`space`.
            seed: controls the run's stochasticity (weight init, data
                order, environment randomness).
        """
