"""Synthetic LunarLander reinforcement-learning workload.

The paper trains a Keras/Theano DQN-style agent on OpenAI Gym's
LunarLander-v2, exploring 11 hyperparameters on 15 CPU machines
(§6.1, §6.3).  As with CIFAR-10, the schedulers only see per-evaluation
``(duration, reward)`` streams, so we reproduce the published stream
statistics rather than run Gym:

* rewards range over roughly [-500, 300] and are min-max normalised
  with ``r_min=-500, r_max=300`` before prediction (eq. 4);
* over 50% of configurations are non-learning, many exhibiting the
  "learning-crash": reward rises for a while, then falls to at or below
  −100 and stays there (Fig. 8);
* solved means a mean reward of 200 over 100 consecutive trials — one
  "epoch" here is exactly that 100-trial window, so the solved
  condition is simply "epoch reward ≥ 200";
* the paper's evaluation boundary of 2,000 iterations corresponds to
  20 of these 100-trial epochs.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from ..generators.space import (
    Choice,
    IntUniform,
    LogUniform,
    SearchSpace,
    Uniform,
)
from .base import DomainSpec
from .calibration import CalibratedWorkload, SyntheticRun, stable_config_seed

__all__ = ["lunarlander_space", "LunarLanderWorkload", "SyntheticRLRun"]

REWARD_MIN = -500.0
REWARD_MAX = 300.0
CRASH_REWARD = -100.0
RANDOM_REWARD = -200.0
SOLVED_REWARD = 200.0
MAX_EPOCHS = 200  # 200 epochs x 100 trials = the 20k trials of Fig. 8
TRIALS_PER_EPOCH = 100
BASE_EPOCH_SECONDS = 35.0

#: Population bands over the calibrated quality quantile ``u``.
_NON_LEARNER_BAND = 0.40  # u below this: never learns
_CRASH_BAND = 0.58  # u below this (and above previous): learning-crash
_SOLVER_BAND = 0.96  # u at/above this: can reach the solved condition


def lunarlander_space() -> SearchSpace:
    """The 11-hyperparameter LunarLander search space (§6.1)."""
    return SearchSpace(
        [
            LogUniform("learning_rate", 1e-5, 1e-2),
            Uniform("gamma", 0.90, 0.9999),
            LogUniform("epsilon_decay", 1e-5, 1e-2),
            Uniform("epsilon_min", 0.0, 0.2),
            Choice("batch_size", (32, 64, 128)),
            IntUniform("hidden1", 32, 256),
            IntUniform("hidden2", 32, 256),
            IntUniform("target_update", 100, 10000),
            Choice("replay_size", (10000, 50000, 100000)),
            LogUniform("l2_reg", 1e-8, 1e-3),
            Choice("activation", ("relu", "tanh")),
        ]
    )


def _score(config: Dict[str, Any]) -> float:
    """Raw quality score for an RL configuration (higher = better)."""
    lr = math.log10(float(config["learning_rate"]))
    score = -((lr + 3.2) / 0.9) ** 2
    if lr > -2.3:
        score -= 6.0 * (lr + 2.3)  # unstable Q-learning at high lr

    gamma = float(config["gamma"])
    score -= ((gamma - 0.99) / 0.03) ** 2 * 0.5

    eps_decay = math.log10(float(config["epsilon_decay"]))
    score -= 0.4 * ((eps_decay + 3.5) / 1.2) ** 2

    eps_min = float(config["epsilon_min"])
    score -= 0.5 * ((eps_min - 0.02) / 0.1) ** 2

    capacity = math.log(float(config["hidden1"]) * float(config["hidden2"]))
    score += 0.4 * math.tanh((capacity - 9.0) / 2.0)

    target_update = float(config["target_update"])
    score -= 0.3 * ((math.log10(target_update) - 3.0) / 1.0) ** 2

    replay = int(config["replay_size"])
    score += {10000: -0.15, 50000: 0.1, 100000: 0.05}[replay]

    reg = math.log10(float(config["l2_reg"]))
    score -= 0.2 * ((reg + 6.0) / 2.5) ** 2

    score += {"relu": 0.15, "tanh": -0.05}[config["activation"]]

    batch = int(config["batch_size"])
    score -= 0.1 * (math.log2(batch / 64.0)) ** 2

    noise_rng = np.random.default_rng(stable_config_seed(config, salt=23))
    score += 0.5 * noise_rng.standard_normal()
    return score


def _true_curve(
    config: Dict[str, Any], quantile: float, max_epochs: int
) -> np.ndarray:
    """Noiseless mean-reward trajectory per 100-trial epoch."""
    shape_rng = np.random.default_rng(stable_config_seed(config, salt=91))
    u = quantile
    epochs = np.arange(1, max_epochs + 1, dtype=float)

    if u < _NON_LEARNER_BAND:
        # Never learns: wanders between random-policy reward and the
        # crash floor, ending at or below the -100 non-learning value.
        base = RANDOM_REWARD + 120.0 * (u / _NON_LEARNER_BAND - 0.5)
        wander = np.cumsum(4.0 * shape_rng.standard_normal(epochs.size))
        curve = base + wander - wander[-1] * (epochs / epochs[-1])
        return np.clip(curve, REWARD_MIN, CRASH_REWARD + 30.0)

    lr = math.log10(float(config["learning_rate"]))
    lr_slowness = float(np.clip((-3.2 - lr) / 1.8, 0.0, 1.0))
    # As with CIFAR-10, learning speed is mostly idiosyncratic so
    # that quality and speed decouple (overtakers exist).
    slowness = float(
        np.clip(0.4 * lr_slowness + 0.6 * shape_rng.random(), 0.0, 1.0)
    )
    half = max_epochs * (0.10 + 0.35 * slowness)
    steep = 1.5 + 1.5 * shape_rng.random()
    growth = epochs**steep / (epochs**steep + half**steep)
    growth = growth / growth[-1]

    if u < _CRASH_BAND:
        # Learning-crash: climbs toward a modest peak, then collapses
        # to the crash floor and stays (Fig. 8's signature shape).
        frac = (u - _NON_LEARNER_BAND) / (_CRASH_BAND - _NON_LEARNER_BAND)
        peak = -60.0 + 180.0 * frac
        crash_epoch = int(max_epochs * (0.15 + 0.45 * shape_rng.random()))
        curve = RANDOM_REWARD + (peak - RANDOM_REWARD) * growth
        after = np.arange(crash_epoch, max_epochs)
        drop = CRASH_REWARD - 40.0 * shape_rng.random()
        # Collapse over ~5 epochs, then flat at the crash floor.
        for offset, idx in enumerate(after):
            blend = min(1.0, offset / 5.0)
            curve[idx] = (1.0 - blend) * curve[idx] + blend * drop
        return np.clip(curve, REWARD_MIN, REWARD_MAX)

    if u < _SOLVER_BAND:
        # Partial learner: plateaus clearly below the solved
        # threshold (the gap keeps 100-trial-mean noise from
        # spuriously "solving" the task).
        frac = (u - _CRASH_BAND) / (_SOLVER_BAND - _CRASH_BAND)
        plateau = -50.0 + (SOLVED_REWARD - 30.0 - (-50.0)) * frac
    else:
        # Solver: plateau above 200, up to ~280.
        frac = (u - _SOLVER_BAND) / (1.0 - _SOLVER_BAND)
        plateau = 205.0 + 75.0 * frac

    curve = RANDOM_REWARD + (plateau - RANDOM_REWARD) * growth
    return np.clip(curve, REWARD_MIN, REWARD_MAX)


def _mean_epoch_seconds(config: Dict[str, Any]) -> float:
    """Mean seconds per 100-trial epoch (CPU training, §6.1)."""
    capacity = math.log(float(config["hidden1"]) * float(config["hidden2"]))
    capacity_factor = (capacity - 9.0) / 6.0
    batch_factor = (float(config["batch_size"]) / 64.0) ** 0.2
    return BASE_EPOCH_SECONDS * (1.0 + 0.4 * capacity_factor) * batch_factor


_DOMAIN = DomainSpec(
    kind="reinforcement",
    metric_name="reward",
    target=SOLVED_REWARD,
    kill_threshold=CRASH_REWARD,
    random_performance=RANDOM_REWARD,
    max_epochs=MAX_EPOCHS,
    eval_boundary=20,  # 2,000 trials at 100 trials per epoch
    r_min=REWARD_MIN,
    r_max=REWARD_MAX,
)


class SyntheticRLRun(SyntheticRun):
    """A synthetic LunarLander training run.

    One :meth:`step` simulates 100 episode trials and reports their
    mean reward, so the solved condition ("average reward of 200 over
    100 consecutive trials") reads directly off the epoch metric.
    """

    salt = 5000
    # Standard error of a 100-trial mean with per-trial spread ~80.
    metric_noise = 8.0
    duration_noise = 0.05
    bounds = (REWARD_MIN, REWARD_MAX)

    @property
    def true_final_reward(self) -> float:
        """Noiseless end-of-training mean reward (analysis helper)."""
        return float(self._true_curve[-1])

    @property
    def is_solver(self) -> bool:
        """Whether the noiseless curve ever reaches the solved reward."""
        return bool(np.any(self._true_curve >= SOLVED_REWARD))


class LunarLanderWorkload(CalibratedWorkload):
    """Calibrated synthetic LunarLander exploration problem."""

    run_class = SyntheticRLRun
    true_curve = staticmethod(_true_curve)
    mean_epoch_seconds = staticmethod(_mean_epoch_seconds)

    def __init__(self, calibration_seed: int = 20170712) -> None:
        super().__init__(lunarlander_space(), _score, calibration_seed, _DOMAIN)
