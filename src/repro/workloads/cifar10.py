"""Synthetic CIFAR-10 hyperparameter-exploration workload.

The paper trains a cuda-convnet ``layers-18pct`` CNN on CIFAR-10 with
Caffe on K40m GPUs, exploring 14 hyperparameters (§6.1, hyperparameter
ranges following Table 3 of Domhan et al.).  We cannot (and need not)
run GPU training: the scheduling policies only ever observe per-epoch
``(duration, validation accuracy)`` pairs.  This module produces those
observations from a generative model calibrated to the paper's
published population statistics:

* ≈32% of random configurations never beat random accuracy (10%)
  — Fig. 2a's red-circle mass;
* only a few percent exceed 75% accuracy, topping out near 80%
  — Fig. 1 ("only three of 50 exceed 75%");
* learners follow saturating curves with configuration-dependent speed,
  producing the Fig. 2b "overtake" phenomenon between fast-but-mediocre
  and slow-but-good configurations;
* epochs take roughly one minute, roughly constant per configuration
  (Fig. 1 and the §9 epoch-duration assumption);
* run-to-run metric noise is ~1–2% (the §6.1 non-determinism note).

Which configurations are the good ones is decided by a smooth score
with domain structure (learning-rate sweet spot scaled by momentum,
divergence cliff at high effective learning rates, capacity and
activation effects), so adaptive generators see a learnable landscape.
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

__all__ = ["cifar10_space", "Cifar10Workload", "SyntheticSupervisedRun"]

#: Published CIFAR-10 facts the generator is calibrated to.
RANDOM_ACCURACY = 0.10
NON_LEARNER_FRACTION = 0.32
HIGH_ACC_FRACTION = 0.06  # fraction exceeding 0.75
MAX_ACCURACY = 0.805
MAX_EPOCHS = 120
BASE_EPOCH_SECONDS = 60.0


def cifar10_space() -> SearchSpace:
    """The 14-hyperparameter CIFAR-10 search space (§6.1)."""
    return SearchSpace(
        [
            LogUniform("learning_rate", 1e-5, 1.0),
            LogUniform("lr_decay", 1e-4, 1e-1),
            IntUniform("lr_step_epochs", 20, 100),
            Uniform("momentum", 0.0, 0.99),
            LogUniform("weight_decay", 1e-6, 1e-2),
            Choice("batch_size", (32, 64, 128, 256)),
            IntUniform("conv1_filters", 16, 96),
            IntUniform("conv2_filters", 16, 96),
            IntUniform("conv3_filters", 16, 96),
            IntUniform("fc_units", 32, 256),
            Uniform("dropout", 0.0, 0.7),
            LogUniform("init_std", 1e-4, 1e-1),
            Choice("pool_type", ("max", "avg")),
            Choice("activation", ("relu", "tanh", "sigmoid")),
        ]
    )


def _score(config: Dict[str, Any]) -> float:
    """Raw quality score: higher = better final accuracy.

    Smooth in the continuous hyperparameters with one sharp cliff
    (divergence at high effective learning rate), mirroring how real
    SGD training responds to these knobs.
    """
    lr = float(config["learning_rate"])
    momentum = float(config["momentum"])
    # Momentum amplifies the effective step size by 1/(1-m).
    eff_lr = math.log10(lr / max(1.0 - momentum, 1e-3))
    score = -((eff_lr + 1.8) / 1.1) ** 2
    if eff_lr > -0.5:
        # Divergence cliff: training blows up, nothing else matters.
        score -= 25.0 * (eff_lr + 0.5)
    if eff_lr < -4.0:
        # Vanishing step size: effectively never learns.
        score -= 4.0 * (-4.0 - eff_lr)

    wd = math.log10(float(config["weight_decay"]))
    score -= 0.3 * ((wd + 3.3) / 2.2) ** 2

    dropout = float(config["dropout"])
    score -= 0.35 * ((dropout - 0.2) / 0.45) ** 2

    init = math.log10(float(config["init_std"]))
    score -= 0.4 * ((init + 2.0) / 1.4) ** 2

    capacity = math.log(
        float(config["conv1_filters"])
        * float(config["conv2_filters"])
        * float(config["conv3_filters"])
        * float(config["fc_units"])
    )
    score += 0.5 * math.tanh((capacity - 15.0) / 3.0)

    activation = config["activation"]
    score += {"relu": 0.35, "tanh": 0.05, "sigmoid": -0.55}[activation]
    if activation == "sigmoid" and init < -3.0:
        score -= 0.8  # tiny init + sigmoid saturates into no learning

    score += {"max": 0.05, "avg": -0.05}[config["pool_type"]]

    batch = int(config["batch_size"])
    score -= 0.15 * (math.log2(batch / 128.0) / 2.0) ** 2

    decay = math.log10(float(config["lr_decay"]))
    score -= 0.1 * ((decay + 2.5) / 1.5) ** 2

    # Configuration-specific residual: everything the 14 knobs don't
    # explain (interactions, initial weights drawn per config).
    noise_rng = np.random.default_rng(stable_config_seed(config, salt=11))
    score += 0.45 * noise_rng.standard_normal()
    return score


def _final_accuracy_from_quantile(u: float) -> float:
    """Quantile function of the Fig. 2a final-accuracy distribution.

    Piecewise by population band: the bottom 32% are non-learners
    hovering at/below random accuracy; the middle body climbs from just
    above random to 75%; the top few percent reach up to ~80%.
    """
    if not 0.0 < u < 1.0:
        raise ValueError("quantile must be in the open interval (0, 1)")
    learner_start = NON_LEARNER_FRACTION
    elite_start = 1.0 - HIGH_ACC_FRACTION
    if u < learner_start:
        frac = u / learner_start
        return 0.075 + frac * (0.115 - 0.075)
    if u < elite_start:
        frac = (u - learner_start) / (elite_start - learner_start)
        return 0.13 + (0.75 - 0.13) * frac**1.25
    frac = (u - elite_start) / (1.0 - elite_start)
    return 0.75 + (MAX_ACCURACY - 0.75) * frac


def _true_curve(
    config: Dict[str, Any], quantile: float, max_epochs: int
) -> np.ndarray:
    """Noiseless accuracy after each epoch ``1..max_epochs``."""
    shape_rng = np.random.default_rng(stable_config_seed(config, salt=77))
    final_acc = _final_accuracy_from_quantile(quantile)
    epochs = np.arange(1, max_epochs + 1, dtype=float)

    if final_acc <= 0.12:
        # Non-learner: a slow random walk hugging random accuracy.
        wander = np.cumsum(0.002 * shape_rng.standard_normal(epochs.size))
        curve = final_acc + wander - wander[-1]
        return np.clip(curve, 0.05, 0.14)

    # Learner: Hill-type saturating growth.  Learning speed is only
    # partially tied to quality: lower learning rates slow the rise,
    # but most of the speed variation is configuration-idiosyncratic.
    # That independence is what produces the paper's "overtake"
    # phenomenon (slow configurations with high final accuracy) and
    # its converse, fast risers that plateau short of the target.
    lr = float(config["learning_rate"])
    momentum = float(config["momentum"])
    eff_lr = math.log10(lr / max(1.0 - momentum, 1e-3))
    lr_slowness = float(np.clip((-1.8 - eff_lr) / 2.5, 0.0, 1.0))
    slowness = float(
        np.clip(0.35 * lr_slowness + 0.65 * shape_rng.random(), 0.0, 1.0)
    )
    half = max_epochs * (0.04 + 0.40 * slowness)
    steep = 1.3 + 1.7 * shape_rng.random()
    growth = epochs**steep / (epochs**steep + half**steep)
    growth_at_end = growth[-1]

    curve = RANDOM_ACCURACY + (final_acc - RANDOM_ACCURACY) * (
        growth / growth_at_end
    )

    # Learning-rate-step bump, as cuda-convnet style schedules show.
    step_epoch = int(config["lr_step_epochs"])
    if step_epoch < max_epochs:
        bump = 0.015 * shape_rng.random()
        curve += bump / (1.0 + np.exp(-(epochs - step_epoch) / 2.0))
        curve = np.minimum(curve, final_acc)
    return np.clip(curve, 0.0, MAX_ACCURACY)


def _mean_epoch_seconds(config: Dict[str, Any]) -> float:
    """Per-configuration mean epoch duration (~1 minute).

    Larger models and smaller batches cost more; held constant per
    configuration apart from small per-epoch jitter (§9).
    """
    capacity = (
        float(config["conv1_filters"])
        * float(config["conv2_filters"])
        * float(config["conv3_filters"])
        * float(config["fc_units"])
    )
    capacity_factor = (math.log(capacity) - 15.0) / 8.0
    batch_factor = (128.0 / float(config["batch_size"])) ** 0.15
    return BASE_EPOCH_SECONDS * (1.0 + 0.3 * capacity_factor) * batch_factor


_DOMAIN = DomainSpec(
    kind="supervised",
    metric_name="validation_accuracy",
    target=0.77,
    kill_threshold=0.15,
    random_performance=RANDOM_ACCURACY,
    max_epochs=MAX_EPOCHS,
    eval_boundary=10,
)


class SyntheticSupervisedRun(SyntheticRun):
    """A synthetic CIFAR-10 training run.

    The noiseless "true" learning curve is a deterministic function of
    the configuration (via its calibrated quantile); the run seed only
    controls per-epoch observation noise, reproducing the paper's ≤2%
    run-to-run non-determinism.
    """

    salt = 1000
    metric_noise = 0.008
    duration_noise = 0.03
    bounds = (0.0, 1.0)

    @property
    def true_final_accuracy(self) -> float:
        """Noiseless end-of-training accuracy (analysis helper)."""
        return float(self._true_curve[-1])


class Cifar10Workload(CalibratedWorkload):
    """Calibrated synthetic CIFAR-10 exploration problem."""

    run_class = SyntheticSupervisedRun
    true_curve = staticmethod(_true_curve)
    mean_epoch_seconds = staticmethod(_mean_epoch_seconds)

    def __init__(self, calibration_seed: int = 20170711) -> None:
        super().__init__(cifar10_space(), _score, calibration_seed, _DOMAIN)
