"""Synthetic LSTM structured-sparsity workload (§9 Ongoing Work).

The paper's ongoing-work section describes exploring a group-Lasso
hyperparameter λ for LSTM language models (after Wen et al., NIPS'16;
models from Zaremba et al. / Seo et al.), monitoring *two* metrics —
perplexity (the primary) and a sparsity metric — and terminating the
whole experiment through a user-defined global criterion once a model
is found that is both accurate and sparse.

This workload reproduces that setting synthetically:

* The primary metric is a perplexity-derived quality in [0, 1]
  (``1 − ppl / ppl_random``), so every scheduler works unmodified.
* Each epoch also reports ``extras = {"perplexity", "sparsity"}``.
* λ (``lasso_lambda``) drives a genuine trade-off: more sparsity, but
  past a sweet spot the perplexity degrades — the search problem the
  paper describes.
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
from .base import DomainSpec, EpochResult
from .calibration import CalibratedWorkload, SeededRun, stable_config_seed

__all__ = ["lstm_space", "LSTMSparsityWorkload", "SyntheticLSTMRun"]

RANDOM_PERPLEXITY = 800.0
BEST_PERPLEXITY = 65.0
MAX_EPOCHS = 60


def lstm_space() -> SearchSpace:
    """Hyperparameters of an LSTM language model with group Lasso."""
    return SearchSpace(
        [
            LogUniform("learning_rate", 1e-2, 10.0),
            LogUniform("lasso_lambda", 1e-6, 1e-2),
            IntUniform("hidden_size", 200, 1500),
            IntUniform("embed_size", 100, 800),
            Choice("num_layers", (1, 2, 3)),
            Uniform("dropout", 0.0, 0.7),
            Choice("batch_size", (16, 32, 64)),
            Choice("bptt", (20, 35, 50)),
            Uniform("lr_decay", 0.5, 0.95),
            Uniform("grad_clip", 0.25, 10.0),
        ]
    )


def _score(config: Dict[str, Any]) -> float:
    """Raw quality score (higher = lower final perplexity)."""
    lr = math.log10(float(config["learning_rate"]))
    score = -((lr - 0.0) / 0.8) ** 2  # SGD for LSTM LMs likes lr ~ 1
    lam = math.log10(float(config["lasso_lambda"]))
    # Sparsity regularisation: gentle up to ~1e-4, harmful beyond.
    score -= 1.2 * max(0.0, lam + 3.5) ** 2
    capacity = math.log(
        float(config["hidden_size"]) * float(config["embed_size"])
    ) + 0.5 * float(config["num_layers"])
    score += 0.5 * math.tanh((capacity - 13.0) / 2.0)
    dropout = float(config["dropout"])
    score -= 0.5 * ((dropout - 0.35) / 0.35) ** 2
    score -= 0.2 * ((float(config["lr_decay"]) - 0.85) / 0.2) ** 2
    clip = float(config["grad_clip"])
    score -= 0.2 * ((math.log10(clip) - 0.3) / 0.8) ** 2
    noise_rng = np.random.default_rng(stable_config_seed(config, salt=37))
    score += 0.4 * noise_rng.standard_normal()
    return score


_DOMAIN = DomainSpec(
    kind="supervised",
    metric_name="quality",  # 1 - perplexity / random_perplexity
    target=0.88,  # perplexity <= ~96
    kill_threshold=0.10,
    random_performance=0.0,
    max_epochs=MAX_EPOCHS,
    eval_boundary=5,
)


class SyntheticLSTMRun(SeededRun):
    """Perplexity + sparsity curves for one configuration."""

    salt = 900

    def __init__(
        self,
        config: Dict[str, Any],
        quantile: float,
        seed: int,
        max_epochs: int = MAX_EPOCHS,
    ) -> None:
        super().__init__(config, quantile, seed, max_epochs)
        shape_rng = np.random.default_rng(stable_config_seed(config, salt=41))
        # Final perplexity from the calibrated quantile: best configs
        # approach BEST_PERPLEXITY, the worst stay near random.
        u = quantile
        self._final_ppl = float(
            BEST_PERPLEXITY
            + (RANDOM_PERPLEXITY * 0.9 - BEST_PERPLEXITY) * (1.0 - u) ** 1.5
        )
        self._half = max_epochs * (0.08 + 0.3 * shape_rng.random())
        self._steep = 1.5 + shape_rng.random()
        # Sparsity plateau grows with λ; reached faster than perplexity.
        lam = math.log10(float(config["lasso_lambda"]))
        self._sparsity_plateau = float(np.clip(0.9 / (1 + math.exp(-(lam + 4.0))), 0.02, 0.9))
        self._epoch_seconds = 45.0 * (
            1.0
            + 0.3 * (math.log(float(config["hidden_size"])) - 6.5)
        )

    def _perplexity_at(self, epoch: int) -> float:
        growth = epoch**self._steep / (
            epoch**self._steep + self._half**self._steep
        )
        end_growth = self._max_epochs**self._steep / (
            self._max_epochs**self._steep + self._half**self._steep
        )
        # Log-space interpolation from random perplexity to the final.
        log_ppl = math.log(RANDOM_PERPLEXITY) + (
            math.log(self._final_ppl) - math.log(RANDOM_PERPLEXITY)
        ) * (growth / end_growth)
        return math.exp(log_ppl)

    def _sparsity_at(self, epoch: int) -> float:
        ramp = min(1.0, epoch / (0.4 * self._max_epochs))
        return self._sparsity_plateau * ramp

    @property
    def true_final_quality(self) -> float:
        """Noiseless final primary metric (analysis helper)."""
        return 1.0 - self._final_ppl / RANDOM_PERPLEXITY

    def step(self) -> EpochResult:
        if self.finished:
            raise RuntimeError("training run already finished")
        self._epoch += 1
        ppl = self._perplexity_at(self._epoch) * float(
            1.0 + 0.01 * self._rng.standard_normal()
        )
        ppl = max(ppl, BEST_PERPLEXITY * 0.9)
        sparsity = float(
            np.clip(
                self._sparsity_at(self._epoch)
                + 0.01 * self._rng.standard_normal(),
                0.0,
                1.0,
            )
        )
        quality = float(np.clip(1.0 - ppl / RANDOM_PERPLEXITY, 0.0, 1.0))
        duration = self._epoch_seconds * float(
            1.0 + 0.03 * self._rng.standard_normal()
        )
        return EpochResult(
            epoch=self._epoch,
            duration=max(duration, 1.0),
            metric=quality,
            done=self.finished,
            extras={"perplexity": ppl, "sparsity": sparsity},
        )


class LSTMSparsityWorkload(CalibratedWorkload):
    """Perplexity/sparsity trade-off exploration (§9 Ongoing Work)."""

    def __init__(self, calibration_seed: int = 20170713) -> None:
        super().__init__(lstm_space(), _score, calibration_seed, _DOMAIN)

    def create_run(self, config: Dict[str, Any], seed: int = 0) -> SyntheticLSTMRun:
        self._space.validate(config)
        return SyntheticLSTMRun(
            config=config, quantile=self._calibrator.quantile(config), seed=seed
        )
