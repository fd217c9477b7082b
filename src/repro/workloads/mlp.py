"""Real-training MLP workload: actual SGD in numpy.

Every other workload in this package synthesises learning curves; this
one earns its curves the honest way, training a two-hidden-layer MLP
with mini-batch SGD.  It exercises the identical ``Workload`` /
``TrainingRun`` contract, which is how the repository demonstrates that
HyperDrive is framework-agnostic (§4.1): the scheduler cannot tell a
Caffe CNN from this numpy network.

Suspend/resume snapshots capture the full optimiser state (weights,
velocities, RNG), so a run suspended on one "machine" and resumed on
another continues bit-for-bit — the property §5.1 gets from CRIU.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

import numpy as np

from ..generators.space import (
    Choice,
    IntUniform,
    LogUniform,
    SearchSpace,
    Uniform,
)
from .base import DomainSpec, EpochResult, TrainingRun, Workload
from .calibration import stable_config_seed
from .datasets import Dataset, make_blobs

__all__ = ["mlp_space", "MLPWorkload", "MLPTrainingRun"]

MAX_EPOCHS = 60


def mlp_space() -> SearchSpace:
    """Hyperparameter space for the numpy MLP."""
    return SearchSpace(
        [
            LogUniform("learning_rate", 1e-4, 1.0),
            Uniform("momentum", 0.0, 0.99),
            LogUniform("l2_reg", 1e-7, 1e-1),
            Choice("batch_size", (16, 32, 64, 128)),
            IntUniform("hidden1", 8, 128),
            IntUniform("hidden2", 8, 128),
            LogUniform("init_scale", 1e-3, 1.0),
            Choice("activation", ("relu", "tanh")),
        ]
    )


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    return 1.0 - np.tanh(z) ** 2


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class MLPTrainingRun(TrainingRun):
    """Mini-batch SGD training of a 2-hidden-layer softmax MLP."""

    def __init__(
        self,
        config: Dict[str, Any],
        dataset: Dataset,
        seed: int,
        max_epochs: int = MAX_EPOCHS,
        measure_wall_time: bool = False,
    ) -> None:
        self._config = dict(config)
        self._dataset = dataset
        self._max_epochs = max_epochs
        self._measure_wall_time = measure_wall_time
        self._epoch = 0
        self._rng = np.random.default_rng(
            stable_config_seed(config, salt=300 + seed)
        )
        self._init_network()

    def _init_network(self) -> None:
        cfg = self._config
        d = self._dataset.num_features
        h1, h2 = int(cfg["hidden1"]), int(cfg["hidden2"])
        k = self._dataset.num_classes
        scale = float(cfg["init_scale"])
        rng = self._rng
        self._params = {
            "w1": scale * rng.standard_normal((d, h1)),
            "b1": np.zeros(h1),
            "w2": scale * rng.standard_normal((h1, h2)),
            "b2": np.zeros(h2),
            "w3": scale * rng.standard_normal((h2, k)),
            "b3": np.zeros(k),
        }
        self._velocity = {name: np.zeros_like(v) for name, v in self._params.items()}

    # ----------------------------------------------------------- training

    def _forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        p = self._params
        act = self._config["activation"]
        z1 = x @ p["w1"] + p["b1"]
        a1 = _activate(z1, act)
        z2 = a1 @ p["w2"] + p["b2"]
        a2 = _activate(z2, act)
        logits = a2 @ p["w3"] + p["b3"]
        return {"z1": z1, "a1": a1, "z2": z2, "a2": a2, "logits": logits}

    def _train_one_epoch(self) -> None:
        cfg = self._config
        x, y = self._dataset.x_train, self._dataset.y_train
        lr = float(cfg["learning_rate"])
        momentum = float(cfg["momentum"])
        l2 = float(cfg["l2_reg"])
        batch = int(cfg["batch_size"])
        act = cfg["activation"]
        p, vel = self._params, self._velocity

        order = self._rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch):
            idx = order[start : start + batch]
            xb, yb = x[idx], y[idx]
            cache = self._forward(xb)
            probs = _softmax(cache["logits"])
            n = xb.shape[0]
            d_logits = probs
            d_logits[np.arange(n), yb] -= 1.0
            d_logits /= n

            grads = {
                "w3": cache["a2"].T @ d_logits + l2 * p["w3"],
                "b3": d_logits.sum(axis=0),
            }
            d_a2 = d_logits @ p["w3"].T
            d_z2 = d_a2 * _activate_grad(cache["z2"], act)
            grads["w2"] = cache["a1"].T @ d_z2 + l2 * p["w2"]
            grads["b2"] = d_z2.sum(axis=0)
            d_a1 = d_z2 @ p["w2"].T
            d_z1 = d_a1 * _activate_grad(cache["z1"], act)
            grads["w1"] = xb.T @ d_z1 + l2 * p["w1"]
            grads["b1"] = d_z1.sum(axis=0)

            for name in p:
                vel[name] = momentum * vel[name] - lr * grads[name]
                update = p[name] + vel[name]
                # Divergent configs produce inf/nan; freeze them so the
                # run keeps reporting (terrible) accuracy instead of
                # crashing — real frameworks keep emitting stats too.
                if np.all(np.isfinite(update)):
                    p[name] = update

    def validation_accuracy(self) -> float:
        """Accuracy on the held-out split."""
        logits = self._forward(self._dataset.x_val)["logits"]
        if not np.all(np.isfinite(logits)):
            return self._dataset.random_accuracy
        predictions = logits.argmax(axis=1)
        return float((predictions == self._dataset.y_val).mean())

    def _cost_model_seconds(self) -> float:
        """Deterministic epoch-duration estimate used in simulation.

        Proportional to multiply-accumulate count per epoch; scaled so
        typical configs land near one simulated minute, keeping the MLP
        workload interchangeable with the synthetic CIFAR-10 one.
        """
        cfg = self._config
        d = self._dataset.num_features
        h1, h2 = int(cfg["hidden1"]), int(cfg["hidden2"])
        k = self._dataset.num_classes
        flops = self._dataset.x_train.shape[0] * (d * h1 + h1 * h2 + h2 * k)
        return 20.0 + flops / 8000.0

    # -------------------------------------------------------- TrainingRun

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self._config)

    @property
    def epochs_completed(self) -> int:
        return self._epoch

    @property
    def finished(self) -> bool:
        return self._epoch >= self._max_epochs

    def step(self) -> EpochResult:
        if self.finished:
            raise RuntimeError("training run already finished")
        started = time.perf_counter()
        self._train_one_epoch()
        self._epoch += 1
        accuracy = self.validation_accuracy()
        if self._measure_wall_time:
            duration = time.perf_counter() - started
        else:
            duration = self._cost_model_seconds()
        return EpochResult(
            epoch=self._epoch,
            duration=duration,
            metric=accuracy,
            done=self.finished,
        )

    def snapshot_state(self) -> Dict[str, Any]:
        return {
            "epoch": self._epoch,
            "params": {k: v.copy() for k, v in self._params.items()},
            "velocity": {k: v.copy() for k, v in self._velocity.items()},
            "rng_state": self._rng.bit_generator.state,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        epoch = int(state["epoch"])
        if not 0 <= epoch <= self._max_epochs:
            raise ValueError(f"snapshot epoch {epoch} out of range")
        self._params = {k: v.copy() for k, v in state["params"].items()}
        self._velocity = {k: v.copy() for k, v in state["velocity"].items()}
        self._rng.bit_generator.state = state["rng_state"]
        self._epoch = epoch


class MLPWorkload(Workload):
    """Real numpy-MLP training as a HyperDrive workload."""

    def __init__(
        self,
        dataset: Optional[Dataset] = None,
        max_epochs: int = MAX_EPOCHS,
        target: float = 0.75,
        measure_wall_time: bool = False,
    ) -> None:
        self._dataset = dataset if dataset is not None else make_blobs()
        self._space = mlp_space()
        self._max_epochs = max_epochs
        self._measure_wall_time = measure_wall_time
        random_acc = self._dataset.random_accuracy
        self._domain = DomainSpec(
            kind="supervised",
            metric_name="validation_accuracy",
            target=target,
            kill_threshold=min(random_acc * 1.5, target / 2.0),
            random_performance=random_acc,
            max_epochs=max_epochs,
            eval_boundary=5,
        )

    @property
    def space(self) -> SearchSpace:
        return self._space

    @property
    def domain(self) -> DomainSpec:
        return self._domain

    @property
    def dataset(self) -> Dataset:
        return self._dataset

    def create_run(self, config: Dict[str, Any], seed: int = 0) -> MLPTrainingRun:
        self._space.validate(config)
        return MLPTrainingRun(
            config=config,
            dataset=self._dataset,
            seed=seed,
            max_epochs=self._max_epochs,
            measure_wall_time=self._measure_wall_time,
        )
