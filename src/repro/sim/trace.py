"""Trace generation and replay (§7.1's Trace Generator).

A :class:`Trace` captures, for every configuration in an experiment's
set, the full per-epoch ``(duration, metric)`` stream.  Replaying one
through :class:`TraceWorkload` makes experiments *exactly* repeatable
across policies — every policy sees byte-identical learning curves —
which is what the configuration-order sensitivity study (§7.2.2, Fig
12c) requires: the Trace Generator "can create traces by changing the
configuration orders".

Each configuration's stream is a pure function of (configuration
content, seed): the synthetic workloads seed every run from its own
content key, so reordering or subsetting the configuration list leaves
every recorded stream unchanged.

Traces serialise to JSON so live-system recordings can be archived and
re-simulated later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..workloads.base import DomainSpec, EpochResult, TrainingRun, Workload
from ..workloads.calibration import config_key
from ..generators.space import SearchSpace

__all__ = ["Trace", "TraceWorkload", "record_trace"]


@dataclass(frozen=True, eq=False)
class Trace:
    """A replayable workload recording.

    Attributes:
        configs: configuration dicts in experiment order.
        durations: ``(n, max_epochs)`` float64 array; row ``i`` holds
            configuration ``i``'s per-epoch durations in seconds.
        metrics: ``(n, max_epochs)`` float64 array of raw-scale
            per-epoch metrics, row-aligned with ``durations``.
        domain: the domain spec the trace was recorded under.

    Raises:
        ValueError: on construction, if the arrays are not
            ``(len(configs), domain.max_epochs)``, a metric is not
            finite, or a duration is not finite and positive.
    """

    configs: Tuple[Dict[str, Any], ...]
    durations: np.ndarray
    metrics: np.ndarray
    domain: DomainSpec

    def __post_init__(self) -> None:
        expected = (len(self.configs), self.domain.max_epochs)
        for name in ("durations", "metrics"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.shape != expected:
                raise ValueError(f"trace {name}: {values.shape} != {expected} epochs")
            object.__setattr__(self, name, values)
        _reject(~np.isfinite(self.metrics), "metric is not finite")
        _reject(
            ~(np.isfinite(self.durations) & (self.durations > 0.0)),
            "duration is not finite and positive",
        )

    def __len__(self) -> int:
        return len(self.configs)

    def reorder(self, permutation: Sequence[int]) -> "Trace":
        """A new trace with configurations (and streams) permuted."""
        perm = list(permutation)
        if sorted(perm) != list(range(len(self))):
            raise ValueError("permutation must be a rearrangement of all indices")
        return Trace(
            configs=tuple(self.configs[i] for i in perm),
            durations=self.durations[perm],
            metrics=self.metrics[perm],
            domain=self.domain,
        )

    def shuffled(self, seed: int) -> "Trace":
        """A new trace with a seeded random configuration order."""
        rng = np.random.default_rng(seed)
        return self.reorder(rng.permutation(len(self)).tolist())

    def final_metrics(self) -> List[float]:
        """Final-epoch metric of every configuration (Fig 2a data)."""
        return self.metrics[:, -1].tolist()

    # -------------------------------------------------------- persistence

    def save(self, path: Union[str, Path]) -> None:
        """Serialise the trace as JSON."""
        payload = {
            "domain": {
                "kind": self.domain.kind,
                "metric_name": self.domain.metric_name,
                "target": self.domain.target,
                "kill_threshold": self.domain.kill_threshold,
                "random_performance": self.domain.random_performance,
                "max_epochs": self.domain.max_epochs,
                "eval_boundary": self.domain.eval_boundary,
                "r_min": self.domain.r_min,
                "r_max": self.domain.r_max,
            },
            "configs": list(self.configs),
            "streams": [
                [[d, m] for d, m in zip(durations, metrics)]
                for durations, metrics in zip(
                    self.durations.tolist(), self.metrics.tolist()
                )
            ],
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a trace saved by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        domain = DomainSpec(**payload["domain"])
        streams = payload["streams"]
        durations = np.empty((len(streams), domain.max_epochs))
        metrics = np.empty_like(durations)
        for row, stream in enumerate(streams):
            if len(stream) != domain.max_epochs:
                raise ValueError(
                    f"stream {row} has {len(stream)} epochs, expected "
                    f"{domain.max_epochs}"
                )
            durations[row], metrics[row] = np.asarray(stream, dtype=np.float64).T
        return cls(
            configs=tuple(payload["configs"]),
            durations=durations,
            metrics=metrics,
            domain=domain,
        )


def _reject(bad: np.ndarray, problem: str) -> None:
    if bad.any():
        row, epoch = np.argwhere(bad)[0]
        raise ValueError(
            f"malformed trace: configuration {row}, epoch {epoch + 1}: "
            f"{problem}"
        )


def record_trace(
    workload: Workload,
    configs: Sequence[Dict[str, Any]],
    seed: int = 0,
) -> Trace:
    """Record a full trace by training every configuration to its
    epoch budget offline (the §7.1 trace-collection step, with the
    simulator's workload standing in for the live cluster).

    Runs that offer the batched ``observed_stream`` hook (the synthetic
    workloads) yield their whole stream in one vectorized draw,
    bit-identical to stepping; the rest (real SGD training) are stepped
    epoch by epoch.
    """
    durations = np.empty((len(configs), workload.domain.max_epochs))
    metrics = np.empty_like(durations)
    for row, config in enumerate(configs):
        run = workload.create_run(config, seed=seed)
        if hasattr(run, "observed_stream"):
            durations[row], metrics[row] = run.observed_stream()
            continue
        results = []
        while not run.finished:
            results.append(run.step())
        durations[row] = [result.duration for result in results]
        metrics[row] = [result.metric for result in results]
    return Trace(
        configs=tuple(dict(c) for c in configs),
        durations=durations,
        metrics=metrics,
        domain=workload.domain,
    )


class _TraceRun(TrainingRun):
    """Replays one configuration's recorded stream."""

    def __init__(
        self,
        config: Dict[str, Any],
        durations: np.ndarray,
        metrics: np.ndarray,
    ) -> None:
        self._config = dict(config)
        self._durations = durations
        self._metrics = metrics
        self._epoch = 0

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self._config)

    @property
    def epochs_completed(self) -> int:
        return self._epoch

    @property
    def finished(self) -> bool:
        return self._epoch >= len(self._durations)

    def step(self) -> EpochResult:
        if self.finished:
            raise RuntimeError("trace replay already finished")
        index = self._epoch
        self._epoch += 1
        return EpochResult(
            epoch=self._epoch,
            duration=float(self._durations[index]),
            metric=float(self._metrics[index]),
            done=self.finished,
        )

    def snapshot_state(self) -> Dict[str, Any]:
        return {"epoch": self._epoch}

    def restore_state(self, state: Dict[str, Any]) -> None:
        epoch = int(state["epoch"])
        if not 0 <= epoch <= len(self._durations):
            raise ValueError(f"snapshot epoch {epoch} out of range")
        self._epoch = epoch


class TraceWorkload(Workload):
    """A :class:`Workload` that replays a recorded :class:`Trace`.

    Configurations are looked up by content key (the first match wins),
    so ``run_simulation(..., configs=trace.configs)`` replays the exact
    experiment.  ``create_run`` ignores ``seed``: the trace already
    carries the noise it was recorded with.
    """

    def __init__(self, trace: Trace, space: Optional[SearchSpace] = None) -> None:
        self._trace = trace
        self._space = space
        self._rows: Dict[str, int] = {}
        for row, config in enumerate(trace.configs):
            self._rows.setdefault(config_key(config), row)

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def space(self) -> SearchSpace:
        if self._space is None:
            raise RuntimeError(
                "trace workloads replay fixed configs; no search space "
                "was attached"
            )
        return self._space

    @property
    def domain(self) -> DomainSpec:
        return self._trace.domain

    def create_run(self, config: Dict[str, Any], seed: int = 0) -> _TraceRun:
        row = self._rows.get(config_key(config))
        if row is None:
            raise KeyError("configuration not present in the trace")
        return _TraceRun(
            config, self._trace.durations[row], self._trace.metrics[row]
        )
