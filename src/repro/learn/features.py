"""Per-configuration feature vectors shared by training and serving.

The environment (:mod:`repro.sim.env`) and the frozen SAP
(:mod:`repro.policies.learned`) both describe a configuration's state
through :func:`feature_matrix` over the same
:class:`ConfigStateArrays`, so there is no train/serve skew: what the
agent saw during simulator rollouts is exactly what the policy
computes from live :class:`~repro.framework.job.Job` state.

The features are deliberately cheap — normalized curve summaries and
closed-form ERT/confidence *proxies* (linear extrapolation of the
last window's gain), not the least-squares curve predictor — so the
learned policy adds microseconds, not prediction latency, per
decision.  All features live in ``[-1, 1]``.

Feature vector (``FEATURE_NAMES`` order):

* ``progress`` — epochs completed / max epochs.
* ``last`` — last observed normalized metric (0 before any epoch).
* ``best`` — best observed normalized metric so far.
* ``gain`` — normalized-metric gain over the last eval window,
  scaled by :data:`GAIN_SCALE` and clipped to [-1, 1].
* ``ert`` — expected-remaining-training proxy: epochs needed to reach
  the target at the current per-window gain, as a fraction of max
  epochs (0 = target met, 1 = unreachable at current speed; 0.5 for
  unstarted configurations — unknown, not hopeless).
* ``confidence`` — logistic confidence that the linearly-extrapolated
  final metric clears the target (0.5 for unstarted configurations).
* ``slot_share`` — fraction of total cluster-time spent on this
  configuration.
* ``time_left`` — remaining experiment horizon fraction.
* ``bias`` — constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..workloads.base import DomainSpec

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_VERSION",
    "ConfigStateArrays",
    "arrays_from_jobs",
    "feature_matrix",
    "feature_schema",
]

FEATURE_NAMES = (
    "progress",
    "last",
    "best",
    "gain",
    "ert",
    "confidence",
    "slot_share",
    "time_left",
    "bias",
)
FEATURE_VERSION = 1

#: Per-window normalized gain multiplied by this before clipping.
GAIN_SCALE = 5.0
#: Logistic temperature for the confidence proxy.
CONFIDENCE_TEMPERATURE = 0.05
_EPS = 1e-9


def feature_schema() -> Dict[str, Any]:
    """The schema frozen into policy artifacts (drift guard)."""
    return {"version": FEATURE_VERSION, "names": list(FEATURE_NAMES)}


@dataclass
class ConfigStateArrays:
    """Vectorized per-configuration scheduler state.

    All metric values are normalized to [0, 1]; ``prev`` is the
    observed value one eval window before ``last`` (0 when the
    configuration has not yet trained a full window).
    """

    epochs: np.ndarray    # (n,) int epochs completed
    last: np.ndarray      # (n,) last observed normalized metric
    prev: np.ndarray      # (n,) normalized metric one window ago
    best: np.ndarray      # (n,) best observed normalized metric
    invested: np.ndarray  # (n,) seconds of training time spent
    elapsed: float        # experiment clock, seconds
    tmax: float           # experiment horizon, seconds
    slots: int            # cluster size
    window: int           # eval boundary b (epochs per decision)
    max_epochs: int
    norm_target: float

    @property
    def n_configs(self) -> int:
        return int(self.epochs.shape[0])


def feature_matrix(state: ConfigStateArrays) -> np.ndarray:
    """The (n_configs, len(FEATURE_NAMES)) feature matrix."""
    epochs = np.asarray(state.epochs, dtype=float)
    n = epochs.shape[0]
    started = epochs > 0

    progress = epochs / float(state.max_epochs)
    gain_raw = np.where(started, state.last - state.prev, 0.0)
    gain = np.clip(gain_raw * GAIN_SCALE, -1.0, 1.0)

    need = np.maximum(state.norm_target - state.last, 0.0)
    per_epoch_gain = np.maximum(gain_raw, _EPS) / float(state.window)
    epochs_needed = need / per_epoch_gain
    remaining = np.maximum(float(state.max_epochs) - epochs, 0.0)
    reachable = (gain_raw > _EPS) & (epochs_needed <= remaining)
    ert = np.where(
        need <= 0.0,
        0.0,
        np.where(
            reachable,
            np.clip(epochs_needed / float(state.max_epochs), 0.0, 1.0),
            1.0,
        ),
    )
    ert = np.where(started, ert, 0.5)

    projected = np.minimum(
        state.last + np.maximum(gain_raw, 0.0) * remaining / float(state.window),
        1.0,
    )
    confidence = 1.0 / (
        1.0
        + np.exp(-(projected - state.norm_target) / CONFIDENCE_TEMPERATURE)
    )
    confidence = np.where(started, confidence, 0.5)

    denominator = max(state.elapsed * state.slots, _EPS)
    slot_share = np.clip(state.invested / denominator, 0.0, 1.0)
    time_left = float(np.clip(1.0 - state.elapsed / max(state.tmax, _EPS),
                              0.0, 1.0))

    features = np.empty((n, len(FEATURE_NAMES)))
    features[:, 0] = progress
    features[:, 1] = state.last
    features[:, 2] = state.best
    features[:, 3] = gain
    features[:, 4] = ert
    features[:, 5] = confidence
    features[:, 6] = slot_share
    features[:, 7] = time_left
    features[:, 8] = 1.0
    return features


def _normalize(domain: DomainSpec, values: np.ndarray) -> np.ndarray:
    if not domain.normalizes:
        return np.clip(values, 0.0, 1.0)
    from ..metrics.stats import minmax_normalize

    return minmax_normalize(values, domain.r_min, domain.r_max)


def arrays_from_jobs(
    jobs: Sequence[Any],
    domain: DomainSpec,
    elapsed: float,
    tmax: float,
    slots: int,
    target: float,
) -> ConfigStateArrays:
    """Build the state arrays from live Job objects (serve path).

    ``jobs`` order defines row order; ``target`` is raw-scale.  Each
    started job contributes three raw values (last, one window ago,
    best), normalized in one call: the normalization is monotone and
    elementwise, so the best normalized value is the normalized best.
    """
    n = len(jobs)
    epochs = np.zeros(n, dtype=int)
    invested = np.zeros(n)
    window = domain.eval_boundary
    rows: List[int] = []
    raw: List[Tuple[float, float, float]] = []
    has_prev: List[bool] = []
    for index, job in enumerate(jobs):
        epochs[index] = job.epochs_completed
        invested[index] = job.total_training_time
        history = job.history
        if not history:
            continue
        rows.append(index)
        longer = len(history) > window
        has_prev.append(longer)
        raw.append((
            history[-1].metric,
            history[-1 - window].metric if longer else 0.0,
            job.best_metric,
        ))
    summary = np.zeros((3, n))
    if rows:
        normalized = _normalize(domain, np.asarray(raw, dtype=float)).T
        normalized[1] = np.where(has_prev, normalized[1], 0.0)
        summary[:, rows] = normalized
    last, prev, best = summary
    return ConfigStateArrays(
        epochs=epochs,
        last=last,
        prev=prev,
        best=best,
        invested=invested,
        elapsed=float(elapsed),
        tmax=float(tmax),
        slots=int(slots),
        window=int(window),
        max_epochs=int(domain.max_epochs),
        norm_target=float(domain.normalize(target)),
    )
