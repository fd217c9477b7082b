"""Config-quality calibration shared by the synthetic workloads.

The synthetic CIFAR-10 and LunarLander workloads must reproduce the
*distributional* facts the paper reports (e.g. 32% of supervised
configurations never beat random accuracy; >50% of RL configurations
are non-learners).  We achieve this exactly rather than by hand-tuning:

1. Each workload defines a raw ``score`` function over configurations
   expressing plausible domain structure (learning rate sweet spots,
   capacity effects, divergence cliffs).  The score makes "nearby"
   configurations behave similarly, which adaptive generators rely on.
2. A :class:`QualityCalibrator` converts raw scores into uniform
   quantiles ``u ∈ [0, 1]`` via the empirical CDF of the score over a
   large reference sample drawn from the same space.
3. The workload maps ``u`` through an explicit quantile function of the
   *target* final-performance distribution (e.g. the Fig. 2a CDF), so
   the population statistics match the paper by construction while the
   score structure decides *which* configurations are the good ones.

The synthetic workloads build on :class:`CalibratedWorkload`, their runs
on :class:`SeededRun` (one resumable noise stream) and, for the curve
workloads, :class:`SyntheticRun` (a noiseless curve seen through it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..generators.space import SearchSpace
from .base import DomainSpec, EpochResult, TrainingRun, Workload

__all__ = [
    "CalibratedWorkload", "QualityCalibrator", "SeededRun", "SyntheticRun",
    "config_key", "stable_config_seed",
]

#: Per-process memo of sorted reference scores, keyed by everything they
#: depend on: ``(score_fn, space dimensions, n_reference, seed)``.  The
#: reference sample is the bulk of building a calibrated workload (4,000
#: score evaluations), and a daemon or lab worker builds the same
#: workload for every experiment or cell.  Only the sorted scores are
#: kept: the sample itself is streamed (:data:`_REFERENCE_CHUNK`) and
#: none of its configurations or hashes outlives the build.
#: Least-recently-used entries are evicted past the bound, so callers
#: that pass a fresh lambda per calibrator cannot grow it.
_REFERENCE_CACHE: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
_REFERENCE_CACHE_LIMIT = 8
_REFERENCE_LOCK = threading.Lock()

#: Reference configurations drawn, hashed and scored per pass, so a
#: build holds one chunk's keys and hash matrix, not the whole sample's.
_REFERENCE_CHUNK = 256


def _reference_scores(
    space: SearchSpace,
    score_fn: Callable[[Dict[str, Any]], float],
    n_reference: int,
    seed: int,
) -> np.ndarray:
    """The sorted, read-only reference scores (memoised per process).

    The sample is computed under the lock, so threads that build the
    same workload at once compute it once; the work holds the GIL
    anyway, so no parallelism is lost.  It is drawn from the one RNG
    in chunks: each chunk's new keys are hashed in one
    :func:`_fnv_accumulate_many` pass and lent to :data:`_FNV_CACHE`
    while the chunk is scored (so ``score_fn``'s
    :func:`stable_config_seed` calls hit), then taken out again.
    """
    key = (score_fn, tuple(space.dimensions), n_reference, seed)
    with _REFERENCE_LOCK:
        scores = _REFERENCE_CACHE.get(key)
        if scores is not None:
            _REFERENCE_CACHE.move_to_end(key)
            return scores
        rng = np.random.default_rng(seed)
        sample: List[float] = []
        for start in range(0, n_reference, _REFERENCE_CHUNK):
            size = min(_REFERENCE_CHUNK, n_reference - start)
            configs = [space.sample(rng) for _ in range(size)]
            lent = [
                encoded for encoded in map(config_key, configs)
                if encoded not in _FNV_CACHE
            ]
            _FNV_CACHE.update(zip(lent, _fnv_accumulate_many(lent)))
            try:
                sample.extend(score_fn(config) for config in configs)
            finally:
                for encoded in lent:
                    _FNV_CACHE.pop(encoded, None)
        scores = np.array(sample)
        if not np.all(np.isfinite(scores)):
            raise ValueError("score function produced non-finite values")
        scores = np.sort(scores)
        scores.setflags(write=False)
        _REFERENCE_CACHE[key] = scores
        while len(_REFERENCE_CACHE) > _REFERENCE_CACHE_LIMIT:
            _REFERENCE_CACHE.popitem(last=False)
    return scores


class QualityCalibrator:
    """Empirical-CDF mapping from raw config scores to [0, 1] quantiles.

    Args:
        space: the search space to draw the reference sample from.
        score_fn: deterministic map from configuration to raw score
            (higher = better).
        n_reference: reference-sample size; larger = smoother CDF.
        seed: seed for the reference sample (fixed per workload so the
            mapping is reproducible).
    """

    def __init__(
        self,
        space: SearchSpace,
        score_fn: Callable[[Dict[str, Any]], float],
        n_reference: int = 4000,
        seed: int = 20170711,
    ) -> None:
        if n_reference < 10:
            raise ValueError("reference sample too small to calibrate")
        self._score_fn = score_fn
        self._seed = seed
        self._sorted_scores = _reference_scores(
            space, score_fn, n_reference, seed
        )

    def quantile(self, config: Dict[str, Any]) -> float:
        """Quantile of ``config``'s score within the reference sample.

        Returns a value in the open interval (0, 1): mid-rank
        convention avoids exact 0/1 so downstream quantile functions
        never see their open endpoints.
        """
        score = float(self._score_fn(config))
        n = self._sorted_scores.size
        # mid-rank of `score` among reference scores
        left = np.searchsorted(self._sorted_scores, score, side="left")
        right = np.searchsorted(self._sorted_scores, score, side="right")
        rank = (left + right) / 2.0
        return float((rank + 0.5) / (n + 1.0))


_FNV_OFFSET = 1469598103934665603  # FNV-1a offset basis
_FNV_PRIME = 1099511628211
_U64_MASK = 0xFFFFFFFFFFFFFFFF

#: Per-process memo of the salt-independent FNV accumulator per encoded
#: configuration.  Every run creation hashes its config under several
#: salts, and the salt is only mixed in *after* the character loop
#: below, so one accumulator serves every salt.  It holds what runs
#: read: the calibrator lends each reference chunk's accumulators to it
#: while scoring that chunk and takes them out again, so no reference
#: hash outlives a build.  Cleared when full, at the bound of
#: :data:`_STATIC_CACHE`, where a miss rebuilds the run's curve anyway.
_FNV_CACHE: Dict[str, int] = {}
_FNV_CACHE_LIMIT = 4096


def _fnv_accumulate(encoded: str) -> int:
    acc = _FNV_OFFSET
    for ch in encoded:
        acc = ((acc ^ ord(ch)) * _FNV_PRIME) & _U64_MASK
    return acc


def _fnv_accumulate_many(keys: Sequence[str]) -> List[int]:
    """:func:`_fnv_accumulate` of every key, in one ``uint64`` pass.

    The keys' code points (lone surrogates included) are laid out as
    rows of a zero-padded matrix; each column step updates only the rows
    still inside their key, so every row is the scalar loop's value.
    """
    lengths = np.fromiter((len(key) for key in keys), dtype=np.intp, count=len(keys))
    width = int(lengths.max(initial=0))
    inside = np.arange(width) < lengths[:, None]
    codes = np.zeros(inside.shape, dtype=np.uint64)
    codes[inside] = np.frombuffer(
        "".join(keys).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    acc = np.full(len(keys), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in range(width):
        acc = np.where(inside[:, column], (acc ^ codes[:, column]) * prime, acc)
    return acc.tolist()


def config_key(config: Dict[str, Any]) -> str:
    """A stable content key for a configuration: equal keys mean equal
    values of equal types, in any key order and in any process."""
    return repr(sorted((k, repr(v)) for k, v in config.items()))


def stable_config_seed(config: Dict[str, Any], salt: int = 0) -> int:
    """A deterministic 63-bit seed derived from a configuration.

    Python's ``hash`` is randomised per process for strings, so we
    build the seed from a stable string encoding instead.  Used to give
    every configuration its own reproducible noise stream: the stream
    is a pure function of (configuration content, salt), independent of
    the order configurations are created or scheduled in.
    """
    encoded = config_key(config)
    acc = _FNV_CACHE.get(encoded)
    if acc is None:
        if len(_FNV_CACHE) >= _FNV_CACHE_LIMIT:
            _FNV_CACHE.clear()
        acc = _fnv_accumulate(encoded)
        _FNV_CACHE[encoded] = acc
    acc = ((acc ^ (salt & 0x7FFFFFFF)) * _FNV_PRIME) & _U64_MASK
    return acc & 0x7FFFFFFFFFFFFFFF


#: Per-process memo of what :meth:`CalibratedWorkload.create_run` derives
#: from the configuration alone: a lab study or a suspend/resume cycle
#: creates runs of the same configurations over and over, and only the
#: noise stream is new.  Cleared when full, like :data:`_FNV_CACHE`.
_STATIC_CACHE: Dict[Hashable, Tuple[float, np.ndarray, float]] = {}
_STATIC_CACHE_LIMIT = 4096


class SeededRun(TrainingRun):
    """A synthetic run that draws every observation from one noise
    stream, seeded by the configuration and ``salt + seed``.

    The epoch and the stream's state are the whole resumable state, so
    a restored snapshot continues the stream bit for bit.
    """

    #: Added to the run seed, so each workload draws its own stream.
    salt: int

    def __init__(
        self, config: Dict[str, Any], quantile: float, seed: int, max_epochs: int
    ) -> None:
        self._config = dict(config)
        self._quantile = quantile
        self._max_epochs = max_epochs
        self._epoch = 0
        self._rng = np.random.default_rng(stable_config_seed(config, self.salt + seed))

    @property
    def config(self) -> Dict[str, Any]:
        return dict(self._config)

    @property
    def epochs_completed(self) -> int:
        return self._epoch

    @property
    def finished(self) -> bool:
        return self._epoch >= self._max_epochs

    def snapshot_state(self) -> Dict[str, Any]:
        return {"epoch": self._epoch, "rng_state": self._rng.bit_generator.state}

    def restore_state(self, state: Dict[str, Any]) -> None:
        epoch = int(state["epoch"])
        if not 0 <= epoch <= self._max_epochs:
            raise ValueError(f"snapshot epoch {epoch} out of range")
        self._rng.bit_generator.state = state["rng_state"]
        self._epoch = epoch


class SyntheticRun(SeededRun):
    """A noiseless per-epoch curve observed through noise.

    ``true_curve`` (one entry per epoch) and ``epoch_seconds`` are the
    configuration's static parts; the run seed only drives the noise.
    Each epoch draws the metric's absolute noise, clipped to
    :attr:`bounds`, then the duration's relative noise.
    """

    metric_noise: float
    duration_noise: float
    bounds: Tuple[float, float]

    def __init__(
        self,
        config: Dict[str, Any],
        quantile: float,
        seed: int,
        true_curve: np.ndarray,
        epoch_seconds: float,
    ) -> None:
        super().__init__(config, quantile, seed, len(true_curve))
        self._true_curve = true_curve
        self._epoch_seconds = epoch_seconds

    def step(self) -> EpochResult:
        if self.finished:
            raise RuntimeError("training run already finished")
        self._epoch += 1
        true_value = float(self._true_curve[self._epoch - 1])
        observed = true_value + self.metric_noise * float(self._rng.standard_normal())
        observed = min(max(observed, self.bounds[0]), self.bounds[1])
        duration = self._epoch_seconds * float(
            1.0 + self.duration_noise * self._rng.standard_normal()
        )
        return EpochResult(
            epoch=self._epoch,
            duration=max(duration, 1.0),
            metric=observed,
            done=self.finished,
        )

    def observed_stream(self) -> tuple:
        """The full observed stream, batched (trace-recording hook).

        One vectorized draw consuming the same RNG stream ``step``
        would — ``standard_normal(2E)`` equals ``2E`` sequential scalar
        draws — so ``(durations, metrics)`` match epoch-by-epoch
        stepping bit for bit.  Consumes the run: call on a fresh run.
        """
        if self._epoch != 0:
            raise RuntimeError("observed_stream requires a fresh run")
        noise = self._rng.standard_normal(2 * self._max_epochs)
        metrics = np.clip(
            self._true_curve + self.metric_noise * noise[0::2], *self.bounds
        )
        durations = np.maximum(
            self._epoch_seconds * (1.0 + self.duration_noise * noise[1::2]), 1.0
        )
        self._epoch = self._max_epochs
        return durations, metrics


class CalibratedWorkload(Workload):
    """A search space, its :class:`QualityCalibrator` and its domain.

    A curve workload also sets :attr:`run_class` (a :class:`SyntheticRun`)
    and the two static parts of a configuration: :attr:`true_curve`
    ``(config, quantile, max_epochs)`` and :attr:`mean_epoch_seconds`.
    """

    run_class: type
    true_curve: Callable[[Dict[str, Any], float, int], np.ndarray]
    mean_epoch_seconds: Callable[[Dict[str, Any]], float]

    def __init__(
        self,
        space: SearchSpace,
        score_fn: Callable[[Dict[str, Any]], float],
        calibration_seed: int,
        domain: DomainSpec,
    ) -> None:
        self._space = space
        self._calibrator = QualityCalibrator(space, score_fn, seed=calibration_seed)
        self._domain = domain

    @property
    def space(self) -> SearchSpace:
        return self._space

    @property
    def domain(self) -> DomainSpec:
        return self._domain

    def quality_quantile(self, config: Dict[str, Any]) -> float:
        """The calibrated quality quantile of ``config`` (analysis aid)."""
        return self._calibrator.quantile(config)

    def create_run(self, config: Dict[str, Any], seed: int = 0) -> SyntheticRun:
        """A run of ``config`` built from its static parts, memoised per
        process in :data:`_STATIC_CACHE`.

        The key is everything they depend on: the calibration (its score
        function and seed), the configuration's content and the epoch
        budget.  Equal configuration keys mean equal values of equal
        types, so a configuration is validated only when it misses.
        """
        calibrator, max_epochs = self._calibrator, self._domain.max_epochs
        key = (calibrator._score_fn, calibrator._seed, config_key(config), max_epochs)
        parts = _STATIC_CACHE.get(key)
        if parts is None:
            self._space.validate(config)
            quantile = calibrator.quantile(config)
            curve = self.true_curve(config, quantile, max_epochs)
            curve.setflags(write=False)
            parts = (quantile, curve, self.mean_epoch_seconds(config))
            if len(_STATIC_CACHE) >= _STATIC_CACHE_LIMIT:
                _STATIC_CACHE.clear()
            _STATIC_CACHE[key] = parts
        quantile, curve, epoch_seconds = parts
        return self.run_class(
            config=config, quantile=quantile, seed=seed,
            true_curve=curve, epoch_seconds=epoch_seconds,
        )
