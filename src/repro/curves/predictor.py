"""Learning-curve predictors.

The POP policy asks one question of this module: given the observed
prefix ``y(1:n)`` of a configuration's learning curve, what is the
probability that the curve reaches a target value at or before each
future epoch ``m``?  (Section 3.1 of the paper, eq. 1.)

Three interchangeable backends implement :class:`CurvePredictor`:

* :class:`MCMCCurvePredictor` — the faithful reproduction of Domhan et
  al.'s model: a weighted ensemble of eleven parametric families whose
  posterior is explored with an affine-invariant MCMC sampler.
* :class:`LeastSquaresCurvePredictor` — a fast approximation that fits
  every family by bounded least squares, weights the fits by inverse
  MSE, and propagates uncertainty with residual-scaled noise.  This is
  the default for the simulator benches, mirroring the paper's own
  engineering move of cutting MCMC samples 250k → 70k for speed (§5.2).
* :class:`LastValuePredictor` — flat extrapolation of the most recent
  value; exists to reproduce the §2.2(a) ablation showing that
  instantaneous accuracy alone (as used by TuPAQ) is insufficient.

All predictors return a :class:`CurvePrediction`, which exposes sample
trajectories over the requested horizon plus the derived achieve-by
probabilities.  "Achieved by epoch m" is computed on the running
maximum of each sampled trajectory so the resulting per-epoch
probabilities are a proper (monotone) CDF — this realises the paper's
assumption that P(y(m) >= target) does not decrease with m.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ensemble import CurveEnsemble
from .fitting import fit_all_models
from .mcmc import EnsembleSampler

__all__ = [
    "CurvePrediction",
    "CurvePredictor",
    "MCMCCurvePredictor",
    "LeastSquaresCurvePredictor",
    "LastValuePredictor",
    "InstrumentedCurvePredictor",
]


@dataclass(frozen=True)
class CurvePrediction:
    """Posterior prediction of a learning curve's future.

    Attributes:
        observed: the prefix the prediction conditioned on.
        horizon: predicted epoch indices (1-based, strictly after the
            prefix), shape (H,).
        samples: sampled future trajectories, shape (S, H).
    """

    observed: np.ndarray
    horizon: np.ndarray
    samples: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        """Posterior mean trajectory over the horizon."""
        return self.samples.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        """Posterior standard deviation per horizon epoch.

        The paper calls the scalar summary of this the *prediction
        accuracy* (PA): the spread across MCMC samples.
        """
        return self.samples.std(axis=0)

    @property
    def prediction_accuracy(self) -> float:
        """Scalar PA: standard deviation across samples at the final
        horizon epoch (larger = less certain)."""
        return float(self.samples[:, -1].std())

    def achieve_by_probabilities(self, target: float) -> np.ndarray:
        """P(curve reaches ``target`` at or before each horizon epoch).

        Uses the running maximum of each sampled trajectory (and the
        best value already observed) so the result is non-decreasing.
        """
        best_observed = float(np.max(self.observed)) if self.observed.size else -np.inf
        running = np.maximum.accumulate(self.samples, axis=1)
        running = np.maximum(running, best_observed)
        return (running >= target).mean(axis=0)

    def prob_exceeds(self, target: float, at_epoch: int) -> float:
        """Marginal P(y(m) >= target) at one horizon epoch ``m``."""
        matches = np.flatnonzero(self.horizon == at_epoch)
        if matches.size == 0:
            raise ValueError(f"epoch {at_epoch} not in prediction horizon")
        return float((self.samples[:, matches[0]] >= target).mean())


class CurvePredictor(abc.ABC):
    """Interface shared by every learning-curve prediction backend."""

    @abc.abstractmethod
    def predict(
        self, observed: Sequence[float], n_future: int
    ) -> CurvePrediction:
        """Predict ``n_future`` epochs past the observed prefix.

        Args:
            observed: performance values for epochs ``1..n`` (already
                normalised into [0, 1] for RL domains).
            n_future: number of future epochs to predict (>= 1).
        """

    def min_observations(self) -> int:
        """Smallest prefix length the backend can condition on."""
        return 3


def _check_inputs(observed: Sequence[float], n_future: int) -> np.ndarray:
    y = np.asarray(observed, dtype=float)
    if y.ndim != 1:
        raise ValueError("observed curve must be 1-D")
    if n_future < 1:
        raise ValueError("n_future must be >= 1")
    if not np.all(np.isfinite(y)):
        raise ValueError("observed curve must be finite (got NaN or inf)")
    return y


class MCMCCurvePredictor(CurvePredictor):
    """Full Bayesian backend: ensemble posterior explored by MCMC.

    Defaults follow the paper's reduced budget (§5.2): 100 walkers and
    700 samples per walker.  Tests use far smaller budgets; the
    interface is identical.
    """

    def __init__(
        self,
        n_walkers: int = 100,
        n_samples: int = 700,
        burn_fraction: float = 0.5,
        thin: int = 10,
        max_posterior_samples: int = 800,
        seed: int = 0,
        model_names: Optional[Sequence[str]] = None,
        fit_cache=None,
    ) -> None:
        if not 0.0 <= burn_fraction < 1.0:
            raise ValueError("burn_fraction must be in [0, 1)")
        self.n_walkers = n_walkers
        self.n_samples = n_samples
        self.burn_fraction = burn_fraction
        self.thin = max(1, thin)
        self.max_posterior_samples = max_posterior_samples
        self.seed = seed
        self._model_names = None if model_names is None else tuple(model_names)
        #: Optional prefix-keyed fit cache
        #: (:class:`repro.curves.engine.FitCache`): the least-squares
        #: fits that seed the walkers are memoized per prefix and
        #: warm-started from the ``n-1`` prefix, so the MCMC initial
        #: state reuses the previous epoch's solution.
        self.fit_cache = fit_cache
        if model_names is None:
            self._ensemble = CurveEnsemble()
        else:
            from .models import get_model

            self._ensemble = CurveEnsemble(
                [get_model(name) for name in model_names]
            )

    def _cache_params_key(self) -> tuple:
        names = self._model_names or tuple(m.name for m in self._ensemble.models)
        return ("mcmc-init", names, self.seed)

    def predict(
        self, observed: Sequence[float], n_future: int
    ) -> CurvePrediction:
        y = _check_inputs(observed, n_future)
        if y.size < self.min_observations():
            raise ValueError(
                f"need at least {self.min_observations()} observations,"
                f" got {y.size}"
            )
        rng = np.random.default_rng(self.seed + y.size)
        ensemble = self._ensemble
        fits = None
        if self.fit_cache is not None:
            fits = fit_all_models(
                y,
                models=ensemble.models,
                rng=rng,
                cache=self.fit_cache,
                params_key=self._cache_params_key(),
            )
        center = ensemble.initial_vector(y, fits=fits, rng=rng)
        walkers = ensemble.scatter_around(center, self.n_walkers, rng)
        sampler = EnsembleSampler(
            n_walkers=self.n_walkers,
            dim=ensemble.dim,
            log_prob_fn=lambda v: ensemble.log_posterior(v, y),
            log_prob_batch_fn=lambda vs: ensemble.log_posterior_batch(vs, y),
        )
        result = sampler.run(walkers, self.n_samples, rng=rng)
        burn = int(self.burn_fraction * self.n_samples)
        flat = result.flat(burn=burn, thin=self.thin)
        if flat.shape[0] > self.max_posterior_samples:
            keep = rng.choice(
                flat.shape[0], size=self.max_posterior_samples, replace=False
            )
            flat = flat[keep]

        horizon = np.arange(y.size + 1, y.size + n_future + 1, dtype=float)
        # Batched posterior-sample evaluation: every family is applied
        # once to the stacked parameter block instead of once per
        # posterior vector.  Row-major noise draws keep the rng stream
        # identical to the historical per-vector loop.
        means = ensemble.predict_batch(horizon, flat)
        sigmas = np.exp(np.clip(flat[:, -1], -12.0, 2.0))
        noise = rng.standard_normal((flat.shape[0], n_future))
        samples = means + sigmas[:, None] * noise
        samples = np.clip(samples, 0.0, 1.0)
        return CurvePrediction(
            observed=y, horizon=horizon.astype(int), samples=samples
        )


class LeastSquaresCurvePredictor(CurvePredictor):
    """Fast backend: inverse-MSE-weighted least-squares ensemble.

    Sample trajectories are generated by (a) choosing a family with
    probability proportional to its fit weight, (b) jittering its
    extrapolation by the family's own extrapolation disagreement, and
    (c) adding residual-scaled observation noise.  The spread across
    families therefore captures model uncertainty much as the MCMC
    posterior does, at a tiny fraction of the cost.
    """

    #: Curve families used by the speed-oriented configuration: the
    #: slowest-to-fit families (pow4, exp4) are dropped; the retained
    #: seven cover the same qualitative shapes.
    FAST_MODEL_SUBSET = (
        "vapor_pressure",
        "pow3",
        "hill3",
        "mmf",
        "janoschek",
        "weibull",
        "ilog2",
    )

    def __init__(
        self,
        n_sample_curves: int = 200,
        restarts: int = 3,
        min_noise: float = 0.005,
        seed: int = 0,
        model_names: Optional[Sequence[str]] = None,
        max_nfev: int = 200,
        horizon_inflation: float = 0.15,
        fit_cache=None,
    ) -> None:
        if n_sample_curves < 2:
            raise ValueError("need at least 2 sample curves")
        if horizon_inflation < 0:
            raise ValueError("horizon_inflation cannot be negative")
        self.n_sample_curves = n_sample_curves
        self.restarts = restarts
        self.min_noise = min_noise
        self.seed = seed
        self.horizon_inflation = horizon_inflation
        self._model_names = None if model_names is None else tuple(model_names)
        if model_names is None:
            self._models = None
        else:
            from .models import get_model

            self._models = [get_model(name) for name in model_names]
        self.max_nfev = max_nfev
        #: Optional prefix-keyed fit cache
        #: (:class:`repro.curves.engine.FitCache`).  When attached,
        #: per-family fits are memoized on the exact observed prefix
        #: and warm-started from the ``n-1`` prefix; the sampling rng
        #: then switches to a stream decoupled from fit computation so
        #: a cache hit and a cold refit yield the identical prediction.
        #: When None (the default) the legacy code path runs unchanged.
        self.fit_cache = fit_cache

    def _cache_params_key(self) -> tuple:
        names = self._model_names
        if names is None:
            from .models import model_names as all_names

            names = tuple(all_names())
        return ("ls", names, self.restarts, self.max_nfev, self.seed)

    def predict(
        self, observed: Sequence[float], n_future: int
    ) -> CurvePrediction:
        y = _check_inputs(observed, n_future)
        if y.size < self.min_observations():
            raise ValueError(
                f"need at least {self.min_observations()} observations,"
                f" got {y.size}"
            )
        rng = np.random.default_rng(self.seed + 7919 * y.size)
        if self.fit_cache is not None:
            fits = fit_all_models(
                y,
                models=self._models,
                rng=rng,
                restarts=self.restarts,
                max_nfev=self.max_nfev,
                cache=self.fit_cache,
                params_key=self._cache_params_key(),
            )
            # Fresh sampling stream, independent of how many fits the
            # cache skipped: hot and cold calls sample identically.
            rng = np.random.default_rng(
                (self.seed + 7919 * y.size) ^ 0x5F3759DF
            )
        else:
            fits = fit_all_models(
                y,
                models=self._models,
                rng=rng,
                restarts=self.restarts,
                max_nfev=self.max_nfev,
            )
        usable = [f for f in fits.values() if np.isfinite(f.mse)]
        horizon = np.arange(y.size + 1, y.size + n_future + 1, dtype=float)

        inv_mse = np.array([1.0 / max(f.mse, 1e-8) for f in usable])
        weights = inv_mse / inv_mse.sum()

        resid_std = float(
            np.sqrt(
                np.sum(
                    weights
                    * np.array([max(f.mse, self.min_noise**2) for f in usable])
                )
            )
        )

        # Each sample trajectory: choose a family by fit weight, then
        # draw its parameters from the family's Laplace posterior.  The
        # parameter draws carry the within-family uncertainty (weakly
        # identified asymptotes on short prefixes) that the full MCMC
        # posterior would — crucially, *correlated across epochs* of a
        # trajectory, so achieve-by probabilities stay calibrated over
        # long horizons.
        choices = rng.choice(len(usable), size=self.n_sample_curves, p=weights)
        samples = np.empty((self.n_sample_curves, n_future))
        for k, fit in enumerate(usable):
            rows = np.flatnonzero(choices == k)
            if rows.size == 0:
                continue
            thetas = fit.sample_thetas(rows.size, rng)
            # Batched evaluation: theta (B, 1, P) against x (H,) -> (B, H).
            samples[rows] = fit.model(horizon, thetas[:, None, :])
        samples = np.clip(samples, -0.5, 1.5)

        # Residual cross-family disagreement plus a distance-scaled
        # inflation term: short prefixes can make every family agree on
        # the same wrong saturation, so honesty requires extra spread
        # that grows with extrapolation distance and shrinks with n.
        n_observed = y.size
        distance = (horizon - n_observed) / np.maximum(horizon, 1.0)
        inflation_std = (
            self.horizon_inflation
            * np.sqrt(distance)
            / np.sqrt(max(n_observed, 1) / 10.0)
        )
        trajectory_offset = rng.standard_normal((self.n_sample_curves, 1))
        samples = samples + trajectory_offset * inflation_std[None, :]
        # Per-epoch observation noise is genuinely independent, but it
        # is the small evaluation jitter, not the model spread.
        observation_noise = min(resid_std, 2.0 * self.min_noise)
        samples = samples + observation_noise * rng.standard_normal(samples.shape)
        samples = np.clip(samples, 0.0, 1.0)
        return CurvePrediction(
            observed=y, horizon=horizon.astype(int), samples=samples
        )


class InstrumentedCurvePredictor(CurvePredictor):
    """Wraps any predictor with fit timing metrics and a span.

    The curve fit (least-squares restarts or the full MCMC run) is the
    single most expensive computation HyperDrive performs per decision
    — the reason §5.2 distributes prediction to Node Agents and
    overlaps it with training.  This wrapper measures it: every
    ``predict`` records a ``predictor.predict`` span on the experiment
    clock plus its genuine wall cost in the ``predictor_fit_seconds``
    histogram, labelled by backend.

    The scheduler applies this wrapper automatically whenever a live
    :class:`~repro.observability.recorder.Recorder` is attached, so
    backends and policies never see it.

    Timings are taken from a monotonic clock (``time.monotonic`` by
    default, injectable for tests): wall-clock sources like
    ``time.time`` can step backwards under NTP adjustment and produce
    negative "durations" that corrupt the histogram quantiles.
    """

    def __init__(
        self,
        inner: CurvePredictor,
        recorder,
        monotonic_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._inner = inner
        self._recorder = recorder
        self._backend = type(inner).__name__
        self._monotonic = (
            time.monotonic if monotonic_clock is None else monotonic_clock
        )
        self._fit_seconds = recorder.metrics.histogram(
            "predictor_fit_seconds",
            help="Wall seconds spent fitting/predicting one learning curve",
        )
        self._fits_total = recorder.metrics.counter(
            "predictor_fits_total", help="Curve predictions computed"
        )

    def min_observations(self) -> int:
        return self._inner.min_observations()

    def predict(
        self, observed: Sequence[float], n_future: int
    ) -> CurvePrediction:
        with self._recorder.tracer.span(
            "predictor.predict",
            backend=self._backend,
            n_observed=len(observed),
            n_future=n_future,
        ):
            started = self._monotonic()
            try:
                return self._inner.predict(observed, n_future)
            finally:
                wall = self._monotonic() - started
                self._fit_seconds.observe(wall, backend=self._backend)
                self._fits_total.inc(backend=self._backend)


class LastValuePredictor(CurvePredictor):
    """Flat extrapolation of the most recent observation.

    Reproduces the "instantaneous accuracy only" behaviour of prior
    work (TuPAQ) for the §2.2(a) ablation: the predicted future is the
    last observed value plus small symmetric noise, so a configuration
    that will overtake later is never anticipated.
    """

    def __init__(self, noise: float = 0.01, n_sample_curves: int = 100,
                 seed: int = 0) -> None:
        self.noise = noise
        self.n_sample_curves = n_sample_curves
        self.seed = seed

    def min_observations(self) -> int:
        return 1

    def predict(
        self, observed: Sequence[float], n_future: int
    ) -> CurvePrediction:
        y = _check_inputs(observed, n_future)
        if y.size < 1:
            raise ValueError("need at least one observation")
        rng = np.random.default_rng(self.seed + 31 * y.size)
        horizon = np.arange(y.size + 1, y.size + n_future + 1)
        flat = np.full((self.n_sample_curves, n_future), float(y[-1]))
        samples = np.clip(
            flat + self.noise * rng.standard_normal(flat.shape), 0.0, 1.0
        )
        return CurvePrediction(observed=y, horizon=horizon, samples=samples)
