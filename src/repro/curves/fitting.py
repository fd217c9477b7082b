"""Least-squares fitting of parametric curve families to partial curves.

Fitting provides two things to the rest of the curve-prediction stack:

* a maximum-likelihood starting point for the MCMC walkers
  (:mod:`repro.curves.mcmc`), and
* the fast deterministic backend of :class:`repro.curves.predictor.
  CurvePredictor`, where per-model fits are combined with weights
  proportional to their goodness of fit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .models import CURVE_MODELS, CurveModel

__all__ = [
    "ModelFit",
    "fit_model",
    "fit_model_reference",
    "fit_all_models",
    "curve_cache_key",
]

#: Termination tolerances of the fit kernel, on the relative cost
#: reduction, the relative step and the projected gradient
#: (``scipy.optimize.least_squares``' defaults).
FTOL = XTOL = GTOL = 1e-8

#: Parameter columns of a kernel row; families with fewer are padded.
_WIDTH = max(m.num_params for m in CURVE_MODELS.values())

#: Levenberg-Marquardt damping, relative to the largest diagonal entry
#: of ``J^T J``: where a row starts and the range it is kept in.
_DAMPING_START, _DAMPING_MIN, _DAMPING_MAX = 1e-2, 1e-12, 1e12

#: Stand-in for that entry where the Jacobian is all zero (every
#: parameter in a clipped branch), so the damped system stays regular.
_PEAK_FLOOR = 1e-30

#: Key type of a fit-cache prefix: (prefix length, digest of the bytes).
CurveKey = Tuple[int, bytes]


def curve_cache_key(y: np.ndarray) -> CurveKey:
    """Stable cache key of one observed-curve prefix.

    The digest is computed over the raw float64 bytes, so two prefixes
    compare equal exactly when every observation is bit-identical —
    the same criterion under which a refit would reproduce the same
    :class:`ModelFit`.
    """
    y_arr = np.ascontiguousarray(y, dtype=float)
    digest = hashlib.blake2b(y_arr.tobytes(), digest_size=16).digest()
    return (int(y_arr.size), digest)


@dataclass(frozen=True)
class ModelFit:
    """Result of fitting one curve family to an observed prefix.

    Attributes:
        model: the fitted family.
        theta: best-fit parameter vector (clipped to the family bounds).
        mse: mean squared error on the observed prefix.
        success: whether the optimiser converged to a usable fit.
        covariance: Laplace-approximation parameter covariance
            ``mse · (JᵀJ)⁻¹`` at the optimum (None when unavailable).
            Short prefixes leave asymptote parameters weakly identified;
            sampling from this covariance recovers the within-family
            uncertainty that a full MCMC posterior would carry.
    """

    model: CurveModel
    theta: np.ndarray
    mse: float
    success: bool
    covariance: Optional[np.ndarray] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.model(x, self.theta)

    def sample_thetas(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` parameter vectors from the Laplace posterior,
        clipped to the family bounds.  Falls back to the point estimate
        when no covariance is available."""
        if self.covariance is None:
            return np.tile(self.theta, (n, 1))
        try:
            draws = rng.multivariate_normal(self.theta, self.covariance, size=n)
        except np.linalg.LinAlgError:
            return np.tile(self.theta, (n, 1))
        return np.clip(
            draws,
            np.asarray(self.model.lower),
            np.asarray(self.model.upper),
        )


def _initial_guesses(
    model: CurveModel, y: np.ndarray, rng: np.random.Generator, restarts: int
) -> List[np.ndarray]:
    """Build starting points: the registry default, a data-informed guess,
    and random draws within the family bounds."""
    lower = np.asarray(model.lower)
    upper = np.asarray(model.upper)
    guesses = [np.asarray(model.default, dtype=float)]

    # Data-informed guess: families whose first parameter acts as an
    # asymptote benefit from starting near slightly above the last
    # observed value.
    informed = np.asarray(model.default, dtype=float).copy()
    asymptote = float(np.clip(y[-1] + 0.1, lower[0], upper[0]))
    informed[0] = asymptote
    guesses.append(informed)

    for _ in range(max(0, restarts - 2)):
        guesses.append(rng.uniform(lower, upper))
    return guesses


def _as_curve(y: Sequence[float]) -> np.ndarray:
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim != 1 or y_arr.size < 2:
        raise ValueError("need a 1-D curve with at least 2 observations")
    return y_arr


def _starts(
    model: CurveModel,
    y: np.ndarray,
    rng: np.random.Generator,
    restarts: int,
    extra_guesses: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """One family's starting points, clipped into its bounds, shape (S, P)."""
    guesses = _initial_guesses(model, y, rng, restarts)
    if extra_guesses is not None:
        guesses.extend(np.asarray(g, dtype=float) for g in extra_guesses)
    return model.clip_to_bounds(np.stack(guesses))


def _levenberg_marquardt(
    models: Sequence[CurveModel],
    starts: Sequence[np.ndarray],
    y: np.ndarray,
    max_nfev: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimise ``0.5 * ||model(x, theta) - y||^2`` within each family's
    bounds from every start of every family at once.

    Projected Levenberg-Marquardt.  A row is one (family, start)
    problem; parameter vectors are padded to ``_WIDTH`` columns so one
    stacked ``J^T J`` and one ``solve`` advance all rows per iteration.
    The damping is isotropic, ``damping * max(diag(J^T J)) * I`` — a
    spherical trust region in raw parameter space, as
    ``least_squares(method="trf")`` uses with its default ``x_scale``,
    which is what makes the two agree on which minimum of a flat curve a
    4-parameter family lands in (Marquardt's per-parameter scaling fits
    as well but extrapolates such curves upwards) — and follows
    Nielsen's update.  A parameter sitting on a bound with the gradient
    pushing outwards is held (active set), the damped Gauss-Newton step
    is taken in the rest and clipped into the box.  Every operation is
    per row, so a row's trajectory does not depend on which other rows
    share its batch.

    Returns per row ``(theta, residuals, jacobian, ok)`` at the last
    accepted point; ``ok`` is False where the residuals at the start
    were not finite.
    """
    x = np.arange(1, y.size + 1, dtype=float)
    edges = np.cumsum([0] + [len(block) for block in starts])
    spans = list(zip(models, edges[:-1], edges[1:]))
    total = int(edges[-1])
    theta = np.zeros((total, _WIDTH))
    lower = np.zeros((total, _WIDTH))
    upper = np.zeros((total, _WIDTH))
    for (model, lo, hi), block in zip(spans, starts):
        p = model.num_params
        theta[lo:hi, :p] = block
        lower[lo:hi, :p] = model.lower
        upper[lo:hi, :p] = model.upper

    def evaluate(at, live, res, jac) -> None:
        """Fused residuals and Jacobian of every family that still has a
        live row (the rows of a finished family keep their last values)."""
        for model, lo, hi in spans:
            if live[lo:hi].any():
                p = model.num_params
                value, jac[lo:hi, :, :p] = model.value_and_jacobian(
                    x, at[lo:hi, None, :p]
                )
                res[lo:hi] = value - y

    res = np.empty((total, y.size))
    jac = np.zeros((total, y.size, _WIDTH))
    evaluate(theta, np.ones(total, dtype=bool), res, jac)
    cost = 0.5 * (res * res).sum(axis=1)
    ok = np.isfinite(cost)
    res[~ok] = 0.0
    live = ok.copy()
    damping = np.full(total, _DAMPING_START)
    growth = np.full(total, 2.0)
    padding = upper <= lower
    trial_res = np.empty_like(res)
    trial_jac = np.zeros_like(jac)
    diagonal = np.arange(_WIDTH)
    nfev = 1
    # Overflow in a wild trial step only makes that step a rejected one.
    with np.errstate(all="ignore"):
        while nfev < max_nfev and live.any():
            jac_t = jac.transpose(0, 2, 1)
            hess = jac_t @ jac
            grad = (jac_t @ res[:, :, None])[:, :, 0]
            # First-order optimality in a box: the projected gradient step.
            live &= (
                np.abs(theta - np.clip(theta - grad, lower, upper)).max(axis=1)
                >= GTOL
            )
            held = (
                padding
                | ((theta <= lower) & (grad > 0.0))
                | ((theta >= upper) & (grad < 0.0))
            )
            free = (~held).astype(float)
            system = hess * free[:, :, None] * free[:, None, :]
            peak = hess[:, diagonal, diagonal].max(axis=1)
            system[:, diagonal, diagonal] += np.where(
                held, 1.0, (damping * np.maximum(peak, _PEAK_FLOOR))[:, None]
            )
            step = np.linalg.solve(system, (-grad * free)[:, :, None])[:, :, 0]
            step[~np.isfinite(step).all(axis=1)] = 0.0  # ends the row on XTOL
            trial = np.clip(theta + step, lower, upper)
            move = trial - theta
            predicted = -(
                (grad * move).sum(axis=1)
                + 0.5 * (move * (hess @ move[:, :, None])[:, :, 0]).sum(axis=1)
            )
            evaluate(trial, live, trial_res, trial_jac)
            nfev += 1
            trial_cost = 0.5 * (trial_res * trial_res).sum(axis=1)
            actual = cost - trial_cost
            ratio = np.where(predicted > 0.0, actual / predicted, 0.0)
            accept = live & (actual > 0.0)
            stalled = np.sqrt((move * move).sum(axis=1)) < XTOL * (
                XTOL + np.sqrt((theta * theta).sum(axis=1))
            )
            flat = accept & (actual < FTOL * cost) & (ratio > 0.25)
            np.copyto(theta, trial, where=accept[:, None])
            np.copyto(res, trial_res, where=accept[:, None])
            np.copyto(jac, trial_jac, where=accept[:, None, None])
            cost = np.where(accept, trial_cost, cost)
            gain = accept & (ratio > 0.0)
            damping = np.clip(
                np.where(
                    gain,
                    damping * np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3),
                    damping * growth,
                ),
                _DAMPING_MIN,
                _DAMPING_MAX,
            )
            growth = np.where(gain, 2.0, np.minimum(2.0 * growth, _DAMPING_MAX))
            live &= ~(stalled | flat)
    return theta, res, jac, ok


def _best_of_starts(
    model: CurveModel,
    y: np.ndarray,
    candidates: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> ModelFit:
    """The lowest-MSE ``(theta, residuals, jacobian)`` candidate, if any
    beats the family default; ``success`` is False when none does."""
    x = np.arange(1, y.size + 1, dtype=float)
    best_theta = np.asarray(model.default, dtype=float)
    best_mse = float(np.mean((model(x, best_theta) - y) ** 2))
    best_jac: Optional[np.ndarray] = None
    succeeded = False
    for theta, residuals, jac in candidates:
        mse = float(np.mean(residuals**2))
        if np.isfinite(mse) and mse < best_mse:
            best_theta = model.clip_to_bounds(theta)
            best_mse = mse
            best_jac = jac
            succeeded = True
    return ModelFit(
        model=model,
        theta=best_theta,
        mse=best_mse,
        success=succeeded,
        covariance=_laplace_covariance(best_jac, best_mse, model.num_params),
    )


def _fit_batch(
    models: Sequence[CurveModel],
    starts: Sequence[np.ndarray],
    y: np.ndarray,
    max_nfev: int,
) -> List[ModelFit]:
    """Fit each family from its starts in one kernel call."""
    if not models:
        return []
    theta, res, jac, ok = _levenberg_marquardt(models, starts, y, max_nfev)
    fits = []
    lo = 0
    for model, block in zip(models, starts):
        p = model.num_params
        rows = [row for row in range(lo, lo + len(block)) if ok[row]]
        fits.append(
            _best_of_starts(
                model, y, ((theta[r, :p], res[r], jac[r, :, :p]) for r in rows)
            )
        )
        lo += len(block)
    return fits


def fit_model(
    model: CurveModel,
    y: Sequence[float],
    rng: Optional[np.random.Generator] = None,
    restarts: int = 4,
    max_nfev: int = 200,
    extra_guesses: Optional[Sequence[np.ndarray]] = None,
) -> ModelFit:
    """Fit one family to an observed learning-curve prefix.

    Args:
        model: the curve family to fit.
        y: observed performance values for epochs ``1..len(y)``.
        rng: randomness source for restart initialisation.
        restarts: number of optimiser starts (>= 1).
        max_nfev: cap on fused value+Jacobian evaluations per start.
        extra_guesses: additional starting points tried after the
            generated ones — the warm-start hook used by the fit cache,
            which seeds the optimiser with the solution of the ``n-1``
            prefix.  Appending (not replacing) keeps the rng stream and
            the cold-start guesses identical to a call without them.

    Returns:
        The best :class:`ModelFit` across restarts.  ``success`` is
        False when every restart failed, in which case ``theta`` is the
        family default and ``mse`` the corresponding error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    y_arr = _as_curve(y)
    starts = _starts(model, y_arr, rng, restarts, extra_guesses)
    return _fit_batch([model], [starts], y_arr, max_nfev)[0]


def fit_model_reference(
    model: CurveModel,
    y: Sequence[float],
    guesses: Sequence[np.ndarray],
    max_nfev: int = 200,
) -> ModelFit:
    """The same fit by ``scipy.optimize.least_squares`` (trust-region
    reflective, exact Jacobian), one call per start.

    This is the oracle the fidelity tests hold the kernel against; no
    product path calls it.
    """
    # The module attribute, so that a rebound ``fitting.optimize`` is used.
    optimize = globals().get("optimize") or __getattr__("optimize")
    y_arr = _as_curve(y)
    x = np.arange(1, y_arr.size + 1, dtype=float)
    results = [
        optimize.least_squares(
            lambda theta: model(x, theta) - y_arr,
            x0=model.clip_to_bounds(guess),
            jac=lambda theta: model.value_and_jacobian(x, theta)[1],
            bounds=(np.asarray(model.lower), np.asarray(model.upper)),
            method="trf",
            max_nfev=max_nfev,
        )
        for guess in guesses
    ]
    return _best_of_starts(
        model, y_arr, ((r.x, r.fun, np.asarray(r.jac)) for r in results)
    )


def __getattr__(name: str):
    """``fitting.optimize`` is ``scipy.optimize``, imported on first use
    (PEP 562) so that importing the product never loads scipy; once
    resolved it is an ordinary module global, which callers may rebind."""
    if name != "optimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize

    globals()["optimize"] = optimize
    return optimize


def _laplace_covariance(
    jac: Optional[np.ndarray], mse: float, num_params: int
) -> Optional[np.ndarray]:
    """Parameter covariance ``sigma² (JᵀJ)⁻¹`` with a small ridge.

    The ridge keeps weakly identified directions (typically asymptote
    parameters on short prefixes) finite instead of exploding, while
    still letting them carry most of the spread.
    """
    if jac is None or not np.all(np.isfinite(jac)):
        return None
    jtj = jac.T @ jac + 1e-6 * np.eye(num_params)
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return None
    sigma_sq = max(mse, 1e-6)
    cov = sigma_sq * inv
    if not np.all(np.isfinite(cov)):
        return None
    return 0.5 * (cov + cov.T)


def fit_all_models(
    y: Sequence[float],
    models: Optional[Iterable[CurveModel]] = None,
    rng: Optional[np.random.Generator] = None,
    restarts: int = 4,
    max_nfev: int = 200,
    cache=None,
    params_key: Optional[Tuple] = None,
) -> Dict[str, ModelFit]:
    """Fit every registered family (or a subset) to the observed prefix,
    all families and starts in one kernel batch.

    Args:
        cache: optional prefix-keyed fit cache (duck-typed; see
            :class:`repro.curves.engine.FitCache`).  Fits are memoized
            on ``(family, curve prefix, params_key)``; a miss is
            warm-started from the cached fit of the ``n-1`` prefix so
            per-epoch refits reuse the previous solution instead of
            starting cold.
        params_key: hashable fingerprint of the fitting configuration
            (restarts, budgets, seed, ...).  Required when ``cache`` is
            given — entries fitted under different parameters must not
            alias.

    Returns a mapping from model name to its :class:`ModelFit`.
    """
    models = list(CURVE_MODELS.values() if models is None else models)
    if rng is None:
        rng = np.random.default_rng(0)
    if cache is not None and params_key is None:
        raise ValueError("params_key is required when a fit cache is given")
    y_arr = _as_curve(y)
    fits: Dict[str, Optional[ModelFit]] = {}
    missed: List[CurveModel] = []
    starts: List[np.ndarray] = []
    warm_started: List[bool] = []
    if cache is not None:
        key = curve_cache_key(y_arr)
        prev_key = curve_cache_key(y_arr[:-1]) if y_arr.size > 2 else None
    for m in models:
        extra = None
        if cache is not None:
            fits[m.name] = cache.get(m.name, key, params_key)
            if fits[m.name] is not None:
                continue
            if prev_key is not None:
                warm = cache.peek(m.name, prev_key, params_key)
                if warm is not None and warm.success:
                    extra = [warm.theta]
        missed.append(m)
        starts.append(_starts(m, y_arr, rng, restarts, extra))
        warm_started.append(extra is not None)
    for m, fit, warm in zip(
        missed, _fit_batch(missed, starts, y_arr, max_nfev), warm_started
    ):
        fits[m.name] = fit
        if cache is not None:
            cache.put(m.name, key, params_key, fit, warm_started=warm)
    return fits
