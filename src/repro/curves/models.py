"""Parametric learning-curve families.

This module implements the eleven parametric models used by the
probabilistic learning-curve predictor of Domhan et al. (IJCAI'15),
which HyperDrive's POP policy builds on.  Each family maps a
1-indexed epoch number ``x`` to a predicted performance value
``y`` given a parameter vector ``theta``.

All families are exposed through :class:`CurveModel` instances and
registered in :data:`CURVE_MODELS`.  The registry is what the
ensemble (:mod:`repro.curves.ensemble`) and the per-model fitting code
(:mod:`repro.curves.fitting`) iterate over.

The parameterisations follow Table 1 of Domhan et al.:

===============  =============================================
name             y(x)
===============  =============================================
vapor_pressure   exp(a + b / x + c * log(x))
pow3             c - a * x ** -alpha
log_log_linear   log(a * log(x) + b)
hill3            ymax * x**eta / (kappa**eta + x**eta)
log_power        a / (1 + (x / exp(b)) ** c)
pow4             c - (a * x + b) ** -alpha
mmf              alpha - (alpha - beta) / (1 + (kappa * x)**delta)
exp4             c - exp(-a * x**alpha + b)
janoschek        alpha - (alpha - beta) * exp(-kappa * x**delta)
weibull          alpha - (alpha - beta) * exp(-(kappa * x)**delta)
ilog2            c - a / log(x + 1)
===============  =============================================

Performance values are assumed to live in ``[0, 1]`` (HyperDrive
min-max normalises reinforcement-learning rewards into this range
before prediction, see :mod:`repro.metrics.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "CurveModel",
    "CURVE_MODELS",
    "model_names",
    "get_model",
]

# Clip exponents to avoid overflow in np.exp while keeping gradients sane.
_EXP_MAX = 50.0

# A tiny positive floor used to keep logarithms and divisions finite.
_EPS = 1e-12


def _safe_exp(z: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(z, -_EXP_MAX, _EXP_MAX))


def _finite(a: np.ndarray) -> np.ndarray:
    """``a`` with NaN -> 0 and +-inf -> +-1e6; ``a`` itself when already
    finite (the common case, and ``nan_to_num`` is slow on small arrays)."""
    if np.isfinite(a).all():
        return a
    return np.nan_to_num(a, nan=0.0, posinf=1e6, neginf=-1e6)


def _as_positive(x: np.ndarray) -> np.ndarray:
    """Return ``x`` clipped away from zero so powers and logs are finite."""
    return np.maximum(np.asarray(x, dtype=float), _EPS)


@dataclass(frozen=True)
class CurveModel:
    """A single parametric learning-curve family.

    Attributes:
        name: registry key, e.g. ``"weibull"``.
        param_names: ordered parameter names for ``theta``.
        func: vectorised ``y(x, theta)``; called with ``jac=True`` it
            returns ``(y, (dy/dtheta_0, ...))``.
        lower: per-parameter lower bounds used by fitting and priors.
        upper: per-parameter upper bounds.
        default: a reasonable starting guess inside the bounds.
        increasing_only: True when the family can only describe curves
            that improve over time (used to sanity-check fits).
    """

    name: str
    param_names: Tuple[str, ...]
    func: Callable[..., np.ndarray]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    default: Tuple[float, ...]
    increasing_only: bool = True

    @property
    def num_params(self) -> int:
        return len(self.param_names)

    def __call__(self, x: np.ndarray, theta: Sequence[float]) -> np.ndarray:
        """Evaluate the family at epochs ``x`` for parameters ``theta``.

        Args:
            x: epoch indices (1-based); scalars and arrays both work.
            theta: parameter vector of length :attr:`num_params`.

        Returns:
            Predicted performance values, same shape as ``x``.  Values
            are finite (inputs are clipped) but not range-limited; the
            ensemble clips into ``[0, 1]`` where needed.
        """
        x_arr = _as_positive(np.asarray(x, dtype=float))
        theta_arr = np.asarray(theta, dtype=float)
        if theta_arr.shape[-1] != self.num_params:
            raise ValueError(
                f"{self.name} expects {self.num_params} parameters "
                f"{self.param_names}, got shape {theta_arr.shape}"
            )
        with np.errstate(all="ignore"):
            y = self.func(x_arr, theta_arr)
        return _finite(y)

    def value_and_jacobian(
        self, x: np.ndarray, theta: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``y`` as :meth:`__call__` returns it (bit for bit) and the
        closed-form Jacobian ``dy/dtheta``, shape ``y.shape + (P,)``.

        ``theta`` broadcasts against ``x`` exactly as in ``__call__``:
        a ``(B, 1, P)`` block against ``x`` of shape ``(N,)`` gives
        ``y`` of shape ``(B, N)`` and a Jacobian of ``(B, N, P)``.
        """
        x_arr = _as_positive(np.asarray(x, dtype=float))
        theta_arr = np.asarray(theta, dtype=float)
        with np.errstate(all="ignore"):
            y, columns = self.func(x_arr, theta_arr, jac=True)
            jac = np.empty(np.shape(y) + (self.num_params,))
            for i, column in enumerate(columns):
                jac[..., i] = column
        return _finite(y), _finite(jac)

    def in_bounds(self, theta: Sequence[float]) -> bool:
        theta_arr = np.asarray(theta, dtype=float)
        return bool(
            np.all(theta_arr >= np.asarray(self.lower))
            and np.all(theta_arr <= np.asarray(self.upper))
        )

    def clip_to_bounds(self, theta: Sequence[float]) -> np.ndarray:
        return np.clip(
            np.asarray(theta, dtype=float),
            np.asarray(self.lower),
            np.asarray(self.upper),
        )


# Every family is one function ``(x, t, jac=False)``.  With ``jac`` it
# also returns the partial derivatives ``dy/dtheta_i`` (one array, or a
# scalar for a constant column, per parameter) built from the very
# intermediates of ``y`` — so the value the fit kernel minimises and the
# value :meth:`CurveModel.__call__` extrapolates are the same floats.
# Where ``y`` is clipped (``_EPS`` floors, ``_EXP_MAX``) it is locally
# constant and the derivative through the clipped term is 0.


def _exp_slope(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """d/dz of ``e = _safe_exp(z)``: ``e`` inside the clip, 0 outside."""
    return e * (np.abs(z) <= _EXP_MAX)


def _vapor_pressure(x: np.ndarray, t: np.ndarray, jac: bool = False):
    a, b, c = t[..., 0], t[..., 1], t[..., 2]
    log_x = np.log(x)
    z = a + b / x + c * log_x
    y = _safe_exp(z)
    if not jac:
        return y
    dz = _exp_slope(z, y)
    return y, (dz, dz / x, dz * log_x)


def _pow3(x: np.ndarray, t: np.ndarray, jac: bool = False):
    c, a, alpha = t[..., 0], t[..., 1], t[..., 2]
    p = np.power(x, -np.abs(alpha))
    y = c - a * p
    if not jac:
        return y
    return y, (1.0, -p, a * p * np.log(x) * np.sign(alpha))


def _log_log_linear(x: np.ndarray, t: np.ndarray, jac: bool = False):
    a, b = t[..., 0], t[..., 1]
    log_x = np.log(x)
    raw = a * log_x + b
    inner = np.maximum(raw, _EPS)
    y = np.log(inner)
    if not jac:
        return y
    d_inner = (raw > _EPS) / inner
    return y, (d_inner * log_x, d_inner)


def _hill3(x: np.ndarray, t: np.ndarray, jac: bool = False):
    ymax, eta, kappa = t[..., 0], t[..., 1], t[..., 2]
    xe = np.power(x, eta)
    k = np.maximum(kappa, _EPS)
    ke = np.power(k, eta)
    den = ke + xe
    y = ymax * xe / den
    if not jac:
        return y
    # s = xe / den, and d s = s (1 - s) d log(xe / ke).
    slope = ymax * xe * ke / (den * den)
    return y, (
        xe / den,
        slope * (np.log(x) - np.log(k)),
        -slope * eta / k * (kappa > _EPS),
    )


def _log_power(x: np.ndarray, t: np.ndarray, jac: bool = False):
    a, b, c = t[..., 0], t[..., 1], t[..., 2]
    ratio = x / _safe_exp(b)
    u = np.power(ratio, c)
    den = 1.0 + u
    y = a / den
    if not jac:
        return y
    dy_du = -a / (den * den)
    return y, (
        1.0 / den,
        dy_du * u * -c * (np.abs(b) <= _EXP_MAX),
        dy_du * u * np.log(ratio),
    )


def _pow4(x: np.ndarray, t: np.ndarray, jac: bool = False):
    c, a, b, alpha = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    raw = a * x + b
    base = np.maximum(raw, _EPS)
    p = np.power(base, -np.abs(alpha))
    y = c - p
    if not jac:
        return y
    d_base = np.abs(alpha) * p / base * (raw > _EPS)
    return y, (1.0, d_base * x, d_base, p * np.log(base) * np.sign(alpha))


def _mmf(x: np.ndarray, t: np.ndarray, jac: bool = False):
    alpha, beta, kappa, delta = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    k = np.maximum(kappa, _EPS)
    u = np.power(k * x, delta)
    den = 1.0 + u
    y = alpha - (alpha - beta) / den
    if not jac:
        return y
    dy_du = (alpha - beta) / (den * den)
    return y, (
        1.0 - 1.0 / den,
        1.0 / den,
        dy_du * delta * u / k * (kappa > _EPS),
        dy_du * u * np.log(k * x),
    )


def _exp4(x: np.ndarray, t: np.ndarray, jac: bool = False):
    c, a, b, alpha = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    xa = np.power(x, alpha)
    z = -a * xa + b
    e = _safe_exp(z)
    y = c - e
    if not jac:
        return y
    dz = _exp_slope(z, e)
    return y, (1.0, dz * xa, -dz, dz * a * xa * np.log(x))


def _janoschek(x: np.ndarray, t: np.ndarray, jac: bool = False):
    alpha, beta, kappa, delta = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    xd = np.power(x, delta)
    z = -kappa * xd
    e = _safe_exp(z)
    y = alpha - (alpha - beta) * e
    if not jac:
        return y
    dy_dz = -(alpha - beta) * _exp_slope(z, e)
    return y, (1.0 - e, e, -dy_dz * xd, -dy_dz * kappa * xd * np.log(x))


def _weibull(x: np.ndarray, t: np.ndarray, jac: bool = False):
    alpha, beta, kappa, delta = t[..., 0], t[..., 1], t[..., 2], t[..., 3]
    k = np.maximum(kappa, _EPS)
    u = np.power(k * x, delta)
    e = _safe_exp(-u)
    y = alpha - (alpha - beta) * e
    if not jac:
        return y
    dy_du = (alpha - beta) * _exp_slope(u, e)
    return y, (
        1.0 - e,
        e,
        dy_du * delta * u / k * (kappa > _EPS),
        dy_du * u * np.log(k * x),
    )


def _ilog2(x: np.ndarray, t: np.ndarray, jac: bool = False):
    c, a = t[..., 0], t[..., 1]
    log_x1 = np.log(x + 1.0)
    y = c - a / log_x1
    if not jac:
        return y
    return y, (1.0, -1.0 / log_x1)


CURVE_MODELS: Dict[str, CurveModel] = {}


def _register(model: CurveModel) -> CurveModel:
    CURVE_MODELS[model.name] = model
    return model


_register(
    CurveModel(
        name="vapor_pressure",
        param_names=("a", "b", "c"),
        func=_vapor_pressure,
        lower=(-10.0, -10.0, -2.0),
        upper=(2.0, 2.0, 2.0),
        default=(-1.0, -1.0, 0.1),
    )
)
_register(
    CurveModel(
        name="pow3",
        param_names=("c", "a", "alpha"),
        func=_pow3,
        lower=(0.0, 0.0, 0.01),
        upper=(1.5, 2.0, 5.0),
        default=(0.7, 0.5, 0.5),
    )
)
_register(
    CurveModel(
        name="log_log_linear",
        param_names=("a", "b"),
        func=_log_log_linear,
        lower=(0.0, 1.0),
        upper=(2.0, 3.0),
        default=(0.2, 1.2),
    )
)
_register(
    CurveModel(
        name="hill3",
        param_names=("ymax", "eta", "kappa"),
        func=_hill3,
        lower=(0.0, 0.01, 0.01),
        upper=(1.5, 5.0, 200.0),
        default=(0.7, 1.0, 10.0),
    )
)
_register(
    CurveModel(
        name="log_power",
        param_names=("a", "b", "c"),
        func=_log_power,
        lower=(0.0, -5.0, -5.0),
        upper=(1.5, 5.0, 0.0),
        default=(0.7, 2.0, -1.0),
    )
)
_register(
    CurveModel(
        name="pow4",
        param_names=("c", "a", "b", "alpha"),
        func=_pow4,
        lower=(0.0, 0.0, 0.0, 0.01),
        upper=(1.5, 2.0, 10.0, 5.0),
        default=(0.7, 0.2, 1.0, 0.5),
    )
)
_register(
    CurveModel(
        name="mmf",
        param_names=("alpha", "beta", "kappa", "delta"),
        func=_mmf,
        lower=(0.0, 0.0, 0.0, 0.01),
        upper=(1.5, 1.0, 5.0, 5.0),
        default=(0.7, 0.1, 0.05, 1.0),
    )
)
_register(
    CurveModel(
        name="exp4",
        param_names=("c", "a", "b", "alpha"),
        func=_exp4,
        lower=(0.0, 0.0, -5.0, 0.01),
        upper=(1.5, 2.0, 5.0, 2.0),
        default=(0.7, 0.1, 0.0, 1.0),
    )
)
_register(
    CurveModel(
        name="janoschek",
        param_names=("alpha", "beta", "kappa", "delta"),
        func=_janoschek,
        lower=(0.0, 0.0, 0.0, 0.01),
        upper=(1.5, 1.0, 2.0, 5.0),
        default=(0.7, 0.1, 0.05, 1.0),
    )
)
_register(
    CurveModel(
        name="weibull",
        param_names=("alpha", "beta", "kappa", "delta"),
        func=_weibull,
        lower=(0.0, 0.0, 0.0, 0.01),
        upper=(1.5, 1.0, 2.0, 5.0),
        default=(0.7, 0.1, 0.05, 1.0),
    )
)
_register(
    CurveModel(
        name="ilog2",
        param_names=("c", "a"),
        func=_ilog2,
        lower=(0.0, 0.0),
        upper=(1.5, 2.0),
        default=(0.7, 0.3),
    )
)


def model_names() -> Tuple[str, ...]:
    """Names of all registered curve families, in registration order."""
    return tuple(CURVE_MODELS)


def get_model(name: str) -> CurveModel:
    """Look up a curve family by name.

    Raises:
        KeyError: if ``name`` is not registered.
    """
    try:
        return CURVE_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown curve model {name!r}; known: {sorted(CURVE_MODELS)}"
        ) from None
