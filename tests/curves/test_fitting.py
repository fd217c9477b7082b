"""Tests for least-squares curve fitting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.curves.fitting import ModelFit, fit_all_models, fit_model
from repro.curves.models import get_model


def _weibull_curve(n: int, alpha=0.8, beta=0.1, kappa=0.08, delta=1.2):
    model = get_model("weibull")
    return model(np.arange(1, n + 1, dtype=float), [alpha, beta, kappa, delta])


def test_fit_recovers_weibull_shape():
    y = _weibull_curve(60)
    fit = fit_model(get_model("weibull"), y, restarts=4)
    assert fit.success
    assert fit.mse < 1e-6
    np.testing.assert_allclose(fit.predict(np.array([80.0])), 0.8, atol=0.05)


def test_fit_with_noise_still_close():
    rng = np.random.default_rng(0)
    y = _weibull_curve(60) + 0.01 * rng.standard_normal(60)
    fit = fit_model(get_model("weibull"), y, rng=rng)
    assert fit.mse < 5e-4


def test_fit_theta_respects_bounds():
    rng = np.random.default_rng(1)
    y = np.clip(_weibull_curve(30) + 0.05 * rng.standard_normal(30), 0, 1)
    for name in ("pow3", "mmf", "ilog2", "hill3"):
        model = get_model(name)
        fit = fit_model(model, y, rng=rng)
        assert model.in_bounds(fit.theta)


def test_fit_rejects_too_short_input():
    with pytest.raises(ValueError, match="at least 2"):
        fit_model(get_model("pow3"), [0.5])


def test_fit_rejects_2d_input():
    with pytest.raises(ValueError):
        fit_model(get_model("pow3"), np.ones((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_curve_is_a_failed_fit_not_an_exception(bad):
    """Every start has non-finite residuals, so every row fails: the
    result is the family default, flagged unsuccessful."""
    y = _weibull_curve(12)
    y[4] = bad
    for name in ("pow3", "weibull"):
        model = get_model(name)
        fit = fit_model(model, y, restarts=3)
        assert not fit.success
        assert fit.covariance is None
        np.testing.assert_array_equal(fit.theta, model.default)
    fits = fit_all_models(y, restarts=2, max_nfev=20)
    assert not any(f.success for f in fits.values())


def test_fit_all_models_returns_every_family():
    y = _weibull_curve(25)
    fits = fit_all_models(y, restarts=1, max_nfev=40)
    assert len(fits) == 11
    assert all(isinstance(f, ModelFit) for f in fits.values())
    best = min(fits.values(), key=lambda f: f.mse)
    assert best.mse < 1e-3  # at least one family nails a weibull curve


def test_fit_all_models_subset():
    y = _weibull_curve(25)
    subset = [get_model("pow3"), get_model("weibull")]
    fits = fit_all_models(y, models=subset)
    assert set(fits) == {"pow3", "weibull"}


def test_covariance_present_and_symmetric():
    rng = np.random.default_rng(2)
    y = _weibull_curve(40) + 0.01 * rng.standard_normal(40)
    fit = fit_model(get_model("weibull"), y, rng=rng)
    assert fit.covariance is not None
    np.testing.assert_allclose(fit.covariance, fit.covariance.T)
    eigvals = np.linalg.eigvalsh(fit.covariance)
    assert np.all(eigvals > -1e-12)


def test_covariance_wider_on_short_prefix():
    """Asymptote uncertainty must shrink as more epochs are observed."""
    rng = np.random.default_rng(3)
    noise = 0.01 * rng.standard_normal(100)
    full = _weibull_curve(100) + noise
    fit_short = fit_model(get_model("weibull"), full[:10], rng=rng)
    fit_long = fit_model(get_model("weibull"), full[:80], rng=rng)
    assert fit_short.covariance is not None and fit_long.covariance is not None
    # Compare spread in the asymptote (alpha) direction.
    assert fit_short.covariance[0, 0] > fit_long.covariance[0, 0]


def test_sample_thetas_in_bounds_and_varied():
    rng = np.random.default_rng(4)
    y = _weibull_curve(15) + 0.01 * rng.standard_normal(15)
    fit = fit_model(get_model("weibull"), y, rng=rng)
    draws = fit.sample_thetas(50, rng)
    assert draws.shape == (50, 4)
    model = get_model("weibull")
    for draw in draws:
        assert model.in_bounds(draw)
    assert np.std(draws[:, 0]) > 0  # asymptote actually varies


def test_sample_thetas_without_covariance_returns_point():
    fit = ModelFit(
        model=get_model("pow3"),
        theta=np.array([0.7, 0.5, 0.5]),
        mse=0.1,
        success=False,
        covariance=None,
    )
    draws = fit.sample_thetas(5, np.random.default_rng(0))
    assert np.all(draws == fit.theta)
