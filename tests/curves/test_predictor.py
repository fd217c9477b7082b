"""Tests for the learning-curve predictor backends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.predictor import (
    CurvePrediction,
    LastValuePredictor,
    LeastSquaresCurvePredictor,
    MCMCCurvePredictor,
)


def _rising_curve(n: int, final=0.8, half=20.0, steep=2.0, noise=0.008, seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(1, n + 1, dtype=float)
    growth = x**steep / (x**steep + half**steep)
    return np.clip(0.1 + (final - 0.1) * growth + noise * rng.standard_normal(n), 0, 1)


def _flat_curve(n: int, level=0.1, noise=0.005, seed=0):
    rng = np.random.default_rng(seed)
    return np.clip(level + noise * rng.standard_normal(n), 0, 1)


@pytest.fixture(scope="module")
def ls_predictor():
    return LeastSquaresCurvePredictor(n_sample_curves=60, restarts=2, seed=1)


# ------------------------------------------------------ CurvePrediction


def test_prediction_properties():
    pred = CurvePrediction(
        observed=np.array([0.1, 0.2]),
        horizon=np.array([3, 4, 5]),
        samples=np.array([[0.3, 0.4, 0.5], [0.5, 0.6, 0.7]]),
    )
    np.testing.assert_allclose(pred.mean, [0.4, 0.5, 0.6])
    assert pred.prediction_accuracy == pytest.approx(np.std([0.5, 0.7]))
    assert pred.prob_exceeds(0.55, at_epoch=5) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="not in prediction horizon"):
        pred.prob_exceeds(0.5, at_epoch=99)


def test_achieve_by_probabilities_monotone_and_include_observed():
    pred = CurvePrediction(
        observed=np.array([0.1, 0.45]),
        horizon=np.array([3, 4]),
        samples=np.array([[0.3, 0.2], [0.2, 0.5]]),
    )
    probs = pred.achieve_by_probabilities(0.4)
    assert np.all(np.diff(probs) >= 0)
    # Best observed (0.45) already beats 0.4 -> probability 1 everywhere.
    np.testing.assert_allclose(probs, [1.0, 1.0])


# ------------------------------------------------------ LS backend


def test_ls_prediction_shapes(ls_predictor):
    y = _rising_curve(20)
    pred = ls_predictor.predict(y, 30)
    assert pred.samples.shape == (60, 30)
    assert pred.horizon[0] == 21 and pred.horizon[-1] == 50
    assert np.all((pred.samples >= 0) & (pred.samples <= 1))


def test_ls_prediction_extrapolates_rising_curve(ls_predictor):
    y = _rising_curve(40, final=0.8)
    pred = ls_predictor.predict(y, 80)
    assert pred.mean[-1] > 0.6  # clearly above the last observed 0.55


def test_ls_prediction_flat_curve_stays_flat(ls_predictor):
    y = _flat_curve(30, level=0.1)
    pred = ls_predictor.predict(y, 90)
    assert pred.mean[-1] < 0.35
    probs = pred.achieve_by_probabilities(0.77)
    assert probs[-1] < 0.2


def test_ls_prediction_uncertainty_shrinks_with_more_data():
    predictor = LeastSquaresCurvePredictor(n_sample_curves=80, restarts=2, seed=0)
    full = _rising_curve(100)
    early = predictor.predict(full[:10], 20)
    late = predictor.predict(full[:80], 20)
    assert early.std.mean() > late.std.mean()


def test_ls_input_validation(ls_predictor):
    with pytest.raises(ValueError, match="at least 3"):
        ls_predictor.predict([0.1, 0.2], 10)
    with pytest.raises(ValueError, match="n_future"):
        ls_predictor.predict([0.1, 0.2, 0.3], 0)
    with pytest.raises(ValueError, match="1-D"):
        ls_predictor.predict(np.ones((3, 2)), 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observations_rejected_by_name(bad):
    """A NaN or inf prefix used to surface as ``rng.choice`` complaining
    about an empty weight vector."""
    curve = _rising_curve(12)
    curve[5] = bad
    for predictor in (
        LeastSquaresCurvePredictor(n_sample_curves=10, restarts=1),
        MCMCCurvePredictor(n_walkers=8, n_samples=4),
        LastValuePredictor(),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            predictor.predict(curve, 5)


def test_ls_deterministic_given_seed():
    a = LeastSquaresCurvePredictor(n_sample_curves=20, restarts=1, seed=7)
    b = LeastSquaresCurvePredictor(n_sample_curves=20, restarts=1, seed=7)
    y = _rising_curve(15)
    np.testing.assert_array_equal(
        a.predict(y, 10).samples, b.predict(y, 10).samples
    )


def test_ls_model_subset_and_bad_name():
    p = LeastSquaresCurvePredictor(model_names=("pow3", "weibull"))
    y = _rising_curve(15)
    assert p.predict(y, 5).samples.shape[1] == 5
    with pytest.raises(KeyError):
        LeastSquaresCurvePredictor(model_names=("not_a_model",))


def test_ls_constructor_validation():
    with pytest.raises(ValueError, match="at least 2 sample curves"):
        LeastSquaresCurvePredictor(n_sample_curves=1)
    with pytest.raises(ValueError, match="horizon_inflation"):
        LeastSquaresCurvePredictor(horizon_inflation=-0.1)


# ------------------------------------------------------ last-value backend


def test_last_value_prediction_is_flat():
    predictor = LastValuePredictor(noise=0.0, n_sample_curves=10)
    pred = predictor.predict([0.1, 0.5, 0.42], 5)
    np.testing.assert_allclose(pred.samples, 0.42)


def test_last_value_never_anticipates_overtake():
    """The §2.2(a) point: last-value prediction misses future growth."""
    predictor = LastValuePredictor(noise=0.01, n_sample_curves=50)
    y = _rising_curve(20, final=0.9)  # still low at epoch 20
    pred = predictor.predict(y, 100)
    assert pred.achieve_by_probabilities(0.85)[-1] < 0.5


def test_last_value_min_observations():
    predictor = LastValuePredictor()
    assert predictor.min_observations() == 1
    pred = predictor.predict([0.3], 4)
    assert pred.samples.shape[1] == 4


# ------------------------------------------------------ MCMC backend


@pytest.fixture(scope="module")
def mcmc_predictor():
    return MCMCCurvePredictor(
        n_walkers=32,
        n_samples=120,
        thin=4,
        max_posterior_samples=120,
        model_names=("pow3", "weibull", "ilog2"),
        seed=0,
    )


def test_mcmc_prediction_shapes(mcmc_predictor):
    y = _rising_curve(25)
    pred = mcmc_predictor.predict(y, 20)
    assert pred.samples.shape[1] == 20
    assert pred.samples.shape[0] > 10
    assert np.all((pred.samples >= 0) & (pred.samples <= 1))


def test_mcmc_prediction_tracks_rising_curve(mcmc_predictor):
    y = _rising_curve(40, final=0.8)
    pred = mcmc_predictor.predict(y, 60)
    assert pred.mean[-1] > 0.55


def test_mcmc_flat_curve_low_target_probability(mcmc_predictor):
    y = _flat_curve(30)
    pred = mcmc_predictor.predict(y, 60)
    assert pred.achieve_by_probabilities(0.77)[-1] < 0.3


def test_mcmc_constructor_validation():
    with pytest.raises(ValueError, match="burn_fraction"):
        MCMCCurvePredictor(burn_fraction=1.0)


def test_mcmc_requires_min_observations(mcmc_predictor):
    with pytest.raises(ValueError, match="at least 3"):
        mcmc_predictor.predict([0.1, 0.2], 5)


# ------------------------------------------------------ properties


@given(
    final=st.floats(min_value=0.2, max_value=0.9),
    n_obs=st.integers(min_value=5, max_value=40),
    target=st.floats(min_value=0.1, max_value=0.95),
)
@settings(max_examples=15, deadline=None)
def test_achieve_by_monotone_for_any_curve(final, n_obs, target):
    predictor = LeastSquaresCurvePredictor(
        n_sample_curves=20, restarts=1, model_names=("pow3", "weibull"), seed=0
    )
    y = _rising_curve(n_obs, final=final)
    pred = predictor.predict(y, 30)
    probs = pred.achieve_by_probabilities(target)
    assert np.all(np.diff(probs) >= -1e-12)
    assert np.all((probs >= 0) & (probs <= 1))
