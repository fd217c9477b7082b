"""Property-based tests for curve fitting robustness.

Fitting runs thousands of times per experiment inside the predictor;
it must never crash, return non-finite values, or leave the declared
parameter bounds — for *any* curve it is handed, including garbage.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.fitting import fit_all_models, fit_model
from repro.curves.models import CURVE_MODELS, get_model


@st.composite
def observed_curves(draw):
    """Arbitrary plausible (and implausible) observed curves."""
    n = draw(st.integers(min_value=3, max_value=60))
    kind = draw(st.sampled_from(["rising", "flat", "falling", "noise"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    x = np.arange(1, n + 1)
    if kind == "rising":
        final = draw(st.floats(min_value=0.2, max_value=1.0))
        curve = 0.1 + (final - 0.1) * (x / n) ** 0.7
    elif kind == "flat":
        level = draw(st.floats(min_value=0.0, max_value=1.0))
        curve = np.full(n, level)
    elif kind == "falling":
        curve = np.linspace(0.8, 0.2, n)
    else:
        curve = rng.random(n)
    noise = draw(st.floats(min_value=0.0, max_value=0.05))
    return np.clip(curve + noise * rng.standard_normal(n), 0.0, 1.0)


@st.composite
def degenerate_curves(draw):
    """Curves no learning run should produce but a caller may hand in:
    exactly constant, two points long, strictly decreasing, and far
    outside the [0, 1] range the families assume."""
    kind = draw(
        st.sampled_from(["constant", "two_points", "decreasing", "out_of_range"])
    )
    n = 2 if kind == "two_points" else draw(st.integers(min_value=3, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "constant":
        return np.full(n, draw(st.floats(min_value=0.0, max_value=1.0)))
    if kind == "two_points":
        return rng.random(2)
    if kind == "decreasing":
        return np.sort(rng.random(n))[::-1] - 1e-3 * np.arange(n)
    scale = draw(st.floats(min_value=1.5, max_value=1e6))
    return scale * (rng.random(n) - 0.5)


@given(
    y=st.one_of(observed_curves(), degenerate_curves()),
    name=st.sampled_from(sorted(CURVE_MODELS)),
)
@settings(max_examples=120, deadline=None)
def test_fit_never_crashes_and_respects_bounds(y, name):
    model = get_model(name)
    fit = fit_model(model, y, restarts=1, max_nfev=30)
    assert np.all(np.isfinite(fit.theta))
    assert np.isfinite(fit.mse) and fit.mse >= 0.0
    assert model.in_bounds(fit.theta)
    prediction = fit.predict(np.arange(1, 200, dtype=float))
    assert np.all(np.isfinite(prediction))


@given(y=observed_curves())
@settings(max_examples=20, deadline=None)
def test_best_family_fits_no_worse_than_constant(y):
    """The ensemble's best family should at least match predicting the
    mean (any saturating family can express a near-constant)."""
    fits = fit_all_models(y, restarts=2, max_nfev=40)
    best_mse = min(fit.mse for fit in fits.values())
    constant_mse = float(np.mean((y - y.mean()) ** 2))
    assert best_mse <= constant_mse * 1.5 + 1e-4


@given(y=observed_curves())
@settings(max_examples=20, deadline=None)
def test_sampled_thetas_always_legal(y):
    rng = np.random.default_rng(0)
    for name in ("pow3", "weibull"):
        model = get_model(name)
        fit = fit_model(model, y, restarts=1, max_nfev=30)
        for theta in fit.sample_thetas(10, rng):
            assert model.in_bounds(theta)
