"""Tests for the parametric curve families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize._numdiff import approx_derivative

from repro.curves.models import CURVE_MODELS, get_model, model_names

EXPECTED_FAMILIES = {
    "vapor_pressure",
    "pow3",
    "log_log_linear",
    "hill3",
    "log_power",
    "pow4",
    "mmf",
    "exp4",
    "janoschek",
    "weibull",
    "ilog2",
}


def test_registry_contains_the_eleven_families():
    assert set(model_names()) == EXPECTED_FAMILIES
    assert len(CURVE_MODELS) == 11


def test_get_model_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown curve model"):
        get_model("nope")


def test_get_model_returns_registered_instance():
    assert get_model("weibull") is CURVE_MODELS["weibull"]


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
def test_default_parameters_within_bounds(name):
    model = get_model(name)
    assert model.in_bounds(model.default)
    assert len(model.lower) == model.num_params
    assert len(model.upper) == model.num_params


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
def test_evaluation_is_finite_at_defaults(name):
    model = get_model(name)
    x = np.arange(1, 200, dtype=float)
    y = model(x, model.default)
    assert y.shape == x.shape
    assert np.all(np.isfinite(y))


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
def test_evaluation_finite_at_bound_corners(name):
    model = get_model(name)
    x = np.arange(1, 50, dtype=float)
    for theta in (model.lower, model.upper):
        y = model(x, theta)
        assert np.all(np.isfinite(y)), f"{name} non-finite at bounds"


def test_wrong_parameter_count_raises():
    model = get_model("pow3")
    with pytest.raises(ValueError, match="expects 3 parameters"):
        model(np.arange(1, 5), [0.5, 0.5])


def test_scalar_epoch_evaluation():
    model = get_model("weibull")
    value = model(10.0, model.default)
    assert np.isscalar(value) or value.shape == ()


def test_batched_theta_evaluation_matches_loop():
    x = np.arange(1, 60, dtype=float)
    rng = np.random.default_rng(1)
    for model in CURVE_MODELS.values():
        thetas = np.clip(
            np.asarray(model.default)
            + 0.05 * rng.standard_normal((6, model.num_params)),
            model.lower,
            model.upper,
        )
        batched = model(x, thetas[:, None, :])
        looped = np.stack([model(x, t) for t in thetas])
        np.testing.assert_allclose(batched, looped, atol=1e-12)


@pytest.mark.parametrize(
    "name", ["pow3", "mmf", "janoschek", "weibull", "hill3", "ilog2"]
)
def test_saturating_families_increase_at_defaults(name):
    """The growth families should be non-decreasing for their default
    (growth-shaped) parameters."""
    model = get_model(name)
    x = np.arange(1, 150, dtype=float)
    y = model(x, model.default)
    diffs = np.diff(y)
    assert np.all(diffs >= -1e-9), f"{name} not monotone at defaults"


def test_clip_to_bounds():
    model = get_model("pow3")
    clipped = model.clip_to_bounds([99.0, -5.0, 2.0])
    assert model.in_bounds(clipped)
    assert clipped[0] == model.upper[0]
    assert clipped[1] == model.lower[1]


@given(
    theta_scale=st.floats(min_value=0.0, max_value=1.0),
    x_max=st.integers(min_value=2, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_all_models_finite_for_any_in_bounds_theta(theta_scale, x_max):
    """Property: any in-bounds parameter vector yields finite output."""
    x = np.arange(1, x_max + 1, dtype=float)
    for model in CURVE_MODELS.values():
        lower = np.asarray(model.lower)
        upper = np.asarray(model.upper)
        theta = lower + theta_scale * (upper - lower)
        y = model(x, theta)
        assert np.all(np.isfinite(y))


# ----------------------------------------------------- closed-form Jacobians


def _numeric_jacobian(model, x, theta, step_fraction=1.0):
    """scipy's 3-point finite differences (one-sided on a bound), at its
    default step or a fraction of it."""
    step = np.finfo(float).eps ** (1 / 3) * np.maximum(1.0, np.abs(theta))
    return approx_derivative(
        lambda t: model(x, t),
        theta,
        method="3-point",
        abs_step=step * step_fraction,
        bounds=(np.asarray(model.lower), np.asarray(model.upper)),
    )


def _near_a_singularity(model, theta):
    """True within finite-difference reach of a point where the value is
    not differentiable: ``(kappa x) ** delta`` at ``kappa = 0`` (one-sided
    slope 0 or infinite, under an ``_EPS`` floor) and pow4's pole at
    ``a x + b = 0``.  Differencing across 6e-6 says nothing there; the
    clipped-branch test below covers the points themselves."""
    if model.name in ("mmf", "weibull"):
        return theta[2] < 1e-3
    if model.name == "pow4":
        return theta[1] + theta[2] < 1e-3
    return False


@st.composite
def family_theta_and_epochs(draw):
    """A registered family, theta anywhere in its box (hypothesis likes
    the end points, so parameters sit on their bounds often) and epochs
    ``1..n``."""
    model = get_model(draw(st.sampled_from(sorted(CURVE_MODELS))))
    fractions = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=model.num_params,
            max_size=model.num_params,
        )
    )
    lower, upper = np.asarray(model.lower), np.asarray(model.upper)
    theta = lower + np.asarray(fractions) * (upper - lower)
    n = draw(st.integers(min_value=2, max_value=12))
    return model, theta, np.arange(1, n + 1, dtype=float)


@given(case=family_theta_and_epochs())
@settings(max_examples=300, deadline=None)
def test_jacobian_matches_finite_differences(case):
    """Analytic J agrees with 3-point differences to 1e-6 of each
    column's scale — plus the differences' own error, read off the
    change when their step is halved (they are the noisier side where a
    family is stiff: ``x ** 5`` against a 6e-6 step), and the fused
    value is the plain call's value bit for bit."""
    model, theta, x = case
    assume(not _near_a_singularity(model, theta))
    value, jac = model.value_and_jacobian(x, theta)
    np.testing.assert_array_equal(value, model(x, theta))
    assert jac.shape == (x.size, model.num_params)
    coarse = _numeric_jacobian(model, x, theta)
    fine = _numeric_jacobian(model, x, theta, step_fraction=0.5)
    scale = np.maximum(np.abs(fine).max(axis=0), 1.0)
    allowed = 1e-6 * scale + 2.0 * np.abs(coarse - fine)
    assert np.all(np.abs(jac - fine) <= allowed), (
        model.name, theta, np.abs(jac - fine).max(axis=0)
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_FAMILIES))
def test_jacobian_on_long_curves_at_defaults(name):
    """At the well-conditioned default parameters finite differences
    resolve 1e-6 over the longest curves the workloads produce."""
    model = get_model(name)
    x = np.arange(1, 201, dtype=float)
    theta = np.asarray(model.default)
    _, jac = model.value_and_jacobian(x, theta)
    numeric = _numeric_jacobian(model, x, theta)
    scale = np.maximum(np.abs(numeric).max(axis=0), 1.0)
    np.testing.assert_allclose(jac / scale, numeric / scale, atol=1e-6)


def test_fused_value_and_jacobian_broadcast_like_call():
    """A (B, 1, P) block against x (N,) gives (B, N) values and a
    (B, N, P) Jacobian whose rows equal the one-theta results exactly:
    the fit kernel evaluates a family's starts in one call."""
    x = np.arange(1, 40, dtype=float)
    rng = np.random.default_rng(5)
    for model in CURVE_MODELS.values():
        thetas = rng.uniform(model.lower, model.upper, (5, model.num_params))
        thetas[0] = model.lower
        thetas[1] = model.upper
        values, jacs = model.value_and_jacobian(x, thetas[:, None, :])
        assert values.shape == (5, x.size)
        assert jacs.shape == (5, x.size, model.num_params)
        np.testing.assert_array_equal(values, model(x, thetas[:, None, :]))
        for theta, value, jac in zip(thetas, values, jacs):
            one_value, one_jac = model.value_and_jacobian(x, theta)
            np.testing.assert_array_equal(value, one_value)
            np.testing.assert_array_equal(jac, one_jac)
            assert np.all(np.isfinite(jac))


#: (family, theta, parameter columns through the clipped term): each
#: theta puts every epoch of ``x = 1..30`` inside a clipped branch.
CLIPPED_BRANCHES = [
    # exp(z) held at z = +-_EXP_MAX (theta outside the fit bounds).
    ("vapor_pressure", (60.0, 1.0, 0.1), (0, 1, 2)),
    ("vapor_pressure", (-60.0, -1.0, 0.1), (0, 1, 2)),
    ("exp4", (0.7, 60.0, 0.0, 1.0), (1, 2, 3)),
    ("janoschek", (0.7, 0.1, 60.0, 1.0), (2, 3)),
    ("weibull", (0.7, 0.1, 60.0, 1.0), (2, 3)),
    ("log_power", (0.7, 60.0, -1.0), (1,)),
    # _EPS floors: on the lower bound for mmf and weibull's kappa and
    # pow4's a = b = 0, outside the bounds for the others.
    ("mmf", (0.7, 0.1, 0.0, 1.0), (2,)),
    ("weibull", (0.7, 0.1, 0.0, 1.0), (2,)),
    ("pow4", (0.7, 0.0, 0.0, 0.5), (1, 2)),
    ("hill3", (0.7, 1.0, -1.0), (2,)),
    ("log_log_linear", (-1.0, -1.0), (0, 1)),
]


@pytest.mark.parametrize("name,theta,columns", CLIPPED_BRANCHES)
def test_jacobian_is_zero_through_a_clipped_term(name, theta, columns):
    """Where a floor or the exponent clip holds the value constant the
    derivative through it is exactly 0 (and everything stays finite);
    the value is the plain call's there too."""
    model = get_model(name)
    x = np.arange(1, 31, dtype=float)
    theta = np.asarray(theta)
    value, jac = model.value_and_jacobian(x, theta)
    np.testing.assert_array_equal(value, model(x, theta))
    assert np.all(np.isfinite(jac))
    for column in columns:
        assert np.all(jac[:, column] == 0.0), (name, column)
        # Genuinely flat: a nudge further into the clipped side changes
        # nothing.
        nudged = theta.copy()
        nudged[column] += 1e-3 if theta[column] > 0 else -1e-3
        np.testing.assert_array_equal(model(x, nudged), value)
