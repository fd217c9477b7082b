"""Fidelity of the batched fit kernel against the scipy oracle.

The kernel (:func:`repro.curves.fitting.fit_all_models`) replaced one
``scipy.optimize.least_squares`` call per (family, start).  Both solve
the same bounded problems from the same starts, but a projected
Levenberg-Marquardt and a trust-region-reflective walk do not always
end in the same local minimum of a 4-parameter family, so the gate is
statistical, on the calibrated curve sets the figure benches use and
with the default predictor's settings:

* per (curve prefix, family) the kernel's best MSE is within 5 % of the
  oracle's in at least 90 % of cells, and the median ratio is 1.00;
* what the scheduler consumes — ``achieve_by_probabilities(target)`` —
  moves by at most 0.03 on average and 0.30 on any one prefix (the
  oracle against itself under another sampling seed reads 0.017 / 0.12:
  100 sample curves resolve 0.01), and by at most 0.01 in either
  direction on balance;
* a problem's result does not depend on its batch: alone, inside
  ``fit_all_models`` and on the fit-cache path it is the same bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import standard_configs
from repro.curves import predictor as predictor_module
from repro.curves.engine import FitCache
from repro.curves.fitting import (
    _initial_guesses,
    fit_all_models,
    fit_model,
    fit_model_reference,
)
from repro.curves.models import CURVE_MODELS
from repro.sim.runner import default_predictor

PREFIXES = (10, 20, 30, 60)
N_CONFIGS = 30
GENERATOR_SEED = 11


def _calibrated_curves(workload):
    """Normalised full-length curves of the workload's standard configs."""
    curves = []
    configs = standard_configs(workload, N_CONFIGS, seed=GENERATOR_SEED)
    for index, config in enumerate(configs):
        run = workload.create_run(config, seed=index)
        curve = []
        while True:
            result = run.step()
            curve.append(workload.domain.normalize(result.metric))
            if result.done:
                break
        curves.append(np.asarray(curve))
    return curves


def _reference_fit_all_models(
    y, models=None, rng=None, restarts=4, max_nfev=200
):
    """``fit_all_models`` as the scipy loop computed it: same starts,
    same order, one ``least_squares`` call each."""
    y_arr = np.asarray(y, dtype=float)
    return {
        m.name: fit_model_reference(
            m, y_arr, _initial_guesses(m, y_arr, rng, restarts), max_nfev
        )
        for m in models
    }


def _predict_through(patch, fit_all, observed, n_future):
    """The default predictor's fits and prediction with ``fit_all`` in
    ``fit_all_models``' place."""
    seen = {}

    def recording(*args, **kwargs):
        seen["fits"] = fit_all(*args, **kwargs)
        return seen["fits"]

    patch.setattr(predictor_module, "fit_all_models", recording)
    prediction = default_predictor().predict(observed, n_future)
    return seen["fits"], prediction


@pytest.fixture(scope="module")
def cells(cifar10_workload, lunarlander_workload):
    """Per (workload, curve, prefix): the fits and the prediction of the
    default predictor, through the kernel and through the oracle."""
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        for workload in (cifar10_workload, lunarlander_workload):
            for curve in _calibrated_curves(workload):
                for n in PREFIXES:
                    row = {"target": workload.domain.normalized_target}
                    for side, fit_all in (
                        ("kernel", fit_all_models),
                        ("oracle", _reference_fit_all_models),
                    ):
                        row[side + "_fits"], row[side] = _predict_through(
                            patch, fit_all, curve[:n], curve.size - n
                        )
                    rows.append(row)
    return rows


def test_kernel_mse_matches_the_oracle(cells):
    ratios = np.array(
        [
            (row["kernel_fits"][name].mse + 1e-300)
            / (row["oracle_fits"][name].mse + 1e-300)
            for row in cells
            for name in row["kernel_fits"]
        ]
    )
    assert ratios.size == 2 * N_CONFIGS * len(PREFIXES) * 7
    # Measured: 0.946 within 5 %, median 1.0000.
    assert np.mean(ratios <= 1.05) >= 0.90, np.mean(ratios <= 1.05)
    assert abs(np.median(ratios) - 1.0) <= 0.01, np.median(ratios)


def test_achieve_by_probabilities_match_the_oracle(cells):
    shifts = [  # per cell, over its horizon
        row["kernel"].achieve_by_probabilities(row["target"])
        - row["oracle"].achieve_by_probabilities(row["target"])
        for row in cells
    ]
    moved = np.array([np.abs(shift).mean() for shift in shifts])
    # Measured: mean 0.016, max 0.17.
    assert moved.mean() <= 0.03, moved.mean()
    assert moved.max() <= 0.30, moved.max()
    # ... and in neither direction on balance.  Measured +0.002; with
    # Marquardt's per-parameter damping the kernel passed both bounds
    # above yet read +0.017: flat curves fitted as slow log growth with
    # an unidentified asymptote, so non-learners looked promising and
    # EarlyTerm killed later (Fig 7: 382 -> 415 min).
    signed = np.mean([shift.mean() for shift in shifts])
    assert abs(signed) <= 0.01, signed


def _assert_same_fit(a, b):
    assert a.success == b.success
    assert a.mse == b.mse
    np.testing.assert_array_equal(a.theta, b.theta)
    if a.covariance is None:
        assert b.covariance is None
    else:
        np.testing.assert_array_equal(a.covariance, b.covariance)


def test_a_fit_does_not_depend_on_its_batch(cifar10_workload):
    """``fit_model`` alone, the same family inside ``fit_all_models``
    and the cache-miss path (cold, and warm-started: one more row)
    return bit-identical fits — what keeps ``workers=1`` equal to
    inline, a hot fit cache equal to a cold one and resume
    byte-identical."""
    models = list(CURVE_MODELS.values())
    key = ("fidelity",)
    for curve in _calibrated_curves(cifar10_workload)[:6]:
        for n in (10, 31):
            y = curve[:n]
            # Three starts: one is drawn from the rng, family by family.
            batched = fit_all_models(
                y, models, rng=np.random.default_rng(n), restarts=3,
                max_nfev=60,
            )
            rng = np.random.default_rng(n)
            for model in models:
                alone = fit_model(model, y, rng=rng, restarts=3, max_nfev=60)
                _assert_same_fit(alone, batched[model.name])

            cache = FitCache()
            cold = fit_all_models(
                y, models, rng=np.random.default_rng(n), restarts=3,
                max_nfev=60, cache=cache, params_key=key,
            )
            for model in models:
                _assert_same_fit(cold[model.name], batched[model.name])

            # One epoch more: every family misses and is warm-started
            # from the fit above (two starts, so no rng draw to replay).
            longer = curve[: n + 1]
            warm = fit_all_models(
                longer, models, restarts=2, max_nfev=60, cache=cache,
                params_key=key,
            )
            assert cache.warm_starts > 0
            for model in models:
                previous = cold[model.name]
                alone = fit_model(
                    model, longer, restarts=2, max_nfev=60,
                    extra_guesses=[previous.theta] if previous.success else None,
                )
                _assert_same_fit(alone, warm[model.name])
