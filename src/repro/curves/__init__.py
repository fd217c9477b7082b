"""Learning-curve prediction substrate (Domhan et al., IJCAI'15).

Public surface:

* :data:`CURVE_MODELS` / :class:`CurveModel` — the 11 parametric families.
* :class:`CurveEnsemble` — weighted combination + posterior.
* :class:`EnsembleSampler` — affine-invariant MCMC.
* :class:`CurvePredictor` and its backends — what POP consumes.
* :class:`FitCache` — opt-in prefix-keyed reuse of least-squares fits.
"""

from .engine import FitCache
from .ensemble import CurveEnsemble
from .fitting import ModelFit, curve_cache_key, fit_all_models, fit_model
from .mcmc import EnsembleSampler, SamplerResult
from .models import CURVE_MODELS, CurveModel, get_model, model_names
from .predictor import (
    CurvePrediction,
    CurvePredictor,
    LastValuePredictor,
    LeastSquaresCurvePredictor,
    MCMCCurvePredictor,
)

__all__ = [
    "CURVE_MODELS",
    "CurveModel",
    "get_model",
    "model_names",
    "ModelFit",
    "fit_model",
    "fit_all_models",
    "curve_cache_key",
    "FitCache",
    "CurveEnsemble",
    "EnsembleSampler",
    "SamplerResult",
    "CurvePrediction",
    "CurvePredictor",
    "MCMCCurvePredictor",
    "LeastSquaresCurvePredictor",
    "LastValuePredictor",
]
