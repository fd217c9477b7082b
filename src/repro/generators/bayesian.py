"""Gaussian-process Bayesian-optimisation Hyperparameter Generator.

Section 4.2 of the paper notes that adaptive generators (Spearmint,
GPyOpt, HyperOpt, Auto-WEKA) "can be plugged into HyperDrive with the
use of a shim that exposes the HG API".  This module is that shim plus
a self-contained GP-EI optimiser so the repository has a working
adaptive generator without external dependencies.

The GP uses a squared-exponential kernel over the unit-hypercube
encoding of configurations and maximises Expected Improvement over a
random candidate pool.  Before ``warmup`` observations arrive it falls
back to random sampling, which is both standard practice and what keeps
the first proposals identical to random search.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import ExhaustedSpaceError, HyperparameterGenerator
from .space import SearchSpace

__all__ = ["GaussianProcess", "BayesianGenerator"]


class GaussianProcess:
    """Minimal GP regressor with an RBF kernel and white noise.

    Enough machinery for EI-based proposal ranking: fit on unit-cube
    points, predict mean and variance at candidates.
    """

    def __init__(
        self,
        length_scale: float = 0.3,
        signal_variance: float = 1.0,
        noise: float = 1e-4,
    ) -> None:
        if length_scale <= 0 or signal_variance <= 0 or noise <= 0:
            raise ValueError("GP hyperparameters must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._chol: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq_dists = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
        sq_dists -= 2.0 * a @ b.T
        sq_dists = np.maximum(sq_dists, 0.0)
        return self.signal_variance * np.exp(
            -0.5 * sq_dists / self.length_scale**2
        )

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fit to observations ``x`` (n, d) in the unit cube, ``y`` (n,)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have matching first dimension")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a GP to zero observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        y_norm = (y - self._y_mean) / self._y_std
        # scipy is imported where it runs: a process that never fits a GP
        # (every cluster worker, daemon and CLI call) never loads it.
        from scipy import linalg

        k = self._kernel(x, x) + self.noise * np.eye(x.shape[0])
        self._chol = linalg.cholesky(k, lower=True)
        self._alpha = linalg.cho_solve((self._chol, True), y_norm)
        self._x = x

    def predict(self, candidates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``candidates``."""
        if self._x is None or self._chol is None or self._alpha is None:
            raise RuntimeError("GP must be fitted before prediction")
        from scipy import linalg

        candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
        k_star = self._kernel(candidates, self._x)
        mean = k_star @ self._alpha
        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        var = self.signal_variance - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        return (
            mean * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for maximisation: E[max(0, f - best - xi)] under N(mean, std^2)."""
    from scipy.stats import norm

    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    z = (np.asarray(mean, dtype=float) - best - xi) / std
    return std * (z * norm.cdf(z) + norm.pdf(z))


class BayesianGenerator(HyperparameterGenerator):
    """GP-EI adaptive generator behind the standard HG API.

    Args:
        space: the hyperparameter space.
        seed: RNG seed (controls warmup randoms and candidate pools).
        warmup: number of random proposals before the GP activates.
        pool_size: random candidates scored by EI per proposal.
        max_configs: optional cap on total proposals.
    """

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        warmup: int = 8,
        pool_size: int = 256,
        max_configs: Optional[int] = None,
    ) -> None:
        super().__init__(space)
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        if pool_size < 2:
            raise ValueError("pool_size must be >= 2")
        self._rng = np.random.default_rng(seed)
        self.warmup = warmup
        self.pool_size = pool_size
        self.max_configs = max_configs
        self._observed_x: List[np.ndarray] = []
        self._observed_y: List[float] = []

    def _observe(self, config: Dict[str, Any], performance: float) -> None:
        self._observed_x.append(self.space.to_unit(config))
        self._observed_y.append(performance)

    def _propose(self) -> Dict[str, Any]:
        if self.max_configs is not None and self.num_proposed >= self.max_configs:
            raise ExhaustedSpaceError(
                f"bayesian generator capped at {self.max_configs} configs"
            )
        if len(self._observed_y) < self.warmup:
            return self.space.sample(self._rng)

        gp = GaussianProcess()
        gp.fit(np.stack(self._observed_x), np.asarray(self._observed_y))
        pool = self._rng.random((self.pool_size, len(self.space)))
        mean, std = gp.predict(pool)
        ei = expected_improvement(mean, std, best=max(self._observed_y))
        return self.space.from_unit(pool[int(np.argmax(ei))])
