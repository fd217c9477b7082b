"""Prefix-keyed fit cache for the least-squares predictors.

:class:`FitCache` is an LRU cache of per-family least-squares fits keyed
on the exact observed prefix.  A caller that re-predicts curves it has
already seen (every job every round, say) attaches one with
``LeastSquaresCurvePredictor(fit_cache=FitCache())``: repeated prefixes
are hits, and a miss is warm-started from the ``n-1``-prefix solution.

No product path attaches one.  The scheduler asks for one prediction
per *new* prefix (``NodeAgent.predict`` after an epoch), so its hit
ratio is 0 by construction; §5.2's "prediction off the critical path"
is realised by running it on the Node Agents, not by caching or
pooling (docs/algorithms.md §6, EXPERIMENTS.md "Prediction cost").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from .fitting import CurveKey, ModelFit

__all__ = ["FitCache"]


class FitCache:
    """Thread-safe LRU cache of :class:`ModelFit` results per prefix.

    Entries are keyed on ``(model family, curve prefix digest,
    params_key)`` — the params key fingerprints the fitting
    configuration (restarts, budgets, seed) so fits computed under
    different settings never alias.  See
    :func:`repro.curves.fitting.fit_all_models` for the lookup
    protocol, including the ``n-1``-prefix warm start.
    """

    def __init__(self, maxsize: int = 2048) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: "OrderedDict[tuple, ModelFit]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.warm_starts = 0
        self.evictions = 0

    def get(
        self, model_name: str, key: CurveKey, params_key: tuple
    ) -> Optional[ModelFit]:
        """Look up a fit, counting the hit/miss and refreshing recency."""
        full = (model_name, key, params_key)
        with self._lock:
            fit = self._data.get(full)
            if fit is None:
                self.misses += 1
                return None
            self._data.move_to_end(full)
            self.hits += 1
            return fit

    def peek(
        self, model_name: str, key: CurveKey, params_key: tuple
    ) -> Optional[ModelFit]:
        """Look up without touching hit/miss counters or recency.

        Used for the ``n-1``-prefix warm-start probe, which should not
        masquerade as demand traffic in the hit rate.
        """
        with self._lock:
            return self._data.get((model_name, key, params_key))

    def put(
        self,
        model_name: str,
        key: CurveKey,
        params_key: tuple,
        fit: ModelFit,
        warm_started: bool = False,
    ) -> None:
        full = (model_name, key, params_key)
        with self._lock:
            if warm_started:
                self.warm_starts += 1
            self._data[full] = fit
            self._data.move_to_end(full)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of demand lookups served from cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "warm_starts": self.warm_starts,
                "evictions": self.evictions,
                "size": len(self._data),
            }
