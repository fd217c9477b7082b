"""Hyperparameter Generator (HG) interface.

Matches the pluggable API in §4.2 of the paper::

    create_job()  -> (job_id, hyperparameters)
    report_final_performance(job_id, performance)

Random and grid HGs never use the report call; adaptive generators
(Bayesian optimisation) condition future proposals on it.
"""

from __future__ import annotations

import abc
import itertools
from typing import Any, Dict, List, Optional, Tuple

from .space import SearchSpace

__all__ = ["HyperparameterGenerator", "ExhaustedSpaceError"]


class ExhaustedSpaceError(RuntimeError):
    """Raised by ``create_job`` when the generator has no more points."""


class HyperparameterGenerator(abc.ABC):
    """Base class for all HGs.

    Subclasses implement :meth:`_propose`; this base assigns job ids
    and records proposals so reported performance can be matched back
    to the configuration that produced it.
    """

    def __init__(self, space: SearchSpace) -> None:
        self.space = space
        self._counter = itertools.count()
        self._proposed: Dict[str, Dict[str, Any]] = {}
        self._reported: Dict[str, float] = {}

    @abc.abstractmethod
    def _propose(self) -> Dict[str, Any]:
        """Produce the next configuration to try."""

    def create_job(self) -> Tuple[str, Dict[str, Any]]:
        """Mint a new (job_id, configuration) pair."""
        config = self._propose()
        self.space.validate(config)
        job_id = f"job-{next(self._counter):04d}"
        self._proposed[job_id] = dict(config)
        return job_id, dict(config)

    def create_jobs(self, count: int) -> List[Tuple[str, Dict[str, Any]]]:
        """Mint up to ``count`` jobs, fewer if the space runs out first."""
        jobs = []
        for _ in range(count):
            try:
                jobs.append(self.create_job())
            except ExhaustedSpaceError:
                break
        return jobs

    def report_final_performance(self, job_id: str, performance: float) -> None:
        """Feed back the final model performance of a finished job."""
        if job_id not in self._proposed:
            raise KeyError(f"unknown job id {job_id!r}")
        self._reported[job_id] = float(performance)
        self._observe(self._proposed[job_id], float(performance))

    def _observe(self, config: Dict[str, Any], performance: float) -> None:
        """Hook for adaptive generators; no-op by default."""

    @property
    def num_proposed(self) -> int:
        return len(self._proposed)

    @property
    def num_reported(self) -> int:
        return len(self._reported)

    def configuration_of(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The configuration proposed under ``job_id``, if any."""
        config = self._proposed.get(job_id)
        return dict(config) if config is not None else None
