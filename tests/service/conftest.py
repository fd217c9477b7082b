"""Shared fixtures for the experiment-service tests."""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.service.store import RunStore
from repro.service.submission import Submission


@pytest.fixture()
def store(tmp_path) -> Iterator[RunStore]:
    store = RunStore(tmp_path / "runs")
    yield store
    store.close()


@pytest.fixture()
def small_submission() -> Submission:
    """A sim experiment small enough for test-speed end-to-end runs."""
    return Submission(
        workload="cifar10",
        policy="bandit",
        configs=6,
        machines=2,
        seed=1,
        checkpoint_every=5,
    )
