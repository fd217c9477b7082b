"""Shared fixtures for the experiment-service tests."""

from __future__ import annotations

import threading
from typing import Iterator

import pytest

from repro.service import executor
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


class HeldRuns:
    """Holds every run the daemon executes at its first checkpoint
    boundary until :meth:`release`.

    A held run is RUNNING, holds its worker and its broker slots, and
    has synced with the broker once, for as long as the test needs it
    to: tests that queue work behind a busy worker do not depend on
    how long a small simulated run takes.  A run waits at most
    ``timeout`` seconds, so a test that never releases fails on its own
    assertions instead of hanging.
    """

    def __init__(self, monkeypatch, timeout: float = 30.0) -> None:
        self.released = threading.Event()
        self.holding = threading.Semaphore(0)
        self.timeout = timeout
        for name in ("execute", "resume"):
            monkeypatch.setattr(
                executor, name, self._held(getattr(executor, name))
            )

    def _held(self, run):
        def held_run(store, exp_id, **kwargs):
            boundaries = []

            def on_checkpoint(state):
                boundaries.append(state)
                if len(boundaries) == 1:
                    self.holding.release()
                    self.released.wait(self.timeout)

            return run(store, exp_id, on_checkpoint=on_checkpoint, **kwargs)

        return held_run

    def wait_held(self, timeout: float = 60.0) -> None:
        """Block until one more run is held at its first boundary,
        past its broker admission."""
        assert self.holding.acquire(timeout=timeout), "no run was held"

    def release(self) -> None:
        self.released.set()


@pytest.fixture()
def held_runs(monkeypatch) -> Iterator[HeldRuns]:
    gate = HeldRuns(monkeypatch)
    yield gate
    gate.release()
