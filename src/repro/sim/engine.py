"""Discrete-event simulation core (§7.1's Simulator Engine).

A minimal, deterministic event queue: callbacks scheduled at simulated
times, executed in (time, insertion-order) order.  Determinism matters
— the sensitivity studies compare policies on identical event
sequences, and the engine guarantees ties break by insertion order.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..observability import NULL_RECORDER

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """A simulated clock plus an ordered callback queue.

    Args:
        recorder: observability facade; when live, the engine's
            dispatched events (``sim_events_total``) and its queue depth
            at the last dispatch (``sim_queue_depth``) are views, so run
            loops are inspectable at no per-event metric call.
    """

    def __init__(self, recorder=None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._scheduled = 0  # events ever queued; also the tie-breaker
        self._depth = 0  # heap size right after the last dispatch
        self._stopped = False
        metrics = (recorder if recorder is not None else NULL_RECORDER).metrics
        metrics.counter(
            "sim_events_total", help="Simulator callbacks dispatched"
        ).collect_from(
            lambda: {(): self.dispatched} if self.dispatched else {}
        )
        metrics.gauge(
            "sim_queue_depth", help="Pending events in the simulator heap"
        ).collect_from(lambda: {(): self._depth} if self.dispatched else {})

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def dispatched(self) -> int:
        """Callbacks run so far: every event queued and no longer pending."""
        return self._scheduled - len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds.

        Raises:
            ValueError: on negative delays — time travel in the event
                queue silently corrupts causality, so it is rejected.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._scheduled += 1
        heapq.heappush(
            self._heap, (self._now + delay, self._scheduled, callback)
        )

    def stop(self) -> None:
        """Abort the run loop after the current callback returns."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Process events until the queue drains, ``until`` passes, or
        ``stop_when`` turns true.

        Args:
            until: simulated-time horizon; events after it stay queued.
            stop_when: checked before each event.

        Returns:
            The simulated time when the loop ended.
        """
        self._stopped = False
        while self._heap and not self._stopped:
            if stop_when is not None and stop_when():
                break
            event_time, _, callback = self._heap[0]
            if until is not None and event_time > until:
                self._now = until
                break
            heapq.heappop(self._heap)
            self._now = event_time
            self._depth = len(self._heap)
            callback()
        return self._now
