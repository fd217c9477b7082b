"""Span tracing on the experiment clock.

A span wraps one hot operation — an MCMC/least-squares curve fit, a
``process_epoch`` call, a snapshot capture — and records *two* time
axes:

* ``start``/``end`` on the **experiment clock** (simulated seconds in
  the sim backend, scaled wall seconds in the live runtime), so span
  placement lines up with the scheduler's own timeline and §5.2's
  overlap-of-prediction behaviour is directly measurable; and
* ``wall_seconds``, measured with ``time.perf_counter``, the genuine
  compute cost of the operation (the simulated clock does not advance
  during a Python call).

The tracer keeps a bounded in-memory list of finished spans and offers
a per-name :meth:`SpanTracer.summary`.  An optional ``on_span`` hook
fires for every finished span (the :class:`~repro.observability.recorder.Recorder`
uses it to stream spans to the event exporter).  A tracer that neither
keeps nor exports spans only counts them: each span feeds the summary
and builds no :class:`Span`, ids or trace context.

Trace propagation
-----------------

Every span belongs to a **trace**: opening a span while another is
active (same thread) inherits the parent's ``trace_id`` and records the
parent's ``span_id`` as ``parent_id``; opening one with no active
parent mints a fresh trace id.  The active context is thread-local, so
concurrent driver threads each carry their own trace.

Crossing a process boundary is explicit: the sender captures
:func:`current_trace` and ships its ``to_dict()`` inside the message
envelope; the receiver re-activates it with :func:`trace_context`
around the handler, and every span opened inside joins the sender's
trace.  The cluster runtime uses exactly this to stitch
head-scheduler → worker-epoch → head-settlement spans into one trace
per epoch (see ``docs/observability.md``).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceContext",
    "current_trace",
    "trace_context",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char id (64 random bits — plenty for one run)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The active trace position: which trace, which enclosing span."""

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        """Wire form for message envelopes."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, wire: Optional[Dict[str, Any]]) -> Optional["TraceContext"]:
        """Rebuild from an envelope field; None if absent/empty."""
        if not wire or not wire.get("trace_id"):
            return None
        return cls(
            trace_id=str(wire["trace_id"]),
            span_id=str(wire.get("span_id") or ""),
        )


_ACTIVE = threading.local()


def current_trace() -> Optional[TraceContext]:
    """The calling thread's active trace context (None outside spans)."""
    return getattr(_ACTIVE, "context", None)


@contextmanager
def trace_context(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Activate ``context`` for the calling thread (message receivers
    wrap their handler in this so local spans join the sender's trace)."""
    previous = current_trace()
    _ACTIVE.context = context
    try:
        yield context
    finally:
        _ACTIVE.context = previous


@dataclass
class Span:
    """One finished (or in-flight) traced operation."""

    name: str
    start: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    end: Optional[float] = None
    wall_seconds: float = 0.0
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def set(self, **attributes: Any) -> None:
        """Attach attributes mid-span (e.g. a result size)."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        """Experiment-clock duration (0 for instantaneous sim spans)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "wall_seconds": self.wall_seconds,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
        }


class _ActiveSpan:
    """Context manager driving one span's lifetime."""

    __slots__ = ("_tracer", "span", "_wall_start", "_previous")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._wall_start = 0.0
        self._previous: Optional[TraceContext] = None

    def set(self, **attributes: Any) -> None:
        self.span.set(**attributes)

    def __enter__(self) -> "_ActiveSpan":
        self._wall_start = time.perf_counter()
        span = self.span
        parent = current_trace()
        self._previous = parent
        if span.trace_id is None:
            if parent is not None:
                span.trace_id = parent.trace_id
                span.parent_id = parent.span_id or None
            else:
                span.trace_id = new_trace_id()
        span.span_id = new_trace_id()
        _ACTIVE.context = TraceContext(span.trace_id, span.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        span.wall_seconds = time.perf_counter() - self._wall_start
        span.end = self._tracer._now()
        if exc_type is not None:
            span.attributes["error"] = exc_type.__name__
        _ACTIVE.context = self._previous
        self._tracer._finish(span)
        return False


class _CountingSpan:
    """A span nobody keeps or exports: it times itself into the
    tracer's summary, the same count and seconds an :class:`_ActiveSpan`
    adds, and nothing else."""

    __slots__ = ("_tracer", "_name", "_start", "_wall_start")

    def __init__(self, tracer: "SpanTracer", name: str, start: float) -> None:
        self._tracer = tracer
        self._name = name
        self._start = start
        self._wall_start = 0.0

    def set(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_CountingSpan":
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall_start
        tracer = self._tracer
        tracer._count(self._name, wall, tracer._now() - self._start)
        return False


class SpanTracer:
    """Records spans against an injected experiment clock."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        keep_spans: bool = True,
        max_spans: int = 200_000,
        on_span: Optional[Callable[[Span], None]] = None,
    ) -> None:
        self._clock = clock
        self.keep_spans = keep_spans
        self.max_spans = max_spans
        self.on_span = on_span
        self.spans: List[Span] = []
        self._summary: Dict[str, Dict[str, float]] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Late clock injection (the scheduler owns the clock)."""
        self._clock = clock

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def span(
        self, name: str, **attributes: Any
    ) -> Union[_ActiveSpan, _CountingSpan]:
        """Open a span; use as a context manager."""
        if not self.keep_spans and self.on_span is None:
            return _CountingSpan(self, name, self._now())
        return _ActiveSpan(
            self, Span(name=name, start=self._now(), attributes=attributes)
        )

    def stats(self, name: str) -> Dict[str, float]:
        """The summary entry of ``name``: a caller that times a hot
        operation itself adds its count and seconds here directly,
        which is what an unkept span would add."""
        stats = self._summary.get(name)
        if stats is None:
            stats = self._summary[name] = {
                "count": 0.0,
                "wall_seconds": 0.0,
                "experiment_seconds": 0.0,
            }
        return stats

    def _count(self, name: str, wall: float, experiment: float) -> None:
        stats = self.stats(name)
        stats["count"] += 1
        stats["wall_seconds"] += wall
        stats["experiment_seconds"] += experiment

    def _finish(self, span: Span) -> None:
        self._count(span.name, span.wall_seconds, span.duration)
        if self.keep_spans and len(self.spans) < self.max_spans:
            self.spans.append(span)
        if self.on_span is not None:
            self.on_span(span)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: count, wall seconds, experiment seconds."""
        return {
            name: dict(stats)
            for name, stats in sorted(self._summary.items())
            if stats["count"]
        }


class _NullSpan:
    """Do-nothing span; shared singleton so disabled tracing costs one
    attribute lookup and two no-op method calls."""

    __slots__ = ()

    def set(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer used when observability is disabled."""

    enabled = False
    spans: List[Span] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {}


NULL_TRACER = NullTracer()
