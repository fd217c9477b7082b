"""The Recorder facade: metrics + tracing + audit behind one handle.

Framework components take an optional ``recorder``; when none is given
they fall back to the shared :data:`NULL_RECORDER`, whose instruments
are all no-ops — an ``inc``/``observe``/``record``/``span`` on the
null recorder costs one attribute lookup and an empty method call, so
uninstrumented runs pay nothing measurable.  Call sites that would
*build* payloads (dicts of decision inputs) guard on
``recorder.enabled`` instead, so the disabled path skips even the
argument construction.

Typical wiring::

    exporter = Journal("events.jsonl")
    recorder = Recorder(exporter=exporter, trace=True)
    result = run_simulation(workload, policy, generator=g, spec=spec,
                            recorder=recorder)
    Path("metrics.txt").write_text(recorder.metrics.render_text())
    recorder.close()

The scheduler binds its experiment clock into the recorder at
construction time, so sim runs timestamp on simulated seconds and live
runs on scaled wall seconds without the caller doing anything.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .audit import NULL_AUDIT, AuditTrail, NullAuditTrail
from .exporters import EventExporter
from .metrics import MetricsRegistry
from .tracing import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = ["Recorder", "NullRecorder", "NULL_RECORDER"]


class Recorder:
    """Live observability context for one experiment run."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        exporter: Optional[EventExporter] = None,
        trace: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        # An injected registry lets a host (e.g. the service daemon)
        # surface this run's instruments on its own /metrics endpoint.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = SpanTracer(clock=clock, keep_spans=trace)
        self.audit = AuditTrail(clock=clock, exporter=exporter)
        self.exporter = exporter
        if trace and exporter is not None:
            self.tracer.on_span = self._export_span

    def _export_span(self, span: Span) -> None:
        assert self.exporter is not None
        self.exporter.export(span.to_dict())

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the experiment clock (sim time or scaled wall time)."""
        self.tracer.bind_clock(clock)
        self.audit.bind_clock(clock)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serialisable digest for ``ExperimentResult`` attachment."""
        kills = self.metrics.get("scheduler_kills_total")
        kills_by_reason: Dict[str, float] = {}
        if kills is not None:
            for labels, value in kills.samples():  # type: ignore[union-attr]
                kills_by_reason[labels.get("reason", "unknown")] = value
        return {
            "metrics": self.metrics.to_dict(),
            "spans": self.tracer.summary(),
            "audit_events": len(self.audit.records),
            "kills_by_reason": kills_by_reason,
        }

    def close(self) -> None:
        """Flush the exporter (idempotent)."""
        if self.exporter is not None:
            self.exporter.close()


class _NullInstrument:
    """Stands in for Counter, Gauge, and Histogram when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def collect_from(self, source: Any) -> None:
        pass

    def bucket(self, **labels: Any) -> "_NullBucket":
        return _NULL_BUCKET


class _NullBucket(list):
    """A histogram bucket that keeps nothing."""

    def append(self, value: Any) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_BUCKET = _NullBucket()


class _NullMetricsRegistry:
    """Hands out shared no-op instruments."""

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", **kwargs: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def render_text(self) -> str:
        return ""

    def to_dict(self) -> Dict[str, Any]:
        return {}


class NullRecorder:
    """Observability disabled: every operation is a cheap no-op."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = _NullMetricsRegistry()
        self.tracer: NullTracer = NULL_TRACER
        self.audit: NullAuditTrail = NULL_AUDIT
        self.exporter = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        pass


#: Shared default recorder: observability off.
NULL_RECORDER = NullRecorder()
