"""Observability: metrics, span tracing, and the decision audit trail.

The paper's contribution is a *decision process* — POP classification,
ERT, dynamic confidence thresholds (§3), prediction overlapped with
training (§5.2) — and this package makes those decisions inspectable:

* :mod:`~repro.observability.metrics` — an in-process metrics registry
  (counters, gauges, quantile histograms) with Prometheus-style text
  exposition and JSON export.
* :mod:`~repro.observability.tracing` — spans on the experiment clock
  wrapping hot operations (curve fits, ``process_epoch``,
  suspend/resume), with genuine wall-time costs alongside.
* :mod:`~repro.observability.audit` — the decision audit trail: every
  SAP decision and POP classification, with the inputs that produced
  it, streamed as JSONL through a pluggable exporter.
* :mod:`~repro.observability.journal` — the one append-only JSONL file
  (:class:`Journal`) every trail and journal is written and read through.
* :mod:`~repro.observability.recorder` — the facade the framework
  threads through; the :data:`NULL_RECORDER` default makes all of it
  free when unused.

See ``docs/observability.md`` for the metric catalogue and event
schema.
"""

from .audit import AuditRecord, AuditTrail, NullAuditTrail, NULL_AUDIT
from .exporters import EventExporter, InMemoryExporter
from .journal import Journal
from .aggregator import TelemetryAggregator
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import NULL_RECORDER, NullRecorder, Recorder
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    TraceContext,
    current_trace,
    new_trace_id,
    trace_context,
)

__all__ = [
    "AuditRecord",
    "AuditTrail",
    "Counter",
    "EventExporter",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "Journal",
    "MetricsRegistry",
    "NULL_AUDIT",
    "NULL_RECORDER",
    "NULL_TRACER",
    "NullAuditTrail",
    "NullRecorder",
    "NullTracer",
    "Recorder",
    "Span",
    "SpanTracer",
    "TelemetryAggregator",
    "TraceContext",
    "current_trace",
    "new_trace_id",
    "trace_context",
]
