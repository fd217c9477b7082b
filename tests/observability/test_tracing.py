"""Unit tests for the span tracer."""

from __future__ import annotations

import re

import pytest

from repro.observability.tracing import NULL_TRACER, NullTracer, SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSpanTracer:
    def test_span_records_experiment_clock_interval(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("fit", backend="ls"):
            clock.now = 3.0
        (span,) = tracer.spans
        assert span.name == "fit"
        assert span.start == 0.0
        assert span.end == 3.0
        assert span.duration == 3.0
        assert span.attributes == {"backend": "ls"}
        assert span.wall_seconds >= 0.0

    def test_bind_clock_late(self):
        tracer = SpanTracer()
        clock = FakeClock()
        clock.now = 7.0
        tracer.bind_clock(clock)
        with tracer.span("op"):
            pass
        assert tracer.spans[0].start == 7.0

    def test_set_attaches_attributes_mid_span(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("op") as span:
            span.set(n=4)
        assert tracer.spans[0].attributes["n"] == 4

    def test_exception_recorded_and_propagated(self):
        tracer = SpanTracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        assert tracer.spans[0].attributes["error"] == "RuntimeError"

    def test_summary_aggregates_per_name(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        for _ in range(3):
            with tracer.span("fit"):
                clock.now += 2.0
        with tracer.span("snapshot"):
            pass
        summary = tracer.summary()
        assert summary["fit"]["count"] == 3
        assert summary["fit"]["experiment_seconds"] == pytest.approx(6.0)
        assert summary["snapshot"]["count"] == 1

    def test_keep_spans_false_still_summarises(self):
        tracer = SpanTracer(clock=FakeClock(), keep_spans=False)
        with tracer.span("op"):
            pass
        assert tracer.spans == []
        assert tracer.summary()["op"]["count"] == 1

    def test_counting_span_summarises_like_a_kept_span(self):
        """A tracer that neither keeps nor exports builds no Span, ids
        or trace context, and its summary holds the same count and
        experiment seconds as a keeping tracer fed the same spans."""
        from repro.observability.tracing import current_trace

        clocks = {"kept": FakeClock(), "counted": FakeClock()}
        tracers = {
            "kept": SpanTracer(clock=clocks["kept"]),
            "counted": SpanTracer(clock=clocks["counted"], keep_spans=False),
        }
        steps = [0.1, 2.5, 0.0, 1e-3, 7.25, 0.3]
        for side, tracer in tracers.items():
            clock = clocks[side]
            for index, step in enumerate(steps):
                clock.now += 0.7  # the clock moves between spans too
                with tracer.span("op" if index % 3 else "fit", n=index) as span:
                    span.set(step=step)
                    if side == "counted":
                        assert current_trace() is None
                    clock.now += step
        kept = tracers["kept"].summary()
        counted = tracers["counted"].summary()
        assert tracers["counted"].spans == []
        assert counted.keys() == kept.keys()
        for name in kept:
            assert counted[name]["count"] == kept[name]["count"]
            assert (
                counted[name]["experiment_seconds"]
                == kept[name]["experiment_seconds"]
            )

    def test_max_spans_bounds_memory(self):
        tracer = SpanTracer(clock=FakeClock(), max_spans=2)
        for _ in range(5):
            with tracer.span("op"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.summary()["op"]["count"] == 5

    def test_on_span_hook_fires(self):
        seen = []
        tracer = SpanTracer(clock=FakeClock(), on_span=seen.append)
        with tracer.span("op"):
            pass
        assert len(seen) == 1
        assert seen[0].to_dict()["kind"] == "span"

    def test_ids_are_16_hex_and_distinct(self):
        tracer = SpanTracer(clock=FakeClock())
        n = 10_000
        for _ in range(n):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        spans = tracer.spans
        assert len(spans) == 2 * n
        id_format = re.compile(r"^[0-9a-f]{16}$")
        span_ids = {span.span_id for span in spans}
        trace_ids = {span.trace_id for span in spans}
        assert all(id_format.match(i) for i in span_ids | trace_ids)
        assert len(span_ids) == 2 * n
        assert len(trace_ids) == n  # one per root; children inherit it
        # A child joins its root's trace under a fresh span id.
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name == "child":
                parent = by_id[span.parent_id]
                assert parent.name == "root"
                assert parent.trace_id == span.trace_id


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", a=1) as span:
            span.set(b=2)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.summary() == {}

    def test_null_span_is_shared_singleton(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")
