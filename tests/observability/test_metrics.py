"""Unit tests for the zero-dependency metrics registry."""

from __future__ import annotations

import json

import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_value,
    normalize_name,
)


class TestNormalizeName:
    def test_dots_and_dashes_become_underscores(self):
        assert normalize_name("scheduler.kills-total") == "scheduler_kills_total"

    def test_valid_name_passes_through(self):
        assert normalize_name("epoch_duration_seconds") == "epoch_duration_seconds"

    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            normalize_name("bad name!")


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("c")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)

    def test_labels_track_independent_series(self):
        c = Counter("kills")
        c.inc(reason="poor")
        c.inc(reason="poor")
        c.inc(reason="confidence")
        assert c.value(reason="poor") == 2.0
        assert c.value(reason="confidence") == 1.0
        assert c.total == 3.0

    def test_negative_increment_rejected(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_label_order_does_not_matter(self):
        c = Counter("c")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1.0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("g")
        g.set(4.0)
        g.inc(1.0)
        g.dec(2.5)
        assert g.value() == pytest.approx(2.5)

    def test_gauge_can_go_negative(self):
        g = Gauge("g")
        g.dec(3.0)
        assert g.value() == -3.0


class TestHistogram:
    def test_count_and_sum(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(6.0)

    def test_quantiles_exact_on_known_data(self):
        h = Histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        # Linear interpolation on the sorted samples:
        # position = q * (n - 1), n = 100.
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(100.0)
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.9) == pytest.approx(90.1)

    def test_quantile_interpolates_between_samples(self):
        h = Histogram("h")
        h.observe(0.0)
        h.observe(10.0)
        assert h.quantile(0.25) == pytest.approx(2.5)

    def test_quantile_of_empty_histogram_is_nan(self):
        import math

        h = Histogram("h")
        assert math.isnan(h.quantile(0.5))

    def test_quantile_bounds_checked(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_observations_after_quantile_are_included(self):
        # quantile() sorts lazily; make sure later observations are not
        # lost to a stale sorted cache.
        h = Histogram("h")
        h.observe(1.0)
        assert h.quantile(1.0) == 1.0
        h.observe(9.0)
        assert h.quantile(1.0) == 9.0


    def test_two_reads_of_an_unchanged_registry_are_equal(self):
        # The sum is taken in observation order: a quantile read (which
        # sorts a copy) must not change what a later read sums.
        reg = MetricsRegistry()
        h = reg.histogram("h")
        values = [0.1 * (7 * i % 13) + 1e-3 * i for i in range(200)]
        for v in values:
            h.observe(v)
        first, text = reg.to_dict(), reg.render_text()
        assert reg.to_dict() == first
        assert reg.render_text() == text
        assert first["h"]["samples"][0]["sum"] == float(sum(values))
        assert h.sum() == float(sum(values))

    def test_the_sum_is_taken_in_observation_order(self):
        # Summed sorted, these read 0.0 instead of 1.0 (where ``sum``
        # adds left to right, as before Python 3.12).
        h = Histogram("h")
        values = [1e16, 1.0, -1e16, 1.0]
        for v in values:
            h.observe(v)
        h.quantile(0.5)
        assert h.sum() == sum(values)
        assert h.to_dict()["samples"][0]["sum"] == sum(values)
        assert h.render()[-1] == f"h_sum {format_value(sum(values))}"

    def test_a_bound_bucket_is_the_observation_list(self):
        h = Histogram("h")
        bucket = h.bucket(phase="fit")
        assert h.to_dict()["samples"] == []  # bound, not yet a sample
        assert h.render()[-2:] == ["h_count 0", "h_sum 0"]
        bucket.extend([3.0, 1.0])
        assert h.count(phase="fit") == 2 and h.quantile(0.0, phase="fit") == 1.0
        bucket.append(0.5)
        assert h.quantile(0.0, phase="fit") == 0.5
        assert h.bucket(phase="fit") is bucket


class TestViews:
    def test_a_view_reads_its_source_at_every_read(self):
        state = {"epochs": 0}
        c = Counter("epochs")
        c.collect_from(lambda: {(): state["epochs"]} if state["epochs"] else {})
        assert c.samples() == [] and c.render()[-1] == "epochs 0"
        state["epochs"] = 3
        assert c.value() == 3.0 and isinstance(c.value(), float)
        assert c.to_dict()["samples"] == [{"labels": {}, "value": 3.0}]

    def test_sources_merge_as_if_each_wrote_in_turn(self):
        c, g = Counter("c"), Gauge("g")
        for source in ({(("to", "run"),): 2}, {(("to", "run"),): 1,
                                                (("to", "end"),): 4}):
            c.collect_from(lambda source=source: source)
        assert c.samples() == [({"to": "run"}, 3.0), ({"to": "end"}, 4.0)]
        g.collect_from(lambda: {(): 1, (("k", "a"),): 7})
        g.collect_from(lambda: {(): 2})
        assert g.value() == 2.0 and g.value(k="a") == 7.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("scheduler.kills_total")
        b = reg.counter("scheduler_kills_total")
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_render_text_exposition(self):
        reg = MetricsRegistry()
        kills = reg.counter("scheduler.kills_total", help="Kills by reason")
        kills.inc(reason="poor")
        ratio = reg.gauge("slots.promising_ratio")
        ratio.set(0.75)
        fits = reg.histogram("predictor.fit_seconds")
        fits.observe(0.25)
        text = reg.render_text()
        assert "# TYPE scheduler_kills_total counter" in text
        assert 'scheduler_kills_total{reason="poor"} 1' in text
        assert "slots_promising_ratio 0.75" in text
        assert "# TYPE predictor_fit_seconds summary" in text
        assert 'predictor_fit_seconds{quantile="0.5"} 0.25' in text
        assert "predictor_fit_seconds_count 1" in text
        assert "predictor_fit_seconds_sum 0.25" in text
        assert text.endswith("\n")

    def test_to_dict_is_json_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        json.dumps(reg.to_dict())
