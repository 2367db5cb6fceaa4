"""The metrics registry: instruments, percentiles, snapshots."""

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    LOG_BUCKET_BOUNDS,
    MetricsRegistry,
    bucket_index,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert percentile(values, 50) == 0.5
        assert percentile(values, 95) == 1.0
        assert percentile(values, 99) == 1.0
        assert percentile(values, 100) == 1.0
        assert percentile(values, 0) == 0.1

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            percentile([1.0], 101)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("events_total")
        assert counter.inc() == 1.0
        assert counter.inc(2.0) == 3.0
        assert counter.value == 3.0

    def test_negative_delta_rejected(self):
        counter = MetricsRegistry().counter("events_total")
        with pytest.raises(ReproError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_value_and_peak(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(0.0, 2.0)
        gauge.set(0.1, 5.0)
        gauge.set(0.2, 1.0)
        assert gauge.value == 1.0
        assert gauge.peak == 5.0

    def test_out_of_order_sample_filed_by_stamp(self):
        """A late write with an earlier stamp counts toward the peak
        but does not replace the latest-stamped value; a write at the
        same stamp does (last write wins)."""
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(0.5, 3.0)
        gauge.set(0.2, 7.0)  # late arrival, earlier stamp
        assert (gauge.value, gauge.peak) == (3.0, 7.0)
        gauge.set(0.5, 2.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_observe_count_mean_max(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (0.1, 0.2, 0.3, 0.4):
            histogram.observe(value)
        assert histogram.values == [0.1, 0.2, 0.3, 0.4]
        assert histogram.total == pytest.approx(1.0)
        row = registry.snapshot()[0]
        assert (row["count"], row["max"], row["p50"]) == (4, 0.4, 0.2)

    def test_buckets_are_log_scale(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        histogram.observe(0.3)
        histogram.observe(0.3)
        histogram.observe(1e9)  # overflow bucket
        buckets = registry.snapshot()[0]["buckets"]
        assert buckets[0] == [0.5, 2]
        assert buckets[-1] == [None, 1]

    def test_empty_statistics_rejected(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        with pytest.raises(ReproError):
            percentile(histogram.values, 50)
        row = registry.snapshot()[0]
        assert row["count"] == 0 and "max" not in row and "p50" not in row

    def test_bucket_index_covers_the_line(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(LOG_BUCKET_BOUNDS[0]) == 0
        assert bucket_index(LOG_BUCKET_BOUNDS[-1] + 1) == len(
            LOG_BUCKET_BOUNDS)


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("grants_total", reason="admission")
        b = registry.counter("grants_total", reason="admission")
        c = registry.counter("grants_total", reason="shrink")
        assert a is b
        assert a is not c
        assert len(registry) == 2

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("missing") is None
        assert len(registry) == 0

    def test_family_and_total(self):
        registry = MetricsRegistry()
        registry.counter("grants_total", reason="admission").inc(2)
        registry.counter("grants_total", reason="shrink").inc()
        assert len(registry.family("grants_total")) == 2
        assert registry.total("grants_total") == 3.0

    def test_snapshot_rows(self):
        registry = MetricsRegistry()
        registry.counter("done_total").inc()
        registry.gauge("depth").set(0.2, 4.0)
        histogram = registry.histogram("latency")
        histogram.observe(0.3)
        histogram.observe(1e9)
        rows = {row["name"]: row for row in registry.snapshot()}
        assert rows["done_total"]["value"] == 1.0
        assert rows["depth"]["value"] == 4.0
        latency = rows["latency"]
        assert latency["count"] == 2
        assert latency["p50"] == 0.3
        # The overflow bucket bound must be JSON-representable (null).
        assert latency["buckets"][-1][0] is None


class TestRenderProm:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("done_total", status="done").inc(3)
        registry.gauge("depth").set(0.2, 4.0)
        text = registry.render_prom()
        assert "# TYPE done_total counter" in text
        assert 'done_total{status="done"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 4" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        histogram.observe(0.3)
        histogram.observe(0.3)
        histogram.observe(1e9)  # +Inf bucket only
        text = registry.render_prom()
        assert 'latency_bucket{le="0.5"} 2' in text
        assert 'latency_bucket{le="1"} 2' in text  # cumulative
        assert 'latency_bucket{le="+Inf"} 3' in text
        assert "latency_count 3" in text
        assert "latency_sum 1000000000.6" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("x_total", op='a"b\\c\nd').inc()
        text = registry.render_prom()
        assert 'op="a\\"b\\\\c\\nd"' in text

    def test_families_sorted_and_empty_registry(self):
        registry = MetricsRegistry()
        registry.gauge("zz").set(0.0, 1.0)
        registry.counter("aa_total").inc()
        text = registry.render_prom()
        assert text.index("aa_total") < text.index("zz")
        assert MetricsRegistry().render_prom() == ""
