"""Unit tests for the metrics registry and its exposition formats."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.export import (
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.registry import MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        c = MetricsRegistry().counter("ops_total", "ops")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("ops_total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"k": "1"})
        b = registry.counter("x_total", labels={"k": "1"})
        c = registry.counter("x_total", labels={"k": "2"})
        assert a is b
        assert a is not c

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing")

    def test_set_function_is_read_by_every_reader(self):
        registry = MetricsRegistry()
        tally = [3]
        registry.counter("owned_total", "kept by its owner").set_function(
            lambda: tally[0]
        )
        tally[0] = 7
        assert registry.value("owned_total") == 7
        assert registry.total("owned_total") == 7
        assert registry.snapshot()[0]["value"] == 7
        text = render_prometheus(registry)
        assert "# TYPE owned_total counter" in text
        assert parse_prometheus(text)["owned_total"][""] == 7
        registry.reset()  # the owner's tally is not the registry's
        assert registry.value("owned_total") == 7


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.current() == 7

    def test_set_function_wins(self):
        g = MetricsRegistry().gauge("live")
        g.set(1)
        g.set_function(lambda: 42)
        assert g.current() == 42


class TestHistogramBucketEdges:
    """Prometheus ``le`` semantics: value == bound lands in that bucket."""

    def test_observation_equal_to_bound(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)
        assert h.counts == [0, 1, 0, 0]

    def test_observation_between_bounds(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5)
        assert h.counts == [0, 1, 0, 0]

    def test_observation_above_last_bound_goes_to_inf(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(100.0)
        assert h.counts == [0, 0, 0, 1]

    def test_cumulative_ends_at_inf(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 99.0):
            h.observe(v)
        assert h.cumulative() == [(1.0, 2), (2.0, 3), (float("inf"), 4)]
        assert h.sum == pytest.approx(102.0)
        assert h.count == 4

    def test_bounds_must_be_strictly_ascending(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("bad2", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("bad3", buckets=())


class TestSnapshotReset:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        return registry

    def test_snapshot_shape(self):
        snap = self._populated().snapshot()
        by_name = {record["name"]: record for record in snap}
        assert by_name["c_total"]["value"] == 3
        assert by_name["g"]["value"] == 7
        assert by_name["h"]["count"] == 1
        assert by_name["h"]["buckets"][-1]["le"] == "+Inf"

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = self._populated()
        registry.reset()
        assert len(registry) == 3
        assert registry.value("c_total") == 0
        assert registry.value("g") == 0
        assert registry.get("h").count == 0

    def test_total_sums_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("s_total", labels={"scheme": "a"}).inc(2)
        registry.counter("s_total", labels={"scheme": "b"}).inc(3)
        assert registry.total("s_total") == 5
        assert registry.total("missing", default=-1) == -1


class TestPrometheusExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", labels={"mode": "icp"}).inc(
            9
        )
        registry.gauge("depth", "queue depth").set(2)
        registry.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(registry)
        assert '# TYPE reqs_total counter' in text
        assert '# HELP reqs_total requests' in text
        parsed = parse_prometheus(text)
        assert parsed["reqs_total"]['mode="icp"'] == 9
        assert parsed["depth"][""] == 2
        assert parsed["lat_seconds_bucket"]['le="0.1"'] == 0
        assert parsed["lat_seconds_bucket"]['le="1"'] == 1
        assert parsed["lat_seconds_bucket"]['le="+Inf"'] == 1
        assert parsed["lat_seconds_count"][""] == 1

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"url": 'a"b\\c'}).inc()
        text = render_prometheus(registry)
        assert 'url="a\\"b\\\\c"' in text

    def test_render_json(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        doc = json.loads(render_json(registry, workload="upisa"))
        assert doc["workload"] == "upisa"
        assert doc["metrics"][0]["name"] == "c_total"
        assert doc["metrics"][0]["value"] == 2
