"""End-to-end observability: metrics registry, span ring, exporters.

The measurement layer the rest of the reproduction reports through:

- :mod:`repro.obs.registry` -- counters, gauges and fixed-bucket
  histograms, held by a :class:`MetricsRegistry` that one owner builds
  (a proxy, or one ``summary-cache metrics`` run);
- :mod:`repro.obs.spans` -- request-scoped distributed tracing: spans,
  the per-proxy span ring behind ``GET /trace``, and the
  ``X-SC-Trace``/ICP-Options context propagation model;
- :mod:`repro.obs.cluster` -- the cluster aggregator fusing every
  proxy's ``/metrics`` + ``/trace`` into one snapshot and reassembling
  cross-proxy traces (``summary-cache obs``);
- :mod:`repro.obs.export` -- Prometheus text / JSON rendering (what the
  proxy's ``GET /metrics`` endpoint and ``summary-cache metrics``
  serve);
- :mod:`repro.obs.logconfig` -- the shared structured-logging setup
  behind the CLI's ``--verbose`` flag.

(:mod:`repro.obs.cluster` is not imported here: it drives the proxy
client, and the proxy package imports this one.)

See ``docs/observability.md`` for the metric and span schemas.
"""

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.logconfig import configure_logging
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import (
    NULL_SPAN_RING,
    TRACE_HEADER,
    NullSpanRing,
    Span,
    SpanRing,
    format_id,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN_RING",
    "NullSpanRing",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "SpanRing",
    "TRACE_HEADER",
    "format_id",
    "configure_logging",
    "parse_prometheus",
    "render_json",
    "render_prometheus",
]
