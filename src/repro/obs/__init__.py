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

See ``docs/observability.md`` for the metric and span schemas.
"""
