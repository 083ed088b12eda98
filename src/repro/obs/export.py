"""Render a :class:`~repro.obs.registry.MetricsRegistry` for consumers.

Two formats:

- :func:`render_prometheus` -- the Prometheus text exposition format
  (version 0.0.4), what ``GET /metrics`` serves: ``# HELP`` / ``# TYPE``
  preambles, one sample line per label set, histograms expanded into
  cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
- :func:`render_json` -- a JSON document carrying the same snapshot
  (``GET /metrics?format=json`` and the ``summary-cache metrics``
  subcommand).
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional

from repro.errors import ProtocolError
from repro.obs.registry import Histogram, MetricsRegistry

#: Content type of the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(
    labels: Dict[str, str], extra: Optional[Dict[str, str]] = None
) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # The exposition format spells non-finite values '+Inf'/'-Inf'/'NaN';
    # Python's repr() forms ('inf', '-inf', 'nan') are not valid samples.
    if math.isnan(value):
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition format."""
    lines: List[str] = []
    seen_preamble = set()
    for metric in registry.collect():
        if metric.name not in seen_preamble:
            seen_preamble.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for bound, count in metric.cumulative():
                labels = _format_labels(
                    metric.labels, {"le": _format_value(bound)}
                )
                lines.append(f"{metric.name}_bucket{labels} {count}")
            base = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}_sum{base} {_format_value(metric.sum)}"
            )
            lines.append(f"{metric.name}_count{base} {metric.count}")
        else:
            labels = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}{labels} {_format_value(metric.current())}"
            )
    return "\n".join(lines) + "\n"


def render_json(registry: MetricsRegistry, **extra: object) -> str:
    """The registry snapshot as a JSON document.

    Keyword arguments are merged into the top-level object (the proxy
    adds its name/mode; the CLI adds the experiment parameters).
    """
    return json.dumps(
        {"metrics": registry.snapshot(), **extra},
        sort_keys=True,
        default=str,
    )


#: One sample line: ``name{labels} value [timestamp]``.  The label body
#: is matched greedily up to the *last* closing brace before the value,
#: so label values containing spaces, escaped quotes, or ``}`` (all
#: legal once escaped per the exposition format) cannot mis-split the
#: line the way a naive ``rpartition(" ")`` does.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text back into ``{name: {labelstr: value}}``.

    A deliberately small inverse of :func:`render_prometheus`, used by
    the tests and the cluster aggregator's text-scrape path; it
    understands the subset this module emits plus optional trailing
    integer timestamps.  The label string is kept verbatim (escapes
    included) so round-tripping a rendered registry is exact.  A sample
    line that does not parse raises
    :class:`~repro.errors.ProtocolError`.
    """
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ProtocolError(f"malformed exposition sample {line!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ProtocolError(
                f"malformed sample value in {line!r}"
            ) from exc
        labels = match.group("labels") or ""
        out.setdefault(match.group("name"), {})[labels] = value
    return out
