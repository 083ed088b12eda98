"""Cluster-wide observability: fused snapshots and trace reassembly.

A cooperating cluster has no single process that sees the paper's
accounting whole: false hits, remote hits, and inter-proxy message
overhead are relations between events on *different* proxies.  This
module closes that gap by scraping every proxy's ``GET /metrics``
(Prometheus text) and ``GET /trace`` (span-ring JSON), fusing them into
one :class:`ClusterSnapshot` keyed by proxy name.  From the snapshot:

- :meth:`ClusterSnapshot.traces` reassembles cross-proxy traces -- all
  spans sharing one trace id, regardless of which proxy's ring retained
  them -- so a client request on proxy A lines up with the
  ``icp.query`` it caused on proxy B and the ``peer.serve`` that
  answered the fetch;
- :meth:`ClusterSnapshot.false_hit_attribution` compares each proxy's
  *measured* false-hit ratio (the resolution of its SC-ICP query
  rounds) against the *predicted* Fig. 4 false-positive rate its own
  summary advertises at its live geometry and occupancy -- the signal a
  self-tuning summary (ROADMAP item 5) would act on.

The scraper is the proxy's own HTTP client driver, so everything here
works against any cluster the prototype can boot -- in-process test
clusters and ``summary-cache serve`` processes alike.  Scrapes send no
trace context of their own (``send_trace=False``): observing the rings
must not write to them.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.obs.export import parse_prometheus
from repro.proxy.client import ClientDriver


@dataclass
class ProxySnapshot:
    """One proxy's scraped state: metrics plus its span ring."""

    name: str
    host: str
    port: int
    #: ``{metric_name: {label_string: value}}`` from the text scrape.
    metrics: Dict[str, Dict[str, float]]
    #: JSON-ready span dicts, oldest first (``Span.as_dict`` shape).
    spans: List[Dict[str, Any]] = field(default_factory=list)
    trace_enabled: bool = True
    trace_ring_dropped: int = 0
    trace_ring_capacity: int = 0
    #: The summary every lookup decision used: ``representation`` and,
    #: for Bloom summaries, ``num_bits``/``num_hashes``/``load_factor``.
    summary: Dict[str, Any] = field(default_factory=dict)

    def metric(self, name: str, labels: str = "") -> float:
        """One sample value, 0.0 when the proxy never emitted it."""
        return self.metrics.get(name, {}).get(labels, 0.0)

    def metric_total(self, name: str) -> float:
        """Sum of a metric across its label sets."""
        return sum(self.metrics.get(name, {}).values())


@dataclass
class FalseHitAttribution:
    """Measured vs predicted false-hit accounting for one proxy.

    ``measured_ratio`` is the fraction of this proxy's hit-promising
    query rounds that resolved to nobody actually holding the document
    (``false_hits / (false_hits + remote_hits + fetch_failures)``).
    ``predicted_fp_rate`` is the Fig. 4 false-positive probability this
    proxy's *own* summary advertises at its live geometry and occupancy
    -- the rate its peers should experience against it.  Comparing the
    cluster-wide measured ratio with the mean prediction closes the
    paper's Section III loop on live traffic.
    """

    proxy: str
    representation: str
    measured_ratio: float
    predicted_fp_rate: float
    false_hits: int
    remote_hits: int
    fetch_failures: int

    @property
    def rounds(self) -> int:
        """Hit-promising query rounds this proxy resolved."""
        return self.false_hits + self.remote_hits + self.fetch_failures

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "proxy": self.proxy,
            "representation": self.representation,
            "measured_false_hit_ratio": self.measured_ratio,
            "predicted_fp_rate": self.predicted_fp_rate,
            "false_hits": self.false_hits,
            "remote_hits": self.remote_hits,
            "fetch_failures": self.fetch_failures,
            "rounds": self.rounds,
        }


@dataclass
class ClusterSnapshot:
    """Every proxy's scrape, fused and keyed by proxy name."""

    proxies: Dict[str, ProxySnapshot]

    def total(self, metric: str) -> float:
        """Cluster-wide sum of one metric (all proxies, all labels)."""
        return sum(
            snap.metric_total(metric) for snap in self.proxies.values()
        )

    def spans(self) -> List[Dict[str, Any]]:
        """All retained spans cluster-wide, annotated and time-ordered.

        Every span dict gains a ``"proxy"`` key naming the ring it came
        from (also present in its attributes; the top-level copy makes
        the fused form self-describing).
        """
        out: List[Dict[str, Any]] = []
        for name, snap in self.proxies.items():
            for span in snap.spans:
                out.append({**span, "proxy": name})
        out.sort(key=lambda span: span["start"])
        return out

    def traces(self) -> Dict[str, List[Dict[str, Any]]]:
        """All spans grouped by trace id, each group time-ordered."""
        grouped: Dict[str, List[Dict[str, Any]]] = {}
        for span in self.spans():
            grouped.setdefault(span["trace_id"], []).append(span)
        return grouped

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """One reassembled trace (time-ordered; empty when unknown)."""
        wanted = trace_id.lower()
        return [s for s in self.spans() if s["trace_id"] == wanted]

    def false_hit_attribution(self) -> List[FalseHitAttribution]:
        """Per-proxy measured false-hit ratio vs predicted FP rate."""
        out = []
        for name in sorted(self.proxies):
            snap = self.proxies[name]
            false_hits = int(snap.metric("proxy_icp_false_hits_total"))
            remote_hits = int(snap.metric("proxy_remote_hits_total"))
            failures = int(
                snap.metric("proxy_remote_fetch_failures_total")
            )
            rounds = false_hits + remote_hits + failures
            out.append(
                FalseHitAttribution(
                    proxy=name,
                    representation=snap.summary.get(
                        "representation", "unknown"
                    ),
                    measured_ratio=(
                        false_hits / rounds if rounds else 0.0
                    ),
                    predicted_fp_rate=snap.metric(
                        "proxy_summary_predicted_fp_rate"
                    ),
                    false_hits=false_hits,
                    remote_hits=remote_hits,
                    fetch_failures=failures,
                )
            )
        return out

    def as_dict(self) -> Dict[str, Any]:
        """The whole fused snapshot, JSON-ready.

        Carries per-proxy metrics and spans verbatim plus the derived
        views (trace index, false-hit attribution) so a dumped snapshot
        is self-contained for offline analysis.
        """
        traces = self.traces()
        return {
            "proxies": {
                name: {
                    "host": snap.host,
                    "port": snap.port,
                    "trace_enabled": snap.trace_enabled,
                    "trace_ring_dropped": snap.trace_ring_dropped,
                    "trace_ring_capacity": snap.trace_ring_capacity,
                    "summary": snap.summary,
                    "metrics": snap.metrics,
                    "spans": snap.spans,
                }
                for name, snap in sorted(self.proxies.items())
            },
            "traces": {
                trace_id: len(spans) for trace_id, spans in traces.items()
            },
            "cross_proxy_traces": sum(
                1
                for spans in traces.values()
                if len({s["proxy"] for s in spans}) > 1
            ),
            "false_hit_attribution": [
                a.as_dict() for a in self.false_hit_attribution()
            ],
            "totals": {
                name: self.total(name)
                for name in (
                    "proxy_http_requests_total",
                    "proxy_local_hits_total",
                    "proxy_remote_hits_total",
                    "proxy_icp_false_hits_total",
                    "proxy_origin_fetches_total",
                    "trace_ring_dropped_total",
                )
            },
        }


async def scrape_proxy(host: str, port: int) -> ProxySnapshot:
    """Scrape one proxy's ``/metrics`` + ``/trace`` into a snapshot."""
    driver = ClientDriver(host, port, send_trace=False)
    try:
        text = (await driver.fetch("/metrics")).decode("utf-8")
        trace_doc = json.loads(
            (await driver.fetch("/trace")).decode("utf-8")
        )
    finally:
        await driver.close()
    return ProxySnapshot(
        name=str(trace_doc["name"]),
        host=host,
        port=port,
        metrics=parse_prometheus(text),
        spans=list(trace_doc["spans"]),
        trace_enabled=bool(trace_doc["enabled"]),
        trace_ring_dropped=int(trace_doc["dropped"]),
        trace_ring_capacity=int(trace_doc["capacity"]),
        summary=dict(trace_doc["summary"]),
    )


async def scrape_cluster(
    targets: Sequence[Tuple[str, int]],
) -> ClusterSnapshot:
    """Scrape every ``(host, port)`` target concurrently and fuse.

    Two targets reporting the same proxy name raise
    :class:`~repro.errors.ProtocolError`: the snapshot is keyed by name
    and a silent overwrite would drop a ring.
    """
    snapshots = await asyncio.gather(
        *(scrape_proxy(host, port) for host, port in targets)
    )
    fused: Dict[str, ProxySnapshot] = {}
    for snap in snapshots:
        if snap.name in fused:
            raise ProtocolError(
                f"two scrape targets report proxy name {snap.name!r} "
                f"({fused[snap.name].host}:{fused[snap.name].port} and "
                f"{snap.host}:{snap.port})"
            )
        fused[snap.name] = snap
    return ClusterSnapshot(proxies=fused)


def render_cluster(snapshot: ClusterSnapshot) -> str:
    """A terminal summary of a fused snapshot."""
    lines = []
    header = (
        f"{'proxy':<10} {'requests':>9} {'local':>7} {'remote':>7} "
        f"{'false':>6} {'measured':>9} {'predicted':>10} {'spans':>6} "
        f"{'dropped':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    attribution = {
        a.proxy: a for a in snapshot.false_hit_attribution()
    }
    for name in sorted(snapshot.proxies):
        snap = snapshot.proxies[name]
        attr = attribution[name]
        lines.append(
            f"{name:<10} "
            f"{int(snap.metric('proxy_http_requests_total')):>9} "
            f"{int(snap.metric('proxy_local_hits_total')):>7} "
            f"{attr.remote_hits:>7} "
            f"{attr.false_hits:>6} "
            f"{attr.measured_ratio:>9.4f} "
            f"{attr.predicted_fp_rate:>10.4f} "
            f"{len(snap.spans):>6} "
            f"{snap.trace_ring_dropped:>8}"
        )
    traces = snapshot.traces()
    cross = sum(
        1
        for spans in traces.values()
        if len({s["proxy"] for s in spans}) > 1
    )
    lines.append(
        f"traces: {len(traces)} total, {cross} spanning more than one "
        f"proxy"
    )
    return "\n".join(lines)


#: Span attributes :func:`render_trace` prints verbatim, in order.
_DETAIL_KEYS = ("url", "source", "outcome", "candidates", "peer", "hit")

#: Request phases a root span times: ``<phase>_s`` seconds, plus the
#: upstream's verdict under ``<phase>`` for the two fetches.
_PHASES = ("icp_round", "peer_fetch", "origin_fetch")


def render_trace(spans: List[Dict[str, Any]]) -> str:
    """One reassembled trace as an indented span tree.

    Spans whose parent is not retained anywhere (client-originated
    roots, ring-evicted parents) print at top level.  Children sort by
    start time.  A root span's phase attributes print as
    ``<phase>=<ms>ms``, with the fetch verdict in parentheses.
    """
    if not spans:
        return "(no spans)"
    by_id = {span["span_id"]: span for span in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span["parent_id"]
        key = parent if parent in by_id else None
        children.setdefault(key, []).append(span)

    lines: List[str] = [f"trace {spans[0]['trace_id']}"]

    def walk(parent_key: Optional[str], depth: int) -> None:
        for span in sorted(
            children.get(parent_key, []), key=lambda s: s["start"]
        ):
            duration = span["duration"]
            took = f"{duration * 1e3:.2f}ms" if duration is not None else "live"
            attrs = span["attributes"]
            fields = [f"{k}={attrs[k]}" for k in _DETAIL_KEYS if k in attrs]
            fields += [
                f"{phase}={attrs[phase + '_s'] * 1e3:.2f}ms"
                + (f"({attrs[phase]})" if phase in attrs else "")
                for phase in _PHASES
                if phase + "_s" in attrs
            ]
            detail = " ".join(fields)
            lines.append(
                f"{'  ' * (depth + 1)}{span['name']} "
                f"[{span['proxy']}] {took}"
                + (f" {detail}" if detail else "")
            )
            walk(span["span_id"], depth + 1)

    walk(None, 0)
    return "\n".join(lines)
