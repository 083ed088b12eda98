"""A dependency-free metrics registry: counters, gauges, histograms.

Every registry has an owner.  Each live proxy builds one
:class:`MetricsRegistry` and serves it at ``GET /metrics``;
:func:`repro.experiments.metrics_snapshot` builds one per
``summary-cache metrics`` run and writes each sharing simulation's
:class:`~repro.sharing.results.SharingResult` into it.  No registry is
process-wide, so a structure that is not handed one measures nothing.

Design constraints:

1. **No dependencies.**  Plain dicts, lists and ``bisect``; rendering
   to Prometheus text / JSON lives in :mod:`repro.obs.export`.
2. **Single-threaded.**  Everything here runs on one asyncio loop or
   one simulator thread; instruments use unlocked ``+=``.

Usage::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    requests = registry.counter("http_requests_total", "client requests")
    requests.inc()
    print(registry.snapshot())
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.errors import ConfigurationError

LabelSpec = Optional[Dict[str, str]]
LabelKey = Tuple[Tuple[str, str], ...]

#: Any concrete instrument the registry can hand out.
Instrument = Union["Counter", "Gauge", "Histogram"]

_I = TypeVar("_I", "Counter", "Gauge", "Histogram")

#: Default histogram bounds for wall-clock phase timings, in seconds.
#: Spans sub-microsecond filter probes up to multi-second experiment
#: phases (origin delays in the replay experiments are ~1 s).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)


def _label_key(labels: LabelSpec) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count.

    :meth:`set_function` hands the count to its owner: a structure that
    already keeps the tally (the span ring's drop count) is read at
    scrape time instead of paying an ``inc`` on its hot path.
    """

    kind = "counter"

    __slots__ = ("name", "help", "labels", "value", "_fn")

    def __init__(self, name: str, help: str = "", labels: LabelSpec = None) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self.value: float = 0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the count from *fn* (its owner's tally) instead of ``inc``."""
        self._fn = fn

    def current(self) -> float:
        """The count right now (evaluates the callback if set)."""
        if self._fn is not None:
            return self._fn()
        return self.value

    def reset(self) -> None:
        """Zero the counter (registry reset; not part of normal use).
        A callback counter is unaffected."""
        self.value = 0

    def sample(self) -> Dict[str, Any]:
        """One snapshot record."""
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.current(),
        }

    def __repr__(self) -> str:
        return f"Counter({self.name}{self.labels or ''}={self.current()})"


class Gauge:
    """A value that can go up and down, or be computed at scrape time.

    :meth:`set_function` registers a callable evaluated on every
    :meth:`current` read -- the idiom for scrape-time values such as
    cache occupancy, so the instrumented object never has to push
    updates on its hot path.
    """

    kind = "gauge"

    __slots__ = ("name", "help", "labels", "_value", "_fn")

    def __init__(self, name: str, help: str = "", labels: LabelSpec = None) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._value: float = 0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        """Set the gauge to *value*."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add *amount* to the gauge."""
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract *amount* from the gauge."""
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the gauge via *fn* at read time (overrides ``set``)."""
        self._fn = fn

    def current(self) -> float:
        """The gauge's value right now (evaluates the callback if set)."""
        if self._fn is not None:
            return self._fn()
        return self._value

    def reset(self) -> None:
        """Zero the stored value (callback gauges are unaffected)."""
        self._value = 0

    def sample(self) -> Dict[str, Any]:
        """One snapshot record."""
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.current(),
        }

    def __repr__(self) -> str:
        return f"Gauge({self.name}{self.labels or ''}={self.current()})"


class Histogram:
    """A fixed-bucket histogram with sum and count.

    *buckets* are ascending upper bounds; an implicit ``+Inf`` bucket
    catches everything above the last bound.  An observation equal to a
    bound lands in that bound's bucket (Prometheus ``le`` semantics).
    """

    kind = "histogram"

    __slots__ = ("name", "help", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelSpec = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs >= 1 bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name} bounds must be strictly ascending: {bounds}"
            )
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def reset(self) -> None:
        """Clear all buckets, the sum, and the count."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def sample(self) -> Dict[str, Any]:
        """One snapshot record."""
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "sum": self.sum,
            "count": self.count,
            # +Inf as the string "+Inf": bare Infinity is not valid JSON.
            "buckets": [
                {
                    "le": "+Inf" if bound == float("inf") else bound,
                    "count": n,
                }
                for bound, n in self.cumulative()
            ],
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{self.labels or ''}, "
            f"count={self.count}, sum={self.sum:.6f})"
        )


class MetricsRegistry:
    """Get-or-create home for every instrument.

    Instruments are keyed by ``(name, sorted label items)``; asking for
    an existing key returns the same object, so components reporting
    through one registry aggregate into shared series (e.g. every
    connection of a proxy increments one
    ``proxy_http_requests_total``).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Instrument] = {}

    # -- instrument constructors ---------------------------------------

    def _get_or_create(
        self,
        cls: Type[_I],
        name: str,
        help: str,
        labels: LabelSpec,
        **kwargs: Any,
    ) -> _I:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: LabelSpec = None
    ) -> Counter:
        """Get or create the counter *name* with *labels*."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: LabelSpec = None
    ) -> Gauge:
        """Get or create the gauge *name* with *labels*."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: LabelSpec = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram *name* with *labels*."""
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # -- inspection ----------------------------------------------------

    def collect(self) -> List[Instrument]:
        """All instruments, ordered by (name, labels)."""
        return [
            self._metrics[key] for key in sorted(self._metrics)
        ]

    def snapshot(self) -> List[Dict[str, Any]]:
        """A JSON-ready list of every instrument's current state."""
        return [metric.sample() for metric in self.collect()]

    def reset(self) -> None:
        """Zero every instrument, keeping registrations intact."""
        for metric in self._metrics.values():
            metric.reset()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._metrics)

    def get(self, name: str, labels: LabelSpec = None) -> Optional[Instrument]:
        """Fetch an instrument if it exists, else ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def value(
        self, name: str, labels: LabelSpec = None, default: float = 0.0
    ) -> float:
        """Shortcut: a counter/gauge's current value, or *default*."""
        metric = self.get(name, labels)
        if metric is None:
            return default
        if isinstance(metric, (Counter, Gauge)):
            return metric.current()
        raise ConfigurationError(
            f"metric {name!r} is a {metric.kind}; read it via get()"
        )

    def total(self, name: str, default: float = 0.0) -> float:
        """Sum a counter/gauge series across all label sets."""
        found = False
        acc = 0.0
        for (metric_name, _), metric in self._metrics.items():
            if metric_name != name:
                continue
            found = True
            if isinstance(metric, (Counter, Gauge)):
                acc += metric.current()
            else:
                raise ConfigurationError(
                    f"metric {name!r} is a {metric.kind}; read it via get()"
                )
        return acc if found else default
