"""Interleaving-check wrappers around the proxy's shared state.

Each guard delegates everything to the wrapped object and additionally
records reads and writes with the :class:`~repro.sanitizer.core.Sanitizer`.
Recording granularity is deliberate:

- ``Placement``: membership observations (``owner``/``replicas``/
  ``is_local``/``members``/``version``) are *reads* of the ring;
  ``add_member``/``remove_member`` are writes.  Immutable fields
  (``policy``, ``self_name``) are passed through unrecorded -- marking
  them as reads would re-arm a task's read marker and mask genuine
  staleness.
- ``SummaryNode``: the mutators (``on_insert``/``on_evict``/
  ``publish``/``rebuild``) are writes, ``due_for_update`` is the
  paired read.  Raw attribute access (``node.local`` for scrape
  gauges and encoding) stays unrecorded: telemetry reads are not
  check-then-act participants.
- ``ConnectionPool``: the pool serialises its own state between
  awaits, so the guard records nothing -- its value is the extra
  :meth:`~repro.sanitizer.core.Sanitizer.perturb` yield point
  (``pool.acquire``) just before each exchange, exactly where a
  cancellation or slow connect changes the schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Tuple

from repro.sanitizer.core import Sanitizer

if TYPE_CHECKING:  # imported for annotations only: repro.proxy imports
    # this package back, so runtime imports here would be circular.
    from repro.placement.live import Placement
    from repro.proxy.http import HttpResponse
    from repro.proxy.pool import ConnectionPool
    from repro.summaries.backend import SummaryNode


class GuardedSummaryNode:
    """A :class:`SummaryNode` whose mutators report to the sanitizer."""

    __slots__ = ("_inner", "_san", "_key")

    def __init__(
        self, inner: SummaryNode, sanitizer: Sanitizer, name: str
    ) -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_san", sanitizer)
        object.__setattr__(self, "_key", f"{name}.summary")

    # Unrecorded passthrough: ``local``/``shipped`` and the update
    # counters are read by scrape gauges and encoders (telemetry).
    def __getattr__(self, attr: str) -> Any:
        return getattr(object.__getattribute__(self, "_inner"), attr)

    def __setattr__(self, attr: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_inner"), attr, value)

    def due_for_update(self, *args: Any, **kwargs: Any) -> bool:
        self._san.record_read(self._key, "due_for_update")
        return bool(self._inner.due_for_update(*args, **kwargs))

    def on_insert(self, url: str) -> None:
        self._san.record_write(self._key, "on_insert")
        self._inner.on_insert(url)

    def on_evict(self, url: str) -> None:
        self._san.record_write(self._key, "on_evict")
        self._inner.on_evict(url)

    def publish(self, *args: Any, **kwargs: Any) -> Any:
        self._san.record_write(self._key, "publish")
        return self._inner.publish(*args, **kwargs)

    def rebuild(self, *args: Any, **kwargs: Any) -> Any:
        self._san.record_write(self._key, "rebuild")
        return self._inner.rebuild(*args, **kwargs)


class GuardedPlacement:
    """A :class:`Placement` whose ring accesses report to the sanitizer."""

    __slots__ = ("_inner", "_san", "_key")

    def __init__(
        self, inner: Placement, sanitizer: Sanitizer, name: str
    ) -> None:
        self._inner = inner
        self._san = sanitizer
        self._key = f"{name}.placement"

    # -- unrecorded (immutable after construction) ---------------------

    @property
    def self_name(self) -> str:
        return self._inner.self_name

    @property
    def policy(self) -> Any:
        return self._inner.policy

    # -- recorded reads of the ring ------------------------------------

    @property
    def ring(self) -> Any:
        self._san.record_read(self._key, "ring")
        return self._inner.ring

    @property
    def members(self) -> Tuple[str, ...]:
        self._san.record_read(self._key, "members")
        return self._inner.members

    @property
    def version(self) -> int:
        self._san.record_read(self._key, "version")
        return self._inner.version

    def owner(self, digest: bytes) -> str:
        self._san.record_read(self._key, "owner")
        return self._inner.owner(digest)

    def replicas(self, digest: bytes) -> Tuple[str, ...]:
        self._san.record_read(self._key, "replicas")
        return self._inner.replicas(digest)

    def is_local(self, digest: bytes) -> bool:
        self._san.record_read(self._key, "is_local")
        return self._inner.is_local(digest)

    # -- recorded writes -----------------------------------------------

    def add_member(self, name: str, urls: Iterable[str] = ()) -> List[str]:
        self._san.record_write(self._key, "add_member")
        return self._inner.add_member(name, urls)

    def remove_member(self, name: str, urls: Iterable[str] = ()) -> List[str]:
        self._san.record_write(self._key, "remove_member")
        return self._inner.remove_member(name, urls)


class GuardedConnectionPool:
    """A :class:`ConnectionPool` with a perturbation point before each
    exchange."""

    __slots__ = ("_inner", "_san", "_key")

    def __init__(
        self, inner: ConnectionPool, sanitizer: Sanitizer, name: str
    ) -> None:
        self._inner = inner
        self._san = sanitizer
        self._key = f"{name}.pool"

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    async def get(
        self, host: str, port: int, url: str, headers: Dict[str, str]
    ) -> HttpResponse:
        # The extra yield lands exactly where a slow connect or a
        # cancellation would: between the caller's routing decision and
        # the exchange.
        await self._san.perturb("pool.acquire")
        return await self._inner.get(host, port, url, headers)
