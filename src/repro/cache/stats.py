"""Hit/miss accounting for a proxy cache."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters a cache accumulates over a request stream.

    ``stale_hits`` count lookups that found the URL but with a changed
    validator; the paper's perfect-consistency assumption treats those as
    misses for hit-ratio purposes, but they are tracked separately because
    *remote* stale hits appear in the protocol message accounting.
    """

    requests: int = 0
    hits: int = 0
    stale_hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    evictions: int = 0
    rejected_too_large: int = 0
    _by_policy: dict = field(default_factory=dict, repr=False)

    @property
    def misses(self) -> int:
        """Requests not served fresh from this cache (includes stale hits)."""
        return self.requests - self.hits

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served fresh from cache."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        """Fraction of requested bytes served fresh from cache."""
        if not self.bytes_requested:
            return 0.0
        return self.bytes_hit / self.bytes_requested

    def record_policy_eviction(self, policy: str, count: int = 1) -> None:
        """Attribute *count* evictions to the named replacement policy."""
        self._by_policy[policy] = self._by_policy.get(policy, 0) + count

    def by_policy(self) -> dict:
        """Eviction counts keyed by replacement-policy name (a copy)."""
        return dict(self._by_policy)

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two stats objects."""
        by_policy = dict(self._by_policy)
        for policy, count in other._by_policy.items():
            by_policy[policy] = by_policy.get(policy, 0) + count
        return CacheStats(
            requests=self.requests + other.requests,
            hits=self.hits + other.hits,
            stale_hits=self.stale_hits + other.stale_hits,
            bytes_requested=self.bytes_requested + other.bytes_requested,
            bytes_hit=self.bytes_hit + other.bytes_hit,
            evictions=self.evictions + other.evictions,
            rejected_too_large=self.rejected_too_large
            + other.rejected_too_large,
            _by_policy=by_policy,
        )
