"""The URL memo's neighbours, pinned: one place keeps a URL's MD5.

:class:`~repro.core.position_cache.HashPositionCache` is the only
URL -> digest/positions memo, and it is always on.  A second copy of the
digest (a cache flag that stores it per entry, a ``digests=`` argument
that carries it into a filter's growth) or a switch that swaps the memo out
would come back through one of these signatures, so adding a parameter
here needs a test edit and a line in CHANGES.md.
"""

from __future__ import annotations

import inspect

from repro.cache import WebCache
from repro.core.position_cache import HashPositionCache
from repro.summaries import SummaryNode


def parameters(function) -> list:
    return list(inspect.signature(function).parameters)


def test_web_cache_parameters_are_pinned():
    assert parameters(WebCache.__init__) == [
        "self",
        "capacity_bytes",
        "max_object_size",
        "policy",
        "on_insert",
        "on_evict",
    ]


def test_summary_node_grow_takes_urls_and_time():
    assert parameters(SummaryNode.grow) == ["self", "urls", "now"]


def test_position_cache_takes_only_its_bound():
    assert parameters(HashPositionCache.__init__) == ["self", "max_entries"]


def test_position_cache_has_no_swap_switch():
    from repro.core import position_cache

    assert not hasattr(position_cache, "set_position_cache")
    assert not hasattr(position_cache, "position_cache")
