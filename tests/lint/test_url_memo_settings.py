"""The URL memo's neighbours, pinned: one place keeps a URL's MD5.

:class:`~repro.core.position_cache.HashPositionCache` is the only
URL -> digest/positions memo, and it is always on.  A second copy of the
digest (a cache flag that stores it per entry, a ``digests=`` argument
that carries it into a rebuild) or a switch that swaps the memo out
would come back through one of these signatures, so adding a parameter
here needs a test edit and a line in CHANGES.md.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cache import WebCache
from repro.core.position_cache import HashPositionCache
from repro.summaries import SummaryNode
from repro.summaries.backend import LocalSummary, SummaryConfig, make_local_summary
from repro.summaries.bloom import BloomSummary


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


def built_for(kind: str) -> type:
    return type(make_local_summary(SummaryConfig(kind=kind), 1024 * 1024))


# A set kind's case checks the class make_local_summary builds for it.
@pytest.mark.parametrize(
    "summary",
    [LocalSummary, BloomSummary, built_for("exact-directory"), built_for("server-name")],
    ids=["LocalSummary", "BloomSummary", "ExactDirectorySummary", "ServerNameSummary"],
)
def test_local_summary_rebuild_takes_only_urls(summary):
    assert parameters(summary.rebuild) == ["self", "urls"]


def test_summary_node_rebuild_takes_urls_and_time():
    assert parameters(SummaryNode.rebuild) == ["self", "urls", "now"]


def test_position_cache_takes_only_its_bound():
    assert parameters(HashPositionCache.__init__) == ["self", "max_entries"]


def test_position_cache_has_no_swap_switch():
    from repro.core import position_cache

    assert not hasattr(position_cache, "set_position_cache")
    assert not hasattr(position_cache, "position_cache")
