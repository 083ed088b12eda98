"""The summary kinds, pinned: one table names every representation.

``summaries.backend.SET_KINDS`` names each set representation once, with
the key it files a URL under; ``SummaryConfig.KINDS``, the factory, the
peer store and the codec all read it.  These tests keep the names in
step across the config, the wire ids and the CLI, and keep the codec
and the proxy from dispatching on a summary's class again.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Set

import pytest

from repro.summaries import (
    SUMMARY_REPR_KINDS,
    LocalSummary,
    PeerSummaries,
    SummaryConfig,
    codec,
    make_local_summary,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The summary classes a module that only names kinds must not import.
SET_SUMMARY_MODULES = {"repro.summaries.keyset"}
SUMMARY_CLASSES = {"KeySetSummary", "BloomSummary"}


def imported_names(path: Path) -> Set[str]:
    """Every module and name *path* imports, anywhere in the file."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(alias.name for alias in node.names)
    return names


def test_every_table_names_the_same_kinds():
    kinds = set(SummaryConfig.KINDS)
    assert set(codec.KIND_TO_REPRESENTATION) == kinds
    assert set(SUMMARY_REPR_KINDS.values()) == kinds


@pytest.mark.parametrize("kind", SummaryConfig.KINDS)
def test_each_kind_builds_its_summary_and_store(kind):
    summary = make_local_summary(SummaryConfig(kind=kind), 1024 * 1024)
    assert isinstance(summary, LocalSummary)
    assert summary.kind == kind
    store = PeerSummaries.empty(kind)
    assert store.kind == kind
    assert store.geometry(0) is None


@pytest.mark.parametrize(
    "module, banned",
    [
        ("summaries/codec.py", {"KeySetSummary"} | SET_SUMMARY_MODULES),
        ("proxy/server.py", SUMMARY_CLASSES | SET_SUMMARY_MODULES),
    ],
)
def test_no_dispatch_on_summary_classes(module, banned):
    assert not imported_names(SRC / module) & banned
