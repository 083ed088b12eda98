"""Unit tests for the flow-graph engine behind SC007.

These pin the CFG semantics the rule depends on: event ordering,
effect expansion through ``self`` calls, branches and loops, and
exception chains stopping at a ``finally`` level instead of conjuring a
phantom straight-to-EXIT path.
"""

from __future__ import annotations

import ast
import textwrap
from typing import List, Optional, Set, Tuple

from repro.lint.flow import (
    EXIT,
    Event,
    EventPos,
    FlowGraph,
    build_flow_graph,
    class_method_effects,
    iter_async_functions,
)


def _graph(source: str, func_name: str = "handler") -> FlowGraph:
    tree = ast.parse(textwrap.dedent(source))
    for cls, func in iter_async_functions(tree):
        if func.name == func_name:
            effects = class_method_effects(cls) if cls is not None else {}
            return build_flow_graph(func, effects)
    raise AssertionError(f"no async def {func_name} in fixture")


def _events(graph: FlowGraph, kind: Optional[str] = None) -> List[Event]:
    return [
        event
        for _pos, event in graph.events()
        if kind is None or event.kind == kind
    ]


def _reachable(graph: FlowGraph, start: EventPos) -> List[Event]:
    """Every event reachable from *start* (exclusive), any path."""
    seen: Set[EventPos] = set()
    frontier = list(graph.successors(start))
    out: List[Event] = []
    while frontier:
        pos = frontier.pop()
        if pos in seen or pos[0] == EXIT:
            continue
        seen.add(pos)
        out.append(graph.blocks[pos[0]].events[pos[1]])
        frontier.extend(graph.successors(pos))
    return out


def _find(graph: FlowGraph, kind: str, attr: str = "") -> Tuple[EventPos, Event]:
    for pos, event in graph.events():
        if event.kind == kind and (not attr or event.attr == attr):
            return pos, event
    raise AssertionError(f"no {kind}/{attr} event in graph")


class TestEventOrdering:
    def test_read_await_write_sequence(self) -> None:
        graph = _graph(
            """\
            async def handler(self):
                n = len(self._cache)
                await helper()
                self._cache = {}
            """
        )
        kinds = [
            (e.kind, e.attr)
            for e in _events(graph)
            if e.kind in ("read", "await", "write")
        ]
        assert ("read", "_cache") in kinds
        assert ("write", "_cache") in kinds
        assert kinds.index(("read", "_cache")) < kinds.index(
            ("await", "")
        ) < kinds.index(("write", "_cache"))

    def test_self_call_expands_to_derived_effects(self) -> None:
        graph = _graph(
            """\
            class P:
                def _mutate(self):
                    self._cache = {}

                async def handler(self):
                    await other()
                    self._mutate()
            """
        )
        writes = _events(graph, "write")
        assert any(e.attr == "_cache" and e.derived for e in writes)


class TestFinallySemantics:
    def test_exception_chain_stops_at_finally(self) -> None:
        # An await inside try/finally may raise, but the exception runs
        # the finally suite; there is no direct await -> EXIT path that
        # skips it.
        graph = _graph(
            """\
            async def handler(self):
                try:
                    await send()
                finally:
                    self._pending = None
            """
        )
        for pos, event in graph.events():
            if event.kind != "await":
                continue
            for succ in graph.successors(pos):
                if succ[0] == EXIT:
                    raise AssertionError(
                        "await inside try/finally has a straight-to-EXIT "
                        "exceptional edge skipping the finally suite"
                    )

    def test_bare_except_does_not_catch_cancellation(self) -> None:
        # ``except Exception`` does not stop CancelledError: the await
        # keeps an exceptional continuation past the handler.
        graph = _graph(
            """\
            async def handler(self):
                try:
                    await helper()
                except Exception:
                    pass
                self._cache = {}
            """
        )
        pos, _ = _find(graph, "await")
        assert any(succ[0] == EXIT for succ in graph.successors(pos))

class TestBranchesAndLoops:
    def test_both_branches_reachable_from_test(self) -> None:
        graph = _graph(
            """\
            async def handler(self, flag):
                n = len(self._cache)
                if flag:
                    self._cache = {}
                else:
                    self._pending = {}
            """
        )
        read_pos, _ = _find(graph, "read", "_cache")
        attrs = {
            e.attr for e in _reachable(graph, read_pos) if e.kind == "write"
        }
        assert attrs == {"_cache", "_pending"}

    def test_while_loop_back_edge(self) -> None:
        # A write after an await in a loop body is reachable from a
        # read later in the same body via the back edge.
        graph = _graph(
            """\
            async def handler(self):
                while True:
                    await helper()
                    self._cache = {}
            """
        )
        write_pos, _ = _find(graph, "write", "_cache")
        again = _reachable(graph, write_pos)
        assert any(e.kind == "await" for e in again)
        assert any(
            e.kind == "write" and e.attr == "_cache" for e in again
        )
