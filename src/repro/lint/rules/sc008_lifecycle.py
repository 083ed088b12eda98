"""SC008: spans, pooled connections, and writers must not leak.

A :class:`~repro.obs.spans.Span` that is started but never ended stays
"live" in the span ring forever (its duration reads ``None`` in every
scrape and the cluster aggregator counts it unfinished); a pooled
connection that is acquired but neither released nor closed strands a
socket.  The dangerous paths are rarely the happy ones -- they are the
**exceptional** exits, and under asyncio every ``await`` between
acquire and release is also a *cancellation* point: a client
disconnect cancels the handler task mid-await and unwinds through
whatever ``finally`` protection exists.  ``except Exception`` is not
protection (``CancelledError`` derives from ``BaseException``).

The rule tracks three acquisition shapes over the CFG::

    span = <ring>.start_span(...)          # span
    conn = await <pool>.acquire(...)       # pooled connection
    reader, writer = await asyncio.open_connection(...)  # writer

and reports when function exit (fall-through, ``return``, or an
escaping exception edge) is reachable without one of the release
shapes: ``name.end(...)`` / ``name.close()`` (chained forms too),
``<x>.release(name, ...)``, entering ``with name:`` (the context
manager owns cleanup from then on), or ownership escape (``return
name`` / passing ``name`` to a constructor).  Acquiring directly into
a ``with`` block (``with ring.start_span(...) as s:``) never trips the
rule -- that is the recommended fix.  A span with no ``await`` inside
it is not started at all: it is written finished, as one
``ring.record(...)`` call, which holds nothing open and is never
tracked.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.flow import (
    EXIT,
    Event,
    EventPos,
    FlowGraph,
    build_flow_graph,
    iter_async_functions,
)
from repro.lint.framework import FileContext, Finding, Rule, register

#: ``(resource kind, acquisition description)`` per detected pattern.
_SPAN, _CONN, _WRITER = "span", "pooled connection", "stream writer"

#: Release method names per kind (called on the tracked name).
_RELEASE_METHODS = {
    _SPAN: frozenset({"end"}),
    _CONN: frozenset({"close"}),
    _WRITER: frozenset({"close", "abort"}),
}


def _acquisition(event: Event) -> Optional[Tuple[str, str]]:
    """``(kind, name)`` when *event* is an ``assign`` of a tracked
    acquisition, else ``None``."""
    node = event.node
    if not isinstance(node, ast.Assign) or not event.targets:
        return None
    value = node.value
    call = value.value if isinstance(value, ast.Await) else value
    if not isinstance(call, ast.Call) or not isinstance(
        call.func, ast.Attribute
    ):
        return None
    method = call.func.attr
    if method == "start_span":
        return (_SPAN, event.targets[0])
    if not isinstance(value, ast.Await):
        return None
    if method == "acquire":
        owner = call.func.value
        chain_attr = (
            owner.attr if isinstance(owner, ast.Attribute) else (
                owner.id if isinstance(owner, ast.Name) else ""
            )
        )
        if "pool" in chain_attr.lower():
            return (_CONN, event.targets[0])
    if method == "open_connection" and len(event.targets) == 2:
        return (_WRITER, event.targets[1])
    return None


@register
class ResourceLifecycleLeaks(Rule):
    """Flag resource acquisitions with a leak path to function exit."""

    id = "SC008"
    title = "span/connection acquired on a path that can exit before release"
    rationale = (
        "A live span that never ends corrupts every duration the "
        "cluster aggregator reports, and a stranded upstream socket "
        "defeats the keep-alive pool the Section IV overhead numbers "
        "depend on; cancellation can land on any await, so only "
        "try/finally, a BaseException handler, or `with span:` "
        "actually covers the window."
    )
    scopes = ("repro/proxy", "repro/obs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        for _cls, func in iter_async_functions(ctx.tree):
            # Effects expansion is unnecessary here (and emitting
            # derived events would obscure release-call matching).
            graph = build_flow_graph(func)
            for pos, event in graph.events():
                acq = _acquisition(event)
                if acq is None:
                    continue
                kind, name = acq
                leak = self._leak_witness(graph, pos, kind, name)
                if leak is not None:
                    findings.append(
                        self._finding(ctx, event, kind, name, leak)
                    )
        return iter(findings)

    def _leak_witness(
        self, graph: FlowGraph, start: EventPos, kind: str, name: str
    ) -> Optional[Event]:
        """BFS from the acquisition; the event whose edge reaches EXIT
        with the resource still held, or ``None`` when every path
        releases first."""
        release_methods = _RELEASE_METHODS[kind]
        seen: Set[EventPos] = set()
        frontier: List[Tuple[EventPos, Event]] = [
            (succ, graph.blocks[start[0]].events[start[1]])
            for succ in graph.successors(start)
        ]
        while frontier:
            pos, via = frontier.pop()
            if pos in seen:
                continue
            seen.add(pos)
            if pos[0] == EXIT:
                return via
            event = graph.blocks[pos[0]].events[pos[1]]
            if self._releases(event, name, release_methods):
                continue
            if event.kind == "assign" and name in event.targets:
                continue  # rebound before release: treat as handed off
            for succ in graph.successors(pos):
                frontier.append((succ, event))
        return None

    @staticmethod
    def _releases(
        event: Event, name: str, release_methods: "frozenset[str]"
    ) -> bool:
        if event.kind == "return" and isinstance(event.node, ast.Return):
            value = event.node.value
            if isinstance(value, ast.Name) and value.id == name:
                return True  # ownership transferred to the caller
            if isinstance(value, ast.Call) and any(
                isinstance(a, ast.Name) and a.id == name
                for a in value.args
            ):
                return True  # wrapped and returned (constructor escape)
        if event.kind != "call":
            return False
        if event.call_root == name and (
            event.call_method in release_methods
            or event.call_method == "__exit__"
        ):
            return True
        # ``pool.release(conn, ...)`` style: released by another object.
        if event.call_method == "release" and name in event.call_args:
            return True
        # Constructor escape: ``PooledConnection(host, port, r, w)``.
        if (
            event.call_root[:1].isupper()
            and name in event.call_args
        ):
            return True
        return False

    def _finding(
        self,
        ctx: FileContext,
        event: Event,
        kind: str,
        name: str,
        leak: Event,
    ) -> Finding:
        leak_line = getattr(leak.node, "lineno", 0)
        leak_kind = (
            "a cancellation/exception at the await"
            if leak.kind == "await"
            else "an exit"
        )
        return ctx.finding(
            self.id,
            event.node,
            f"{kind} {name!r} can leak: {leak_kind} on line "
            f"{leak_line} reaches function exit before "
            f"{'.end()' if kind == _SPAN else 'release/close'}; "
            "acquire it with a with-statement (e.g. 'with "
            "ring.start_span(...) as span:') or protect the window "
            "with try/finally"
            + (
                "; a span with no await inside it is one "
                "ring.record(...) call"
                if kind == _SPAN
                else ""
            ),
        )
