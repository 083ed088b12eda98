"""SC007: shared-state reads must not go stale across an ``await``.

The proxy's protocol invariants (summary deltas atomic with cache
mutation, placement stable under an in-flight forward) rely on
asyncio's cooperative model: code between two awaits is atomic, but
**every await is a preemption point**.  A read of shared ``self``
state followed -- on some path crossing an await -- by a write of the
same state is a check-then-act window: another task can mutate the
state during the suspension and the write then acts on a stale view.
This is exactly the interleaving the runtime sanitizer
(:mod:`repro.sanitizer`) detects dynamically; this rule finds the
windows statically.

The rule analyses every ``async def``, expanding ``self.<method>()``
calls through the class's transitive effect sets (so a write hidden
behind ``self.remove_peer(...) -> _rebalance -> remove_member`` is
seen).  Watched fields are the known-hot ones seeded per module below.
A fresh read of the field after the await and before the write closes
the window (see ``Placement.version`` in ``_owner_path``); a window the
design accepts carries a ``# sc-lint: disable=SC007`` that says why.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.lint.flow import (
    EXIT,
    Event,
    EventPos,
    FlowGraph,
    build_flow_graph,
    class_method_effects,
    iter_async_functions,
)
from repro.lint.framework import FileContext, Finding, Rule, register

#: Known-hot shared fields, seeded per module (path-fragment keyed,
#: matched with endswith semantics on the project-relative path).
#: Monotonic counters (``stats``, ``_request_counter``) are excluded:
#: their increments are single-statement atomic.
SHARED_FIELDS: Dict[str, FrozenSet[str]] = {
    "repro/proxy/server.py": frozenset(
        {
            "_peers", "_peers_by_name", "_peer_summaries", "_placement",
            "_pending", "_bodies", "_cache", "_node",
        }
    ),
    "repro/proxy/pool.py": frozenset({"_idle", "_closed"}),
}


def _watched_fields(rel_path: str) -> FrozenSet[str]:
    probe = "/" + rel_path.strip("/")
    for fragment, seeded in SHARED_FIELDS.items():
        if probe.endswith("/" + fragment):
            return seeded
    return frozenset()


@register
class InterleavedReadModifyWrite(Rule):
    """Flag shared-state check-then-act windows split by an await."""

    id = "SC007"
    title = "shared-state read goes stale across an await before a write"
    rationale = (
        "Summary deltas must apply atomically with cache mutation and "
        "placement must not change under an in-flight forward (paper "
        "Sections V-VI); every await yields the event loop, so a "
        "read..await..write window acts on state another task may have "
        "changed."
    )
    scopes = tuple(SHARED_FIELDS)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        fields = _watched_fields(ctx.rel_path)
        findings: List[Finding] = []
        for cls, func in iter_async_functions(ctx.tree):
            effects = class_method_effects(cls) if cls is not None else {}
            graph = build_flow_graph(func, effects)
            self._check_graph(ctx, graph, fields, findings)
        return iter(findings)

    def _check_graph(
        self,
        ctx: FileContext,
        graph: FlowGraph,
        fields: FrozenSet[str],
        findings: List[Finding],
    ) -> None:
        reported: Set[Tuple[str, int]] = set()
        for pos, event in graph.events():
            if event.kind == "read" and event.attr in fields:
                self._trace_read(
                    ctx, graph, pos, event, reported, findings
                )

    def _trace_read(
        self,
        ctx: FileContext,
        graph: FlowGraph,
        start: EventPos,
        read: Event,
        reported: Set[Tuple[str, int]],
        findings: List[Finding],
    ) -> None:
        """BFS from one read; report writes of the same attr reached
        across >= 1 await.  Direct (in-place) reads of the attr absorb
        the path -- they re-validate; derived reads (inside a called
        helper) do not, because the helper may read before *its* own
        awaits.  Any write of the attr closes the window."""
        attr = read.attr
        seen: Set[Tuple[EventPos, bool]] = set()
        frontier: List[Tuple[EventPos, bool]] = [
            (succ, False) for succ in graph.successors(start)
        ]
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            pos, crossed = state
            if pos[0] == EXIT:
                continue
            event = graph.blocks[pos[0]].events[pos[1]]
            if event.kind == "await":
                crossed = True
            elif event.kind == "read" and event.attr == attr:
                if not event.derived:
                    continue  # fresh in-place read: window re-validated
            elif event.kind == "write" and event.attr == attr:
                if crossed:
                    line = getattr(event.node, "lineno", 0)
                    key = (attr, line)
                    if key not in reported:
                        reported.add(key)
                        findings.append(
                            self._finding(ctx, read, event, attr)
                        )
                continue  # the write closes the window either way
            for succ in graph.successors(pos):
                frontier.append((succ, crossed))

    def _finding(
        self, ctx: FileContext, read: Event, write: Event, attr: str
    ) -> Finding:
        read_line = getattr(read.node, "lineno", 0)
        how = "read here" if read.derived else "read"
        return ctx.finding(
            self.id,
            write.node,
            f"write of self.{attr} may act on a stale value: {how} at "
            f"line {read_line} crosses an await before this write, so "
            "another task can mutate the field in between; re-read "
            "the field after the await before writing it",
        )
