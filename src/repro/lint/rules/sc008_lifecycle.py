"""SC008: a span started inside a coroutine is started by ``with``.

A :class:`~repro.obs.spans.Span` that is started but never ended stays
"live" in the span ring forever (its duration reads ``None`` in every
scrape and the cluster aggregator counts it unfinished).  Under asyncio
every ``await`` between start and end is also a *cancellation* point: a
client disconnect cancels the handler task mid-await, and only the
context manager ends the span on that exit as on every other::

    with ring.start_span(...) as span:

A span with no ``await`` inside it is not started at all: it is written
finished, as one ``ring.record(...)`` call, which holds nothing open.
The rule flags every ``start_span(...)`` call inside an ``async def``
(nested defs and lambdas included) that is not a ``with`` item.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import FileContext, Finding, Rule, register


@register
class SpanLifecycle(Rule):
    """Flag spans a coroutine starts outside a ``with`` statement."""

    id = "SC008"
    title = "spans started in a coroutine are started by a with statement"
    rationale = (
        "A live span that never ends corrupts every duration the "
        "cluster aggregator reports; cancellation can land on any "
        "await, so only `with ring.start_span(...) as span:` ends the "
        "span on every exit."
    )
    scopes = ("repro/proxy", "repro/obs")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        managed = {
            id(item.context_expr)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.With)
            for item in node.items
        }
        starts = {
            id(node): node
            for func in ast.walk(ctx.tree)
            if isinstance(func, ast.AsyncFunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "start_span"
        }
        return iter(
            [
                ctx.finding(
                    self.id,
                    call,
                    "start_span() outside a with statement: the span can "
                    "leak, because a cancellation at any await before its "
                    "end() leaves it live; start it as 'with "
                    "ring.start_span(...) as span:', or write a span with "
                    "no await inside it as one ring.record(...) call",
                )
                for key, call in starts.items()
                if key not in managed
            ]
        )
