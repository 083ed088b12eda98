"""SC001: no blocking calls inside ``async def`` in the proxy.

Table II's latency claim ("the overhead of summary cache is negligible")
holds only while the asyncio event loop never stalls: one synchronous
``time.sleep`` or socket call inside a coroutine serializes every
concurrent HTTP request and ICP round behind it.

It also flags ``asyncio.wait_for``: not a stall, but a task and a
timer per request where the proxy and its client driver keep one
``repro.proxy.http.Deadline`` per connection.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from repro.lint.astutil import import_map, resolve_call_name
from repro.lint.framework import FileContext, Finding, Rule, register

#: Fully-qualified call targets that block the event loop, with the
#: asyncio-native replacement the finding suggests.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "await asyncio.sleep(...)",
    "socket.create_connection": "asyncio.open_connection(...)",
    "socket.getaddrinfo": "loop.getaddrinfo(...)",
    "socket.gethostbyname": "loop.getaddrinfo(...)",
    "os.system": "asyncio.create_subprocess_shell(...)",
    "os.popen": "asyncio.create_subprocess_shell(...)",
    "open": "asyncio.to_thread(open, ...) or aiofiles",
    "io.open": "asyncio.to_thread(...)",
    "urllib.request.urlopen": "asyncio.open_connection(...)",
}

#: Module prefixes whose every call is considered blocking.
BLOCKING_PREFIXES: Dict[str, str] = {
    "subprocess": "asyncio.create_subprocess_exec(...)",
    "socket": "the asyncio transport/protocol APIs",
    "requests": "asyncio.open_connection(...)",
}


#: Calls that do not block but cost the loop per call what the proxy
#: pays once per connection, with the whole finding message.
PER_CALL_COSTS: Dict[str, str] = {
    "asyncio.wait_for": (
        "asyncio.wait_for() inside async def costs a task (before "
        "Python 3.12) and a timer per call; stamp one "
        "repro.proxy.http.Deadline per connection instead"
    ),
}


@register
class NoBlockingCallsInAsync(Rule):
    """Flag event-loop-blocking calls inside ``async def`` bodies."""

    id = "SC001"
    title = "no blocking calls inside async def"
    rationale = (
        "The asyncio proxy must never block its event loop: the Table II "
        "latency results assume ICP rounds and HTTP serving interleave "
        "freely (paper Section IV)."
    )
    scopes = ("repro/proxy",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = import_map(ctx.tree)
        findings: List[Finding] = []
        self._walk(ctx, ctx.tree, in_async=False, imports=imports, out=findings)
        return iter(findings)

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        in_async: bool,
        imports: Dict[str, str],
        out: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            # A sync def or lambda nested in a coroutine runs on the
            # loop too, so async scope covers the whole subtree.
            child_async = in_async or isinstance(child, ast.AsyncFunctionDef)
            if child_async and isinstance(child, ast.Call):
                self._check_call(ctx, child, imports, out)
            self._walk(ctx, child, child_async, imports, out)

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        imports: Dict[str, str],
        out: List[Finding],
    ) -> None:
        name = resolve_call_name(call.func, imports)
        if name is None:
            return
        if name in PER_CALL_COSTS:
            out.append(ctx.finding(self.id, call, PER_CALL_COSTS[name]))
            return
        hit: Tuple[str, str] = ("", "")
        if name in BLOCKING_CALLS:
            hit = (name, BLOCKING_CALLS[name])
        else:
            root = name.partition(".")[0]
            if root in BLOCKING_PREFIXES and name != root:
                hit = (name, BLOCKING_PREFIXES[root])
        if hit[0]:
            out.append(
                ctx.finding(
                    self.id,
                    call,
                    f"blocking call {hit[0]}() inside async def; "
                    f"use {hit[1]} instead",
                )
            )
