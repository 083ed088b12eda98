"""SC001: no blocking or unbounded-read calls inside ``async def`` in
the proxy.

Table II's latency claim ("the overhead of summary cache is negligible")
holds only while the asyncio event loop never stalls: one synchronous
``time.sleep`` or socket call inside a coroutine serializes every
concurrent HTTP request and ICP round behind it.

The rule also flags unbounded stream reads — ``reader.read()`` with no
byte count (reads to EOF into one buffer) and ``readexactly(n)`` with a
non-constant length (a peer-controlled ``n`` becomes a peer-controlled
allocation).  The proxy's framing layer reads no stream: a response
body's buffer is allocated only after its ``Content-Length`` has passed
``repro.proxy.http.MAX_BODY_BYTES`` (``repro.proxy.http.HttpClient``);
new code must bound a peer-supplied size the same way.

Last, it flags ``asyncio.wait_for``: not a stall, but a task and a
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


#: Stream-read method names checked for a missing/unbounded size.
UNBOUNDED_READ_METHODS = ("read", "readexactly")


def _unbounded_read_message(call: ast.Call) -> str:
    """The SC001 message when *call* is an unbounded stream read, else
    the empty string."""
    if not isinstance(call.func, ast.Attribute):
        return ""
    method = call.func.attr
    if method not in UNBOUNDED_READ_METHODS or call.keywords:
        return ""
    if method == "read":
        if not call.args:
            return (
                "unbounded .read() inside async def reads to EOF into "
                "one buffer; pass an explicit chunk size "
                "(e.g. reader.read(chunk_bytes))"
            )
        if len(call.args) == 1:
            arg: ast.expr = call.args[0]
            # ``-1`` parses as USub(Constant(1)); normalise it.
            value: object = None
            if isinstance(arg, ast.UnaryOp) and isinstance(
                arg.op, ast.USub
            ):
                arg = arg.operand
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, int
                ):
                    value = -arg.value
            elif isinstance(arg, ast.Constant):
                value = arg.value
            if value is None and not isinstance(arg, ast.Constant):
                return ""
            if value is None or (isinstance(value, int) and value < 0):
                return (
                    f".read({value!r}) inside async def is an "
                    "unbounded read-to-EOF; pass a positive chunk size"
                )
        return ""
    # readexactly: a literal length is a static bound; anything
    # computed can be peer-controlled (e.g. a Content-Length header)
    # and allocates that many bytes in one go.
    if len(call.args) == 1 and isinstance(call.args[0], ast.Constant):
        return ""
    return (
        ".readexactly() with a non-constant length inside async def "
        "turns a peer-supplied size into an allocation; read into a "
        "bounded buffer instead (see repro.proxy.http.HttpClient)"
    )


@register
class NoBlockingCallsInAsync(Rule):
    """Flag event-loop-blocking and unbounded-read calls inside
    ``async def`` bodies."""

    id = "SC001"
    title = "no blocking or unbounded-read calls inside async def"
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
            if isinstance(child, ast.AsyncFunctionDef):
                self._walk(ctx, child, True, imports, out)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                # A sync def/lambda nested inside a coroutine is almost
                # always invoked from that coroutine (a sort key, a
                # callback handed to loop.call_soon, a local helper) --
                # it runs on the loop, so it inherits async scope.
                # Module/class-level sync defs stay sync scope.
                self._walk(ctx, child, in_async, imports, out)
            else:
                if in_async and isinstance(child, ast.Call):
                    self._check_call(ctx, child, imports, out)
                self._walk(ctx, child, in_async, imports, out)

    def _check_call(
        self,
        ctx: FileContext,
        call: ast.Call,
        imports: Dict[str, str],
        out: List[Finding],
    ) -> None:
        unbounded = _unbounded_read_message(call)
        if unbounded:
            out.append(ctx.finding(self.id, call, unbounded))
            return
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
