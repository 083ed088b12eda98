"""Every check of the lint catches a one-line mutation of real code.

Each case copies real files from ``src/`` (and the doc a rule
cross-checks) into a scratch project, changes one line of one of them
or inserts one line after it, and asserts the rule reports the finding
of the branch under test.  A mutation is one statement or one compound
header with a one-statement body, with no ``;``.  The unmutated copy
is the control: it must not report that finding.

A check that no such mutation reaches has no target in the code we
have, and is deleted rather than kept in case.  When a case's anchor
line leaves its file, the case fails: point it at the code's new
shape, or delete the branch if no shape is left for it.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from repro.lint.framework import Finding, LintConfig, run_lint

REPO = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not (REPO / "src" / "repro").is_dir(), reason="repo sources not available"
)


@dataclass(frozen=True)
class Mutation:
    """One line of ``src/<path>`` changed (or one inserted after it)."""

    rule: str
    path: str  #: under ``src/``
    line: str  #: the anchor line, stripped; must occur once in the file
    new: str  #: the replacement line, or the inserted line
    expect: str  #: a fragment of the finding's message
    insert: bool = False
    extra: Tuple[str, ...] = ()  #: repo files copied unchanged

    @property
    def id(self) -> str:
        return f"{self.rule}-{self.expect[:40]}"


SERVER = "repro/proxy/server.py"
POOL = "repro/proxy/pool.py"
ORIGIN = "repro/proxy/origin.py"
BINARY = "repro/traces/binary.py"
WIRE = "repro/protocol/wire.py"
CODEC = "repro/summaries/codec.py"
METRICS = "repro/proxy/metrics.py"
OBS_DOC = "docs/observability.md"
WIRE_DOCS = ("docs/wire-protocol.md", f"src/{WIRE}")
CODEC_DOCS = ("docs/wire-protocol.md", f"src/{CODEC}")

MUTATIONS: List[Mutation] = [
    # -- SC001: blocking calls in coroutines ---------------------------
    Mutation(
        "SC001", "repro/proxy/client.py", "start = time.perf_counter()",
        "time.sleep(0.001)", "blocking call time.sleep()", insert=True,
    ),
    Mutation(
        "SC001", ORIGIN, "await asyncio.sleep(self.delay)",
        "time.sleep(self.delay)", "blocking call time.sleep()",
    ),
    Mutation(
        "SC001", ORIGIN, "import asyncio", "import time as asyncio",
        "blocking call time.sleep()",
    ),
    Mutation(
        "SC001", SERVER, "from time import perf_counter, time",
        "from time import sleep as perf_counter, time",
        "blocking call time.sleep()",
    ),
    Mutation(
        "SC001", SERVER, "status = 200", 'subprocess.run(["sync"])',
        "blocking call subprocess.run()", insert=True,
    ),
    Mutation(
        "SC001", POOL, "response = await client.response()",
        "response = await asyncio.wait_for(client.response(), 5.0)",
        "asyncio.wait_for() inside async def",
    ),
    # -- SC002: wire struct formats -----------------------------------
    Mutation(
        "SC002", BINARY, '_TRACE_RECORD = struct.Struct("!dIIII")',
        '_TRACE_RECORD = struct.Struct("dIIII")',
        "'dIIII' does not use explicit network byte order",
    ),
    Mutation(
        "SC002", WIRE, 'for record in struct.unpack(f"!{count}I", records)',
        'for record in struct.unpack(f"<{count}I", records)',
        "'<1I' does not use explicit network byte order",
    ),
    Mutation(
        "SC002", WIRE, '(name_len,) = struct.unpack_from("!H", data, offset)',
        "(name_len,) = struct.unpack_from(_NAME_FORMAT, data, offset)",
        "format is not a string literal",
    ),
    Mutation(
        "SC002", BINARY, "TRACE_RECORD_SIZE = 24", "TRACE_RECORD_SIZE = 25",
        "packs 24 bytes but TRACE_RECORD_SIZE declares 25",
    ),
    Mutation(
        "SC002", BINARY, "TRACE_RECORD_SIZE = 24",
        "TRACE_RECORD_SIZE: int = 25",
        "packs 24 bytes but TRACE_RECORD_SIZE declares 25",
    ),
    Mutation(
        "SC002", WIRE, "ICP_HEADER_SIZE = 20", "ICP_HEADER_SIZE = 21",
        "packs 20 bytes but ICP_HEADER_SIZE declares 21",
    ),
    Mutation(
        "SC002", BINARY, '_TRACE_RECORD = struct.Struct("!dIIII")',
        '_TRACE_RECORD = struct.Struct("!dIIIZ")',
        "invalid struct format '!dIIIZ'",
    ),
    # -- SC003: metric names and their catalogue ------------------------
    Mutation(
        "SC003", METRICS, '"proxy_udp_received_total", "UDP datagrams received"',
        '"proxyUdpReceived_total", "UDP datagrams received"',
        "'proxyUdpReceived_total' is not snake_case",
    ),
    Mutation(
        "SC003", METRICS,
        '"proxy_local_hits_total", "requests served from the local cache"',
        '"proxy_local_hits", "requests served from the local cache"',
        "counter 'proxy_local_hits' must end in '_total'",
    ),
    Mutation(
        "SC003", SERVER, '"trace_ring_dropped_total",',
        '"trace_ring_dropped",',
        "counter 'trace_ring_dropped' must end in '_total'",
    ),
    Mutation(
        "SC003", "repro/experiments.py",
        'counter("sharing_requests_total", "requests simulated", result.requests)',
        'counter("sharing_requests", "requests simulated", result.requests)',
        "counter 'sharing_requests' must end in '_total'",
    ),
    Mutation(
        "SC003", SERVER, 'g("proxy_cache_entries", "documents cached").set_function(',
        'g("proxy_cache_entries_total", "documents cached").set_function(',
        "gauge 'proxy_cache_entries_total' must not end in '_total'",
    ),
    Mutation(
        "SC003", METRICS, '"proxy_request_phase_seconds",',
        '"proxy_request_phase",',
        "histogram 'proxy_request_phase' must end in a base-unit suffix",
    ),
    Mutation(
        "SC003", SERVER, 'g("proxy_cache_entries", "documents cached").set_function(',
        'g("proxy_request_phase_seconds", "documents cached").set_function(',
        "registered as gauge here but as histogram",
        extra=(f"src/{METRICS}",),
    ),
    Mutation(
        "SC003", METRICS, 'self.udp_sent = c("proxy_udp_sent_total", "UDP datagrams sent")',
        'self.udp_sent = c("proxy_udp_sends_total", "UDP datagrams sent")',
        "metric 'proxy_udp_sends_total' is not documented",
        extra=(OBS_DOC,),
    ),
    Mutation(
        "SC003", METRICS, 'self.udp_sent = c("proxy_udp_sent_total", "UDP datagrams sent")',
        'self.udp_sent = c("proxy_udp_sends_total", "UDP datagrams sent")',
        "documented metric 'proxy_udp_sent_total' is not registered",
        extra=(OBS_DOC,),
    ),
    Mutation(
        "SC003", METRICS, "phase: registry.histogram(", "phase: registry.gauge(",
        "is a gauge in code but documented as histogram",
        extra=(OBS_DOC,),
    ),
    # -- SC004: summary storage and placement internals ----------------
    Mutation(
        "SC004", SERVER, "self._m.summary_resizes.inc()",
        "self._node.local.counters.add_at([0])",
        "direct mutation self._node.local.counters.add_at(...)",
        insert=True,
    ),
    Mutation(
        "SC004", SERVER, "self._m.summary_resizes.inc()",
        "flags = self._node.local.counters._flags",
        "private storage field ._flags", insert=True,
    ),
    Mutation(
        "SC004", SERVER, "self._m.summary_resizes.inc()",
        "ring = self._placement._ring",
        "placement internal ._ring", insert=True,
    ),
    # -- SC005: exception hygiene --------------------------------------
    Mutation(
        "SC005", BINARY,
        'raise TraceFormatError(f"{path}: cannot map: {exc}") from exc',
        'raise ValueError(f"{path}: cannot map: {exc}") from exc',
        "raise of builtin ValueError",
    ),
    Mutation(
        "SC005", POOL, "except BaseException:", "except:",
        "bare 'except:'",
    ),
    # -- SC006: representation ids, codec <-> wire <-> doc -------------
    Mutation(
        "SC006", CODEC, "KIND_TO_REPRESENTATION: Dict[str, int] = {",
        "KIND_TO_REPR: Dict[str, int] = {",
        "no KIND_TO_REPRESENTATION dict literal", extra=WIRE_DOCS,
    ),
    Mutation(
        "SC006", CODEC, '"bloom": REPR_BLOOM,', '"bloom": 0,',
        "no KIND_TO_REPRESENTATION dict literal", extra=WIRE_DOCS,
    ),
    Mutation(
        "SC006", CODEC, '"bloom": REPR_BLOOM,', '"bloom": REPR_BLOM,',
        "maps to REPR_BLOM, which protocol/wire.py does not define",
        extra=WIRE_DOCS,
    ),
    Mutation(
        "SC006", CODEC, '"bloom": REPR_BLOOM,', '"bloom": REPR_BLOM,',
        "wire constant REPR_BLOOM (id 0) has no KIND_TO_REPRESENTATION entry",
        extra=WIRE_DOCS,
    ),
    Mutation(
        "SC006", WIRE, "REPR_SERVER_NAME = 2", "REPR_SERVER_NAME = 3",
        "REPR_SERVER_NAME documented as id 2 but protocol/wire.py defines 3",
        extra=CODEC_DOCS,
    ),
    Mutation(
        "SC006", WIRE, "REPR_SERVER_NAME = 2", "REPR_SERVER = 2",
        "wire constant REPR_SERVER (id 2) is missing from",
        extra=CODEC_DOCS,
    ),
    Mutation(
        "SC006", WIRE, "REPR_SERVER_NAME = 2", "REPR_SERVER = 2",
        "documented representation REPR_SERVER_NAME (id 2) is not defined",
        extra=CODEC_DOCS,
    ),
    # -- SC007: read..await..write windows -----------------------------
    Mutation(
        "SC007", SERVER, "round_start = perf_counter()",
        "stale = len(self._pending)",
        "write of self._pending may act on a stale value", insert=True,
    ),
    Mutation(
        "SC007", SERVER, "holder = await self._query_peers(url, candidates, root)",
        "self.remove_peer(holder.address.name)",
        "write of self._placement may act on a stale value", insert=True,
    ),
    Mutation(
        "SC007", SERVER, 'span.set(source=source).end(status="error")',
        "self._bodies.pop(url, None)",
        "write of self._bodies may act on a stale value", insert=True,
    ),
    Mutation(
        "SC007", POOL, "await client.closed", "self._idle = {}",
        "write of self._idle may act on a stale value", insert=True,
    ),
    # -- SC008: spans a coroutine starts -------------------------------
    Mutation(
        "SC008", SERVER, "status = 200",
        'probe = self.spans.start_span("probe")',
        "start_span() outside a with statement", insert=True,
    ),
    # -- SC000: the runner reports a file it cannot parse --------------
    Mutation(
        "SC000", POOL, "async def clear(self) -> None:",
        "async def clear(self) -> None",
        "file could not be parsed",
    ),
]


def _mutate(source: str, mutation: Mutation) -> Tuple[str, int]:
    """*source* with the mutation applied, and the mutated line's number."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == mutation.line]
    assert len(hits) == 1, (
        f"{mutation.path}: anchor {mutation.line!r} occurs {len(hits)} times"
    )
    index = hits[0]
    text = lines[index]
    indent = text[: len(text) - len(text.lstrip())]
    if mutation.insert:
        index += 1
        lines.insert(index, indent + mutation.new + "\n")
    else:
        lines[index] = indent + mutation.new + "\n"
    return "".join(lines), index + 1


def _lint(root: Path, mutation: Mutation) -> List[Finding]:
    (root / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    for rel in mutation.extra:
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO / rel, target)
    select: Optional[frozenset] = (
        None if mutation.rule == "SC000" else frozenset([mutation.rule])
    )
    config = LintConfig(select=select, root=root)
    return run_lint([str(root / "src")], config).findings


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.id for m in MUTATIONS])
def test_rule_catches_the_mutation(mutation: Mutation, tmp_path: Path) -> None:
    source = (REPO / "src" / mutation.path).read_text(encoding="utf-8")
    mutated, lineno = _mutate(source, mutation)
    target = Path("src") / mutation.path

    control = tmp_path / "control"
    (control / target).parent.mkdir(parents=True)
    (control / target).write_text(source, encoding="utf-8")
    assert not [
        f for f in _lint(control, mutation) if mutation.expect in f.message
    ], "the unmutated copy already reports the finding"

    project = tmp_path / "mutated"
    (project / target).parent.mkdir(parents=True)
    (project / target).write_text(mutated, encoding="utf-8")
    hits = [
        f
        for f in _lint(project, mutation)
        if f.rule == mutation.rule and mutation.expect in f.message
    ]
    assert hits, f"{mutation.rule} missed line {lineno}: {mutation.new!r}"
    if mutation.insert:
        # The finding is anchored at the inserted line, or (SC007's
        # window) names it as the read that goes stale.
        assert any(
            f.line == lineno or f"line {lineno} " in f.message for f in hits
        ), [f.render() for f in hits]
