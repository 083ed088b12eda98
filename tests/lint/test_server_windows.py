"""SC007's windows in the live proxy, pinned.

Each ``disable=SC007`` suppression comment in ``proxy/server.py``
silences a read..await..write window the rule still finds.  Linting a
copy with the suppressions stripped lists every window as (async
function, field); this test pins that set.  A change that opens a
window -- say, an awaited path that writes the peer-summary store after
reading it -- or one that closes a window whose suppression then goes
stale fails here instead of in a hand-run audit.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro.proxy.server
from repro.lint.rules.sc007_races import SHARED_FIELDS
from tests.lint.conftest import LintProject

SERVER = Path(repro.proxy.server.__file__)
SUPPRESSION = re.compile(r"[ \t]*#[ \t]*sc-lint:[ \t]*disable=SC007\b")

#: The windows the suppressions cover; their reasons are the comments
#: beside each suppression in server.py.  None involves the
#: peer-summary store: its slot edits never straddle an await.
WINDOWS = {
    ("_miss_path", "_placement"),
    ("_owner_path", "_peers_by_name"),
    ("_serve_forward", "_bodies"),
}


def test_the_peer_summary_store_is_watched():
    assert "_peer_summaries" in SHARED_FIELDS["repro/proxy/server.py"]


def test_stripped_server_reports_exactly_the_pinned_windows(
    project: LintProject,
):
    source = SERVER.read_text()
    assert len(SUPPRESSION.findall(source)) <= 3
    stripped = SUPPRESSION.sub("", source)
    (project.root / "src/repro/proxy").mkdir(parents=True)
    (project.root / "src/repro/proxy/server.py").write_text(stripped)
    functions = [
        node
        for node in ast.walk(ast.parse(stripped))
        if isinstance(node, ast.AsyncFunctionDef)
    ]
    windows = set()
    for finding in project.lint(select="SC007"):
        (name,) = [
            f.name
            for f in functions
            if f.lineno <= finding.line <= (f.end_lineno or f.lineno)
        ]
        field = re.search(r"write of self\.(\w+)", finding.message)
        assert field is not None, finding.message
        windows.add((name, field.group(1)))
    assert windows == WINDOWS
