"""SC003: metric names are unique, snake_case, Prometheus-conventional,
and documented in ``docs/observability.md``.

Kangasharju et al.'s measurement critique (PAPERS.md) shows how
silently-broken instrumentation invalidates cache evaluations; every
Table/Figure number in this reproduction is a registry read, so the
registry's naming contract is load-bearing.  Counters end in ``_total``,
histograms carry a base-unit suffix, one name never changes kind between
call sites, and the catalogue table in ``docs/observability.md`` stays
in sync with the code.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.framework import (
    FileContext,
    Finding,
    ProjectContext,
    Rule,
    register,
)

#: Attribute / wrapper names that register an instrument, mapped to the
#: instrument kind they produce.
INSTRUMENT_METHODS: Dict[str, str] = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}

_SNAKE_RE = re.compile(r"^[a-z][a-z0-9]*(_[a-z0-9]+)*$")

#: Prometheus base-unit suffixes accepted for histograms.
HISTOGRAM_SUFFIXES = ("_seconds", "_bytes")

#: One row of the doc catalogue: | `name` | kind | ... |
_DOC_ROW_RE = re.compile(
    r"^\|\s*`(?P<name>[A-Za-z0-9_]+)`\s*\|\s*(?P<kind>counter|gauge|histogram)\s*\|"
)

#: A registration site recorded for the cross-file phase.
Registration = Tuple[str, str, int]  # (kind, rel_path, line)


@register
class MetricNameConventions(Rule):
    """Validate metric names and cross-check the doc catalogue."""

    id = "SC003"
    title = "metric naming: unique, snake_case, Prometheus suffixes, documented"
    rationale = (
        "Every Table/Figure number is a registry read; a misnamed or "
        "shadowed metric silently breaks the evaluation (PAPERS.md, 'You "
        "Really Need A Good Ruler...')."
    )
    scopes = ("repro",)

    #: The doc file holding the catalogue table.
    doc_name = "observability.md"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        registrations = self._registrations(ctx.tree)
        store = ctx.project.scratch(self.id)
        by_name = store.setdefault("by_name", {})
        assert isinstance(by_name, dict)

        for name_node, kind in registrations:
            name = name_node.value
            if not isinstance(name, str):
                continue
            if not _SNAKE_RE.match(name):
                findings.append(
                    ctx.finding(
                        self.id,
                        name_node,
                        f"metric name {name!r} is not snake_case",
                    )
                )
                continue
            if kind == "counter" and not name.endswith("_total"):
                findings.append(
                    ctx.finding(
                        self.id,
                        name_node,
                        f"counter {name!r} must end in '_total' "
                        "(Prometheus convention)",
                    )
                )
            if kind == "gauge" and name.endswith("_total"):
                findings.append(
                    ctx.finding(
                        self.id,
                        name_node,
                        f"gauge {name!r} must not end in '_total' "
                        "(reserved for counters)",
                    )
                )
            if kind == "histogram" and not name.endswith(HISTOGRAM_SUFFIXES):
                findings.append(
                    ctx.finding(
                        self.id,
                        name_node,
                        f"histogram {name!r} must end in a base-unit "
                        f"suffix {HISTOGRAM_SUFFIXES}",
                    )
                )
            sites = by_name.setdefault(name, [])
            sites.append((kind, ctx.rel_path, name_node.lineno))

        return iter(findings)

    def finalize(self, project: ProjectContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        store = project.scratch(self.id)
        by_name = store.get("by_name", {})
        assert isinstance(by_name, dict)

        # Global uniqueness: one name, one instrument kind.
        for name, sites in sorted(by_name.items()):
            kinds = sorted({kind for kind, _, _ in sites})
            if len(kinds) > 1:
                first_kind, first_path, first_line = sites[0]
                for kind, path, line in sites[1:]:
                    if kind == first_kind:
                        continue
                    findings.append(
                        Finding(
                            path=path,
                            line=line,
                            col=0,
                            rule=self.id,
                            message=(
                                f"metric {name!r} registered as {kind} "
                                f"here but as {first_kind} at "
                                f"{first_path}:{first_line}"
                            ),
                        )
                    )

        # Doc catalogue cross-check (skipped when docs are unavailable,
        # e.g. linting an installed package outside the repo).
        doc = project.read_doc(self.doc_name)
        if doc is None or not by_name:
            return iter(findings)
        doc_path = f"docs/{self.doc_name}"
        documented: Dict[str, Tuple[str, int]] = {}
        for lineno, line_text in enumerate(doc.splitlines(), start=1):
            match = _DOC_ROW_RE.match(line_text.strip())
            if match is not None:
                documented[match.group("name")] = (
                    match.group("kind"),
                    lineno,
                )
        for name, sites in sorted(by_name.items()):
            kind, path, line = sites[0]
            entry = documented.get(name)
            if entry is None:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"metric {name!r} is not documented in "
                            f"{doc_path}'s catalogue table"
                        ),
                    )
                )
            elif entry[0] != kind:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        rule=self.id,
                        message=(
                            f"metric {name!r} is a {kind} in code but "
                            f"documented as {entry[0]} at "
                            f"{doc_path}:{entry[1]}"
                        ),
                    )
                )
        code_names = set(by_name)
        for name, (kind, lineno) in sorted(documented.items()):
            if name not in code_names:
                findings.append(
                    Finding(
                        path=doc_path,
                        line=lineno,
                        col=0,
                        rule=self.id,
                        message=(
                            f"documented metric {name!r} is not "
                            "registered anywhere in the linted sources"
                        ),
                    )
                )
        return iter(findings)

    # ------------------------------------------------------------------
    # registration-site discovery
    # ------------------------------------------------------------------

    def _registrations(
        self, tree: ast.Module
    ) -> List[Tuple[ast.Constant, str]]:
        """``(name_literal_node, kind)`` for every registration site.

        Three idioms are recognised:

        - method calls: ``registry.counter("name", ...)``,
          ``self.registry.histogram(...)``, ``proxy.registry.gauge(...)``;
        - bound-method aliases: ``c = registry.counter`` then
          ``c("name", ...)``;
        - thin local wrappers literally named ``counter`` / ``gauge`` /
          ``histogram``: ``counter("name", ...)``.

        Sites whose name argument is not a string literal are skipped --
        dynamic names cannot be statically checked.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in INSTRUMENT_METHODS
            ):
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    aliases[target.id] = INSTRUMENT_METHODS[node.value.attr]

        out: List[Tuple[ast.Constant, str]] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            kind: Optional[str] = None
            func = node.func
            if isinstance(func, ast.Attribute):
                kind = INSTRUMENT_METHODS.get(func.attr)
            elif isinstance(func, ast.Name):
                kind = aliases.get(func.id)
                if kind is None and func.id in (
                    "counter",
                    "gauge",
                    "histogram",
                ):
                    kind = func.id
            if kind is None:
                continue
            name_node = node.args[0] if node.args else None
            if isinstance(name_node, ast.Constant) and isinstance(
                name_node.value, str
            ):
                out.append((name_node, kind))
        return out
