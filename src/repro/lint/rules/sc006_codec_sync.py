"""SC006: codec representation ids stay in sync with the wire doc.

``summaries/codec.py`` maps summary kinds to the wire representation
ids of ``protocol/wire.py``; ``docs/wire-protocol.md`` documents the
same table for implementers of other stacks.  The three must agree --
an id drift would make a proxy route a DIRUPDATE payload to the wrong
decoder, the exact failure class the Options-field tagging exists to
prevent.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.astutil import int_value, single_name_assign, string_value
from repro.lint.framework import FileContext, Finding, Rule, register

#: One doc table row: | 0 | `REPR_BLOOM` | ... |
_DOC_ROW_RE = re.compile(
    r"^\|\s*(?P<id>\d+)\s*\|\s*`(?P<name>REPR_[A-Z_]+)`\s*\|"
)


@register
class CodecDocSync(Rule):
    """Cross-check codec kinds, wire REPR constants, and the doc table."""

    id = "SC006"
    title = "codec representation ids match protocol/wire.py and the doc"
    rationale = (
        "The Options-field representation id routes DIRUPDATE payloads "
        "(Section VI-A extension); an id drift between codec, wire "
        "constants, and docs/wire-protocol.md mis-decodes peer updates."
    )
    scopes = ("repro/summaries/codec.py",)

    doc_name = "wire-protocol.md"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []

        mapping = self._kind_mapping(ctx.tree)
        if mapping is None:
            findings.append(
                ctx.finding(
                    self.id,
                    1,
                    "no KIND_TO_REPRESENTATION dict literal of "
                    "{kind: REPR_* constant} found",
                )
            )
            return iter(findings)
        mapping_node, entries = mapping

        constants = self._wire_constants(ctx)
        if constants:
            for kind, (repr_name, node) in sorted(entries.items()):
                if repr_name not in constants:
                    findings.append(
                        ctx.finding(
                            self.id,
                            node,
                            f"kind {kind!r} maps to {repr_name}, which "
                            "protocol/wire.py does not define",
                        )
                    )
            covered = {repr_name for repr_name, _ in entries.values()}
            for repr_name in sorted(set(constants) - covered):
                findings.append(
                    ctx.finding(
                        self.id,
                        mapping_node,
                        f"wire constant {repr_name} "
                        f"(id {constants[repr_name]}) has no "
                        "KIND_TO_REPRESENTATION entry",
                    )
                )

        doc = ctx.project.read_doc(self.doc_name)
        if doc is not None and constants:
            findings.extend(self._check_doc(ctx, doc, constants))
        return iter(findings)

    # ------------------------------------------------------------------

    def _kind_mapping(
        self, tree: ast.Module
    ) -> Optional[Tuple[ast.AST, Dict[str, Tuple[str, ast.AST]]]]:
        """The ``KIND_TO_REPRESENTATION`` literal: kind -> (REPR name, node)."""
        for node in tree.body:
            assign = single_name_assign(node)
            if assign is None:
                continue
            name, value_node = assign
            if name != "KIND_TO_REPRESENTATION" or not isinstance(
                value_node, ast.Dict
            ):
                continue
            entries: Dict[str, Tuple[str, ast.AST]] = {}
            for key, value in zip(value_node.keys, value_node.values):
                kind = string_value(key) if key is not None else None
                if kind is None or not isinstance(value, ast.Name):
                    return None
                entries[kind] = (value.id, value)
            return node, entries
        return None

    def _wire_constants(self, ctx: FileContext) -> Dict[str, int]:
        """``REPR_* -> id`` parsed from the sibling ``protocol/wire.py``
        (empty when it is missing or does not parse)."""
        wire_path = ctx.path.parent.parent / "protocol" / "wire.py"
        try:
            tree = ast.parse(wire_path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return {}
        out: Dict[str, int] = {}
        for node in tree.body:
            assign = single_name_assign(node)
            if assign is None or not assign[0].startswith("REPR_"):
                continue
            value = int_value(assign[1])
            if value is not None:
                out[assign[0]] = value
        return out

    def _check_doc(
        self, ctx: FileContext, doc: str, constants: Dict[str, int]
    ) -> List[Finding]:
        findings: List[Finding] = []
        doc_path = f"docs/{self.doc_name}"
        documented: Dict[str, Tuple[int, int]] = {}
        for lineno, line_text in enumerate(doc.splitlines(), start=1):
            match = _DOC_ROW_RE.match(line_text.strip())
            if match is not None:
                documented[match.group("name")] = (
                    int(match.group("id")),
                    lineno,
                )
        for name, value in sorted(constants.items()):
            entry = documented.get(name)
            if entry is None:
                findings.append(
                    ctx.finding(
                        self.id,
                        1,
                        f"wire constant {name} (id {value}) is missing "
                        f"from {doc_path}'s representation table",
                    )
                )
            elif entry[0] != value:
                findings.append(
                    Finding(
                        path=doc_path,
                        line=entry[1],
                        col=0,
                        rule=self.id,
                        message=(
                            f"{name} documented as id {entry[0]} but "
                            f"protocol/wire.py defines {value}"
                        ),
                    )
                )
        for name, (value, lineno) in sorted(documented.items()):
            if name not in constants:
                findings.append(
                    Finding(
                        path=doc_path,
                        line=lineno,
                        col=0,
                        rule=self.id,
                        message=(
                            f"documented representation {name} "
                            f"(id {value}) is not defined in "
                            "protocol/wire.py"
                        ),
                    )
                )
        return findings
