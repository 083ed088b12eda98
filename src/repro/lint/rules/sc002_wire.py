"""SC002: wire ``struct`` formats are explicit network byte order and
their computed sizes match the declared header-size constants.

The SC-ICP layout of Section VI is defined big-endian; a host-order
format string would interoperate only between same-endian peers, and a
header constant drifting from its format string silently corrupts every
offset computation downstream (MTU budgeting, payload slicing).
"""

from __future__ import annotations

import ast
import struct as struct_mod
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.astutil import (
    import_map,
    resolve_call_name,
    single_name_assign,
    string_value,
)
from repro.lint.framework import FileContext, Finding, Rule, register

#: ``struct`` functions whose first argument is a format string.
STRUCT_FUNCTIONS = (
    "struct.pack",
    "struct.pack_into",
    "struct.unpack",
    "struct.unpack_from",
    "struct.iter_unpack",
    "struct.calcsize",
    "struct.Struct",
)

#: Module-level ``_NAME = struct.Struct(...)`` assignments whose size
#: constant does not follow the ``NAME_SIZE`` naming pattern.
SIZE_CONSTANT_ALIASES: Dict[str, str] = {
    "_HEADER": "ICP_HEADER_SIZE",
}


def _format_text(node: ast.AST) -> Optional[str]:
    """A format's statically known text, else ``None``.

    A string literal is known whole.  An f-string is known when it
    starts with literal text: its computed fields can only be repeat
    counts (``f"!{count}I"`` packs *count* records in one call), so
    they read as ``1`` and the byte order stays checkable.
    """
    text = string_value(node)
    if text is not None or not isinstance(node, ast.JoinedStr):
        return text
    parts = [string_value(value) for value in node.values]
    if not parts or parts[0] is None:
        return None
    return "".join("1" if part is None else part for part in parts)


def _expected_size_constant(struct_name: str) -> str:
    """``_DIRUPDATE_HEADER`` -> ``DIRUPDATE_HEADER_SIZE`` (and aliases)."""
    alias = SIZE_CONSTANT_ALIASES.get(struct_name)
    if alias is not None:
        return alias
    return struct_name.lstrip("_") + "_SIZE"


@register
class WireFormatByteOrder(Rule):
    """Check byte order and header-size consistency of struct formats."""

    id = "SC002"
    title = "wire struct formats: network byte order + size constants"
    rationale = (
        "Section VI-A defines the SC-ICP header layout big-endian; every "
        "format string must carry an explicit '!' and computed header "
        "sizes must match the declared *_SIZE constants."
    )
    scopes = ("repro",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = import_map(ctx.tree)
        findings: List[Finding] = []

        int_constants: Dict[str, int] = {}
        struct_assigns: List[Tuple[str, ast.Call, str]] = []

        for node in ctx.tree.body:
            assigned = single_name_assign(node)
            if assigned is None:
                continue
            target, value = assigned
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                int_constants[target] = value.value
            elif isinstance(value, ast.Call):
                name = resolve_call_name(value.func, imports)
                if name == "struct.Struct":
                    fmt = self._format_arg(value)
                    if fmt is not None:
                        struct_assigns.append((target, value, fmt))

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, imports)
            if name not in STRUCT_FUNCTIONS:
                continue
            fmt_node = node.args[0] if node.args else None
            if fmt_node is None:
                continue
            fmt = _format_text(fmt_node)
            if fmt is None:
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        f"{name}() format is not a string literal; "
                        "wire formats must be statically verifiable",
                    )
                )
                continue
            if not fmt.startswith("!"):
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        f"struct format {fmt!r} does not use explicit "
                        "network byte order ('!')",
                    )
                )

        for target, call, fmt in struct_assigns:
            const_name = _expected_size_constant(target)
            declared = int_constants.get(const_name)
            if declared is None:
                continue
            try:
                computed = struct_mod.calcsize(fmt)  # sc-lint: disable=SC002
            except struct_mod.error:
                findings.append(
                    ctx.finding(
                        self.id, call, f"invalid struct format {fmt!r}"
                    )
                )
                continue
            if computed != declared:
                findings.append(
                    ctx.finding(
                        self.id,
                        call,
                        f"struct format {fmt!r} packs {computed} bytes "
                        f"but {const_name} declares {declared}",
                    )
                )

        return iter(findings)

    @staticmethod
    def _format_arg(call: ast.Call) -> Optional[str]:
        if call.args:
            return string_value(call.args[0])
        return None
