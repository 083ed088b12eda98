"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Map the local names an import renames to the dotted names bound.

    ``import numpy as np`` yields ``{"np": "numpy"}``; ``from time
    import sleep as zz`` yields ``{"zz": "time.sleep"}``.  A plain
    ``import time`` needs no entry: an unmapped root stands for itself.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_name(
    func: ast.AST, imports: Dict[str, str]
) -> Optional[str]:
    """The fully-qualified dotted name a call target resolves to.

    The chain's root name is looked up in *imports*, so both
    ``time.sleep(...)`` and ``from time import sleep; sleep(...)``
    resolve to ``"time.sleep"``.  Unresolvable targets (calls on call
    results, subscripts, ...) return ``None``.
    """
    name = dotted_name(func)
    if name is None:
        return None
    root, dot, rest = name.partition(".")
    resolved_root = imports.get(root, root)
    return resolved_root + dot + rest if dot else resolved_root


def single_name_assign(
    node: ast.stmt,
) -> Optional[Tuple[str, ast.expr]]:
    """``(name, value)`` for ``NAME = value`` or ``NAME: T = value``.

    Annotated assignments count: adding a type annotation to a constant
    must not make it invisible to the rules.  Tuple targets, attribute
    targets, and bare annotations (no value) return ``None``.
    """
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target.id, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            return node.target.id, node.value
    return None


def string_value(node: ast.AST) -> Optional[str]:
    """The value of a string-literal node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def int_value(node: ast.AST) -> Optional[int]:
    """The value of an int-literal node, else ``None``."""
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None
