"""SC004: Bloom bit arrays and counters mutate only through the core.

The Section V-C overflow analysis (4-bit counters overflow with
probability 1.37e-15 per entry) holds only when every increment and
decrement travels through :class:`~repro.core.bitarray.CounterArray`'s
own methods, called by :class:`~repro.summaries.bloom.BloomSummary`,
which validate underflow and journal the 0 <-> 1 transitions a delta
update needs.  A stray ``filter.bits.set(...)`` in a
simulator desynchronizes the shipped copy from the counters without any
runtime error.

The same discipline covers placement state: the hash ring and the
:class:`~repro.placement.live.Placement` wrapper keep every proxy's
owner derivation in agreement, which only holds while membership
changes travel through their public API.  Reaching into ring internals
(``placement._ring``, ``ring._points``) from a caller would let one
proxy's view drift from its peers' with no runtime error, so those
privates are touched only through ``self``, by their own object.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.astutil import dotted_name
from repro.lint.framework import FileContext, Finding, Rule, register

#: Attribute names that hold a BitArray / CounterArray on the summary
#: structures (``BloomFilter.bits``, ``BloomSummary.counters``).
STORAGE_ATTRIBUTES = ("bits", "counters")

#: Mutating methods of BitArray / CounterArray.
MUTATOR_METHODS = (
    "set",
    "set_many",
    "write_many",
    "reset",
    "add_at",
    "remove_at",
    "apply_flips",
)

#: Private storage internals of BitArray / CounterArray; touching these
#: anywhere outside core/ is always a violation.
PRIVATE_STORAGE_ATTRIBUTES = ("_buf", "_flags")

#: Private internals of HashRing / Placement; only the object itself
#: touches these (membership changes go through the public
#: with_member / add_member API, which keeps every proxy's owner
#: derivation consistent).
PLACEMENT_PRIVATE_ATTRIBUTES = ("_ring", "_points", "_self_name")


@register
class SummaryEncapsulation(Rule):
    """Flag direct bit/counter mutation outside ``core/``/``summaries/``."""

    id = "SC004"
    title = (
        "no direct BitArray/counter mutation outside core and "
        "summaries; placement/ring internals only through self"
    )
    rationale = (
        "Section V-C's counter overflow bound assumes disciplined "
        "increments/decrements through the counting filter; direct bit "
        "twiddling desynchronizes summaries from their counters.  "
        "Likewise owner derivation assumes ring membership only ever "
        "changes through repro.placement's public API."
    )
    scopes = ("repro",)
    exempt = ("repro/core", "repro/summaries")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_STORAGE_ATTRIBUTES
                and not self._is_self_access(node.value)
            ):
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        f"access to private storage field .{node.attr} "
                        "outside repro.core",
                    )
                )
            if (
                isinstance(node, ast.Attribute)
                and node.attr in PLACEMENT_PRIVATE_ATTRIBUTES
                and not self._is_self_access(node.value)
            ):
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        f"access to placement internal .{node.attr} "
                        "of another object; go through the "
                        "repro.placement Placement / HashRing public "
                        "API instead",
                    )
                )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # ``<x>.bits.set(...)``: the receiver's last attribute names
            # bit or counter storage.
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in STORAGE_ATTRIBUTES
            ):
                owner = dotted_name(func.value) or func.value.attr
                findings.append(
                    ctx.finding(
                        self.id,
                        node,
                        f"direct mutation {owner}.{func.attr}(...) "
                        "outside repro.core/repro.summaries; go "
                        "through BloomSummary / the summary "
                        "backend instead",
                    )
                )
        return iter(findings)

    @staticmethod
    def _is_self_access(node: ast.expr) -> bool:
        """True for ``self._buf``-style access (a class's own internals)."""
        return isinstance(node, ast.Name) and node.id == "self"
