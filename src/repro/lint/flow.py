"""Flow-sensitive analysis core: CFGs over ``async def`` bodies.

The other rules are syntax walkers: they look at one node at a time.
SC007 needs *order* -- "a read of ``self._placement`` happens, then an
``await`` yields the event loop, then a write lands" is a statement
about paths, not nodes.  This module builds that path structure:

- :func:`build_flow_graph` turns one function into basic blocks of
  ordered :class:`Event` records (reads/writes of ``self.<attr>``,
  await points, raises) linked by normal and exceptional successor
  edges;
- :func:`class_method_effects` computes, per class, the transitive
  ``self``-attribute read/write sets of every method, so a call like
  ``self.remove_peer(...)`` expands to the placement/peer-table writes
  it performs.

Everything here is dependency-free ``ast`` analysis; the asyncio model
is the cooperative one the proxy relies on: **code between two awaits
is atomic**, every ``await`` is a preemption (and cancellation) point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

#: Virtual block index meaning "the function returned or the exception
#: escaped" -- the target of return edges and uncaught-raise edges.
EXIT = -1

#: Method names treated as *mutations* of the object they are called
#: on: ``self._pending.pop(...)`` is a write of ``_pending``.  Covers
#: the builtin container verbs plus this project's domain mutators.
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        # builtin containers
        "append", "extend", "insert", "add", "discard", "remove",
        "pop", "popitem", "clear", "update", "setdefault",
        # repro domain objects
        "put", "publish", "grow", "on_insert", "on_evict",
        "add_member", "remove_member", "acquire", "release",
        "set_result", "set_exception", "cancel",
        "apply_delta", "reset_slot", "drop_slot",
    }
)

#: Event kinds that can raise and therefore carry exceptional edges.
CAN_RAISE_KINDS: FrozenSet[str] = frozenset({"await", "raise"})

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class Event:
    """One atomic action on some path through a function.

    ``kind`` is one of ``read``/``write`` (of the ``self``-attribute in
    ``attr``), ``await``, ``raise``.  ``derived`` marks read/write
    events inferred from the effect set of a called ``self.<method>``
    rather than written in place.  ``exc_targets`` are the block
    indices an exception raised here may continue at (ending with
    :data:`EXIT` when it can escape the function).
    """

    kind: str
    node: ast.AST
    attr: str = ""
    derived: bool = False
    exc_targets: Tuple[int, ...] = ()


@dataclass
class Block:
    """A straight-line run of events plus its normal successors."""

    idx: int
    events: List[Event] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)


#: An event's position: ``(block index, event index)``.
EventPos = Tuple[int, int]

#: The virtual position representing function exit.
EXIT_POS: EventPos = (EXIT, 0)


@dataclass(frozen=True)
class MethodEffects:
    """Transitive ``self``-attribute effect sets of one method."""

    reads: FrozenSet[str] = frozenset()
    writes: FrozenSet[str] = frozenset()


class FlowGraph:
    """The CFG of one function: blocks of events, entry block 0."""

    def __init__(self, blocks: List[Block]) -> None:
        self.blocks = blocks

    def events(self) -> Iterator[Tuple[EventPos, Event]]:
        """Every event with its position, in block/statement order."""
        for block in self.blocks:
            for i, event in enumerate(block.events):
                yield (block.idx, i), event

    def _block_entries(
        self, idx: int, seen: Optional[Set[int]] = None
    ) -> List[EventPos]:
        """First event position(s) reachable by entering block *idx*,
        skipping through empty blocks (``EXIT`` propagates as
        :data:`EXIT_POS`)."""
        if idx == EXIT:
            return [EXIT_POS]
        seen = seen if seen is not None else set()
        if idx in seen:
            return []
        seen.add(idx)
        block = self.blocks[idx]
        if block.events:
            return [(idx, 0)]
        out: List[EventPos] = []
        for succ in block.succs:
            out.extend(self._block_entries(succ, seen))
        return out

    def successors(self, pos: EventPos) -> List[EventPos]:
        """Positions control may reach immediately after *pos*,
        including exceptional continuations of can-raise events."""
        block_idx, event_idx = pos
        if block_idx == EXIT:
            return []
        block = self.blocks[block_idx]
        event = block.events[event_idx]
        out: List[EventPos] = []
        if event_idx + 1 < len(block.events):
            out.append((block_idx, event_idx + 1))
        else:
            for succ in block.succs:
                out.extend(self._block_entries(succ))
        if event.kind in CAN_RAISE_KINDS:
            for target in event.exc_targets:
                out.extend(self._block_entries(target))
        return out


@dataclass
class _ExcLevel:
    """One enclosing try context during construction.

    ``stops`` means an exception cannot propagate past this level on
    its own: the level has a ``finally`` suite, and the exception flows
    *into* the finally, whose own outgoing edges model the re-raise.
    Handlers never stop it: the model does not match exception types,
    so an exception may pass any handler.
    """

    targets: List[int]
    stops: bool


class _CfgBuilder:
    """Single-pass recursive CFG construction for one function body."""

    def __init__(self, effects: Dict[str, MethodEffects]) -> None:
        self._effects = effects
        self.blocks: List[Block] = []
        self._cur = self._new_block()
        #: (continue target, break target) per enclosing loop.
        self._loops: List[Tuple[int, int]] = []
        self._exc: List[_ExcLevel] = []

    # -- plumbing ------------------------------------------------------

    def _new_block(self) -> int:
        block = Block(idx=len(self.blocks))
        self.blocks.append(block)
        return block.idx

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)

    def _emit(self, event: Event) -> None:
        if event.kind in CAN_RAISE_KINDS:
            event.exc_targets = self._exc_chain()
        self.blocks[self._cur].events.append(event)

    def _exc_chain(self) -> Tuple[int, ...]:
        """Blocks an exception raised *here* may continue at."""
        out: List[int] = []
        for level in reversed(self._exc):
            out.extend(level.targets)
            if level.stops:
                return tuple(out)
        out.append(EXIT)
        return tuple(out)

    # -- function entry ------------------------------------------------

    def build(self, func: AnyFunc) -> FlowGraph:
        self._stmts(func.body)
        self._edge(self._cur, EXIT)
        return FlowGraph(self.blocks)

    # -- statements ----------------------------------------------------

    def _stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, ast.While):
            self._while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
            self._edge(self._cur, EXIT)
            self._cur = self._new_block()
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._expr(stmt.exc)
            self._emit(Event("raise", stmt))
            self._cur = self._new_block()
        elif isinstance(stmt, ast.Break):
            if self._loops:
                self._edge(self._cur, self._loops[-1][1])
            self._cur = self._new_block()
        elif isinstance(stmt, ast.Continue):
            if self._loops:
                self._edge(self._cur, self._loops[-1][0])
            self._cur = self._new_block()
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._store_target(target)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            self._store_target(stmt.target, aug=True)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._store_target(stmt.target)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._store_target(target)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Assert):
            self._expr(stmt.test)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass  # a nested definition's body is not on this CFG
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _if(self, stmt: ast.If) -> None:
        self._expr(stmt.test)
        cond = self._cur
        after = self._new_block()
        then_entry = self._new_block()
        self._edge(cond, then_entry)
        self._cur = then_entry
        self._stmts(stmt.body)
        self._edge(self._cur, after)
        if stmt.orelse:
            else_entry = self._new_block()
            self._edge(cond, else_entry)
            self._cur = else_entry
            self._stmts(stmt.orelse)
            self._edge(self._cur, after)
        else:
            self._edge(cond, after)
        self._cur = after

    def _while(self, stmt: ast.While) -> None:
        header = self._new_block()
        self._edge(self._cur, header)
        self._cur = header
        self._expr(stmt.test)
        header_end = self._cur
        after = self._new_block()
        body_entry = self._new_block()
        self._edge(header_end, body_entry)
        self._edge(header_end, after)
        self._loops.append((header, after))
        self._cur = body_entry
        self._stmts(stmt.body)
        self._edge(self._cur, header)
        self._loops.pop()
        if stmt.orelse:
            self._cur = after
            self._stmts(stmt.orelse)
        self._cur = after

    def _for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        self._expr(stmt.iter)
        header = self._new_block()
        self._edge(self._cur, header)
        self._cur = header
        if isinstance(stmt, ast.AsyncFor):
            self._emit(Event("await", stmt))
        self._store_target(stmt.target)
        header_end = self._cur
        after = self._new_block()
        body_entry = self._new_block()
        self._edge(header_end, body_entry)
        self._edge(header_end, after)
        self._loops.append((header, after))
        self._cur = body_entry
        self._stmts(stmt.body)
        self._edge(self._cur, header)
        self._loops.pop()
        if stmt.orelse:
            self._cur = after
            self._stmts(stmt.orelse)
        self._cur = after

    def _try(self, stmt: ast.Try) -> None:
        handler_entries = [self._new_block() for _ in stmt.handlers]
        final_entry = self._new_block() if stmt.finalbody else None
        after = self._new_block()

        level_targets = list(handler_entries)
        if final_entry is not None:
            level_targets.append(final_entry)
        self._exc.append(
            _ExcLevel(targets=level_targets, stops=final_entry is not None)
        )
        self._stmts(stmt.body)
        body_exit = self._cur
        self._exc.pop()

        # else runs only when the body fell through normally.
        if stmt.orelse:
            else_entry = self._new_block()
            self._edge(body_exit, else_entry)
            self._cur = else_entry
            self._stmts(stmt.orelse)
            body_exit = self._cur

        join = final_entry if final_entry is not None else after
        self._edge(body_exit, join)

        # Handlers run with the try level popped (an exception inside a
        # handler propagates outward), but still inside any finally.
        if final_entry is not None:
            self._exc.append(
                _ExcLevel(targets=[final_entry], stops=True)
            )
        for handler, entry in zip(stmt.handlers, handler_entries):
            self._cur = entry
            self._stmts(handler.body)
            self._edge(self._cur, join)
        if final_entry is not None:
            self._exc.pop()

        if final_entry is not None:
            self._cur = final_entry
            self._stmts(stmt.finalbody)
            # Normal continuation, plus onward propagation for the
            # exceptional entries the finally intercepted.
            self._edge(self._cur, after)
            for target in self._exc_chain():
                self._edge(self._cur, target)
        self._cur = after

    def _with(self, stmt: Union[ast.With, ast.AsyncWith]) -> None:
        for item in stmt.items:
            self._expr(item.context_expr)
            if item.optional_vars is not None:
                self._store_target(item.optional_vars)
        if isinstance(stmt, ast.AsyncWith):
            self._emit(Event("await", stmt))  # __aenter__
        self._stmts(stmt.body)
        if isinstance(stmt, ast.AsyncWith):
            self._emit(Event("await", stmt))  # __aexit__

    # -- expressions and effects --------------------------------------

    def _store_target(self, target: ast.expr, aug: bool = False) -> None:
        """Write events for a store/del target (``self.attr`` forms)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store_target(elt)
            return
        attr = _self_attr_of_store(target)
        if attr is not None:
            self._emit(Event("write", target, attr=attr))
            return
        if isinstance(target, ast.Subscript):
            self._expr(target.slice)
            self._expr(target.value)
        elif isinstance(target, ast.Attribute):
            self._expr(target.value)

    def _expr(self, node: Optional[ast.expr]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Await):
            self._await(node)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if getattr(node, "value", None) is not None:
                self._expr(node.value)
            self._emit(Event("await", node))
        elif isinstance(node, ast.Call):
            self._call(node, awaited=False)
        elif isinstance(node, ast.Attribute):
            attr = _self_attr_of_load(node)
            if attr is not None:
                self._emit(Event("read", node, attr=attr))
            else:
                self._expr(node.value)
        elif isinstance(node, ast.Lambda):
            pass  # a lambda body runs when called, not here
        elif isinstance(
            node,
            (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            for comp in node.generators:
                self._expr(comp.iter)
                for cond in comp.ifs:
                    self._expr(cond)
            if isinstance(node, ast.DictComp):
                self._expr(node.key)
                self._expr(node.value)
            else:
                self._expr(node.elt)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._call(node.value, awaited=True)
        else:
            self._expr(node.value)
            self._emit(Event("await", node))

    def _call(self, call: ast.Call, awaited: bool) -> None:
        for arg in call.args:
            self._expr(arg)
        for kw in call.keywords:
            self._expr(kw.value)
        func = call.func
        # ``self.<attr>.<method>(...)``: a read or mutation of <attr>.
        owner = _self_attr_call(func)
        # ``self.<method>(...)``: expand the method's effect sets.
        self_method = _self_method(func)

        if awaited:
            # The callee's effects land *during* the suspension, so the
            # await event precedes them on the path.
            self._emit(Event("await", call))
        if owner is not None:
            attr, kind = owner
            self._emit(Event(kind, call, attr=attr))
        elif self_method in self._effects:
            eff = self._effects[self_method]
            for attr in sorted(eff.reads):
                self._emit(Event("read", call, attr=attr, derived=True))
            for attr in sorted(eff.writes):
                self._emit(Event("write", call, attr=attr, derived=True))
        elif isinstance(func, ast.Attribute):
            self._expr(func.value)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _self_attr_of_load(node: ast.Attribute) -> Optional[str]:
    """The first attribute after ``self`` in a load chain, if any."""
    probe: ast.expr = node
    attr: Optional[str] = None
    while isinstance(probe, ast.Attribute):
        attr = probe.attr
        probe = probe.value
    if isinstance(probe, ast.Name) and probe.id == "self":
        return attr
    return None


def _self_attr_of_store(target: ast.expr) -> Optional[str]:
    """The ``self``-attribute a store target mutates, if any.

    ``self.x = v`` and ``self.x[k] = v`` and ``del self.x[k]`` all
    mutate ``x``; deeper chains attribute to the first hop.
    """
    probe: ast.expr = target
    if isinstance(probe, ast.Subscript):
        probe = probe.value
    if isinstance(probe, ast.Attribute):
        return _self_attr_of_load(probe)
    return None


def _self_method(func: ast.expr) -> str:
    """``m`` for a ``self.m`` call target, else the empty string."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return ""


def _self_attr_call(func: ast.expr) -> Optional[Tuple[str, str]]:
    """``(attr, kind)`` for a ``self.<attr>.<method>`` call target: a
    ``write`` of *attr* when *method* mutates it, else a ``read``."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id == "self"
    ):
        kind = "write" if func.attr in MUTATOR_METHODS else "read"
        return func.value.attr, kind
    return None


# ----------------------------------------------------------------------
# Class effect sets
# ----------------------------------------------------------------------


class _EffectCollector(ast.NodeVisitor):
    """Direct (non-transitive) effect scan of one method body."""

    def __init__(self) -> None:
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.calls: Set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:
        owner = _self_attr_call(node.func)
        if owner is not None:
            attr, kind = owner
            (self.writes if kind == "write" else self.reads).add(attr)
            for arg in node.args:
                self.visit(arg)
            for kw in node.keywords:
                self.visit(kw.value)
            return
        method = _self_method(node.func)
        if method:
            self.calls.add(method)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr_of_load(node)
        if attr is None:
            self.generic_visit(node)
            return
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.writes.add(attr)
        else:
            self.reads.add(attr)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
            node.value, ast.Attribute
        ):
            attr = _self_attr_of_load(node.value)
            if attr is not None:
                self.writes.add(attr)
                self.visit(node.slice)
                return
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs' effects are not this method's

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass


def class_method_effects(cls: ast.ClassDef) -> Dict[str, MethodEffects]:
    """Per-method transitive ``self``-attribute effect sets.

    A call ``self.m(...)`` inside a method folds ``m``'s reads and
    writes into the caller's sets (fixpoint over the class-internal
    call graph), so rules see through helper layers like
    ``remove_peer -> _rebalance -> placement.remove_member``.
    """
    direct: Dict[str, _EffectCollector] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            collector = _EffectCollector()
            for body_stmt in stmt.body:
                collector.visit(body_stmt)
            direct[stmt.name] = collector

    reads = {name: set(c.reads) for name, c in direct.items()}
    writes = {name: set(c.writes) for name, c in direct.items()}
    changed = True
    while changed:
        changed = False
        for name, collector in direct.items():
            for callee in collector.calls:
                if callee not in direct:
                    continue
                if not reads[callee] <= reads[name]:
                    reads[name] |= reads[callee]
                    changed = True
                if not writes[callee] <= writes[name]:
                    writes[name] |= writes[callee]
                    changed = True
    return {
        name: MethodEffects(
            reads=frozenset(reads[name]),
            writes=frozenset(writes[name]),
        )
        for name in direct
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def iter_async_functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AsyncFunctionDef]]:
    """Every ``async def`` in *tree* with its enclosing class (if any),
    including methods of nested classes; nested function bodies are
    visited too (each gets its own graph)."""

    def walk(
        node: ast.AST, cls: Optional[ast.ClassDef]
    ) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AsyncFunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            else:
                if isinstance(child, ast.AsyncFunctionDef):
                    yield cls, child
                yield from walk(child, cls)

    yield from walk(tree, None)


def build_flow_graph(
    func: AnyFunc, effects: Optional[Dict[str, MethodEffects]] = None
) -> FlowGraph:
    """The CFG of *func* (effect expansion for ``self.m()`` calls when
    *effects* is the enclosing class's effect table)."""
    return _CfgBuilder(effects if effects is not None else {}).build(func)
