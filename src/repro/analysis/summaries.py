"""Bounded-depth function summaries over the call graph.

Each function gets one :class:`FunctionSummary` describing the facts the
cross-call rules compose:

* **locks** — every ``with <lock>:`` acquisition, under a *canonical*
  lock identity (``repro.distributed.master.Master.lock``) derived by
  typing the receiver chain;
* **scopes** — whether the function declares its caller's obligation
  with a ``lock.require_held()`` guard;
* **refcounts** — whether the function returns a value it incref'd
  (a *counted return*: the caller inherits the discharge obligation).

:class:`SummaryIndex` memoizes the transitive closures the rules need —
``transitive_locks`` (what a call may acquire downstream, with the
witness call chain) and the one global lock-order graph that LOCK001,
CONC001, CONC002 and ``--sanitize`` all read — bounded by
:data:`MAX_SUMMARY_DEPTH` so recursion and deep towers degrade to
"unknown" instead of diverging.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.analysis import dataflow
from repro.analysis.symbols import call_tail

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import FunctionInfo, ProgramContext
    from repro.analysis.framework import FileContext

#: Call-chain depth beyond which summaries stop composing.
MAX_SUMMARY_DEPTH = 8

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_WITH_NODES = (ast.With, ast.AsyncWith)


def is_lock_expr(expr: ast.expr) -> bool:
    """A ``with`` item is a lock because of what it *is*: the terminal
    name of its expression (``self._lock``, ``self.master.lock``,
    ``self._holding_lock()``) ends in ``lock``.  Call arguments never
    count — ``tracer.span("device.read", blocks=n)`` is a span."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    name = (getattr(target, "attr", None) or getattr(target, "id", "")).lower()
    return name.endswith("lock") and not name.endswith("block")


def inside_lock_with(ctx: "FileContext", node: ast.AST) -> bool:
    """Whether ``node`` sits, within its own function, lexically inside
    any ``with <lock>:``."""
    for ancestor in ctx.symbols.ancestors(node):
        if isinstance(ancestor, _FUNCTION_NODES):
            return False
        if isinstance(ancestor, _WITH_NODES):
            if any(is_lock_expr(item.context_expr) for item in ancestor.items):
                return True
    return False


@dataclass(frozen=True)
class LockEdge:
    """``inner`` is acquired at ``path:line`` while ``outer`` is held."""

    outer: str
    inner: str
    path: str
    line: int
    #: function qualnames witnessing the edge, outermost caller first; a
    #: one-element chain is a lexical nesting inside that function.
    chain: tuple[str, ...]


@dataclass
class FunctionSummary:
    qualname: str
    #: canonical names of the ``with`` acquisitions in the function's own body.
    locks: list[str] = field(default_factory=list)
    #: calls ``<lock>.require_held()`` — obligation passed to callers.
    declares_require_held: bool = False
    #: returns a value the function itself incref'd.
    counted_return: bool = False


class SummaryIndex:
    """Per-function summaries plus their memoized transitive closures."""

    def __init__(self, program: "ProgramContext") -> None:
        self.program = program
        self.summaries: dict[str, FunctionSummary] = {}
        self._transitive: dict[str, dict[str, tuple[str, ...]]] = {}
        self._counted: dict[str, bool] = {}
        self._lock_edges: Optional[list[LockEdge]] = None
        for info in program.functions.values():
            self.summaries[info.qualname] = self._summarize(info)

    # -- direct facts -------------------------------------------------------
    def _summarize(self, info: "FunctionInfo") -> FunctionSummary:
        summary = FunctionSummary(qualname=info.qualname)
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.Call,) + _WITH_NODES):
                continue
            if info.ctx.symbols.enclosing_function(node) is not info.node:
                continue  # belongs to a nested function
            if isinstance(node, ast.Call):
                if call_tail(node) == "require_held":
                    summary.declares_require_held = True
            else:
                summary.locks.extend(name for name, __ in self._with_locks(info, node))
        summary.counted_return = self._direct_counted_return(info)
        return summary

    def _with_locks(
        self, info: "FunctionInfo", node: ast.With | ast.AsyncWith
    ) -> list[tuple[str, int]]:
        """``(canonical name, line)`` of one ``with`` statement's lock
        items, in acquisition (left to right) order."""
        return [
            (self.canonical_lock(info, item.context_expr), item.context_expr.lineno)
            for item in node.items
            if is_lock_expr(item.context_expr)
        ]

    def canonical_lock(self, info: "FunctionInfo", expr: ast.expr) -> str:
        """Canonical identity of a lock-like ``with`` item.

        ``self.master.lock`` canonicalizes through the typed receiver to
        ``repro.distributed.master.Master.lock`` so the same lock object
        gets one name no matter which module acquires it.  Untypeable
        receivers fall back to a module-local spelling, which still
        dedupes acquisitions within one file.
        """
        if isinstance(expr, ast.Attribute):
            env = self.program.local_env(info)
            direct, __ = self.program.expr_types(info, env, expr.value)
            if direct:
                return f"{sorted(direct)[0]}.{expr.attr}"
        return f"{info.module}:{ast.unparse(expr)}"

    def _direct_counted_return(self, info: "FunctionInfo") -> bool:
        counted: set[str] = set()
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Call)
                and call_tail(node) == "incref"
                and len(node.args) == 1
                and info.ctx.symbols.enclosing_function(node) is info.node
            ):
                counted.add(ast.unparse(node.args[0]))
        if not counted:
            return False
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Return)
                and node.value is not None
                and info.ctx.symbols.enclosing_function(node) is info.node
            ):
                if any(dataflow.mentions(node.value, src) for src in counted):
                    return True
        return False

    # -- transitive closures ------------------------------------------------
    def transitive_locks(
        self, qualname: str, depth: int = 0
    ) -> dict[str, tuple[str, ...]]:
        """canonical lock -> witness call chain (ending at the acquirer).

        The chain starts at ``qualname`` itself; direct acquisitions get
        the one-element chain.  Recursion and towers deeper than
        :data:`MAX_SUMMARY_DEPTH` contribute nothing (bounded summary).
        """
        if depth > MAX_SUMMARY_DEPTH:
            return {}
        cached = self._transitive.get(qualname)
        if cached is not None:
            return cached
        self._transitive[qualname] = {}  # in-progress: recursion sees nothing
        acquired: dict[str, tuple[str, ...]] = {}
        summary = self.summaries.get(qualname)
        if summary is not None:
            for canonical in summary.locks:
                acquired.setdefault(canonical, (qualname,))
        for edge, __ in self.program.calls_from.get(qualname, ()):
            for canonical, chain in self.transitive_locks(
                edge.callee, depth + 1
            ).items():
                acquired.setdefault(canonical, (qualname,) + chain)
        self._transitive[qualname] = acquired
        return acquired

    def counted_return(self, qualname: str, depth: int = 0) -> bool:
        """Whether calling ``qualname`` hands back a counted reference.

        Direct (incref-then-return) or forwarded: ``return self._grab(x)``
        where ``_grab`` is itself a counted return.
        """
        if depth > MAX_SUMMARY_DEPTH:
            return False
        cached = self._counted.get(qualname)
        if cached is not None:
            return cached
        self._counted[qualname] = False  # in-progress guard
        summary = self.summaries.get(qualname)
        result = bool(summary and summary.counted_return)
        info = self.program.functions.get(qualname)
        if not result and info is not None:
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Call)
                    and info.ctx.symbols.enclosing_function(node) is info.node
                ):
                    for callee in self.program.resolve_call(info, node.value):
                        if self.counted_return(callee, depth + 1):
                            result = True
                            break
                if result:
                    break
        self._counted[qualname] = result
        return result

    def lock_order_edges(self) -> list[LockEdge]:
        """The whole-program lock acquisition-order graph, built once.

        For every ``with L:`` in every function, anything acquired under
        it adds an edge ``L -> M``: later items of the same ``with``,
        lexically nested ``with M:`` blocks, and the transitive
        acquisitions of every call made while ``L`` is held.  Every
        witnessing site is kept (sorted, so the first per lock pair is
        stable); ``L -> L`` is a re-acquisition.
        """
        if self._lock_edges is not None:
            return self._lock_edges
        edges: dict[tuple[str, str, str, int], LockEdge] = {}

        def add(outer: str, inner: str, path: str, line: int, chain: tuple[str, ...]) -> None:
            edges.setdefault(
                (outer, inner, path, line), LockEdge(outer, inner, path, line, chain)
            )

        for info in self.program.functions.values():
            path, here = info.ctx.path, (info.qualname,)
            for node in ast.walk(info.node):
                if not isinstance(node, _WITH_NODES):
                    continue
                if info.ctx.symbols.enclosing_function(node) is not info.node:
                    continue
                held = self._with_locks(info, node)
                if not held:
                    continue
                for index, (inner, line) in enumerate(held):
                    for outer, __ in held[:index]:
                        add(outer, inner, path, line, here)
                for body_stmt in node.body:
                    for child in ast.walk(body_stmt):
                        if info.ctx.symbols.enclosing_function(child) is not info.node:
                            continue
                        if isinstance(child, _WITH_NODES):
                            acquired = [
                                (inner, line, here)
                                for inner, line in self._with_locks(info, child)
                            ]
                        elif isinstance(child, ast.Call):
                            acquired = [
                                (inner, child.lineno, here + chain)
                                for callee in self.program.resolve_call(info, child)
                                for inner, chain in self.transitive_locks(callee).items()
                            ]
                        else:
                            continue
                        for inner, line, chain in acquired:
                            for outer, __ in held:
                                add(outer, inner, path, line, chain)
        self._lock_edges = [edges[key] for key in sorted(edges)]
        return self._lock_edges


def first_witnesses(edges: list[LockEdge]) -> dict[tuple[str, str], LockEdge]:
    """``(outer, inner)`` -> the first site witnessing that ordering of
    two distinct locks (re-acquisitions are LOCK001's finding alone)."""
    by_pair: dict[tuple[str, str], LockEdge] = {}
    for edge in edges:
        if edge.outer != edge.inner:
            by_pair.setdefault((edge.outer, edge.inner), edge)
    return by_pair


def find_lock_cycles(edges: list[LockEdge]) -> list[tuple[tuple[str, ...], list[LockEdge]]]:
    """Elementary cycles in the lock-order graph.

    Returns ``(cycle-node-tuple, edges-forming-it)`` pairs, each cycle
    reported once (rotated so its lexicographically smallest lock leads).
    """
    by_pair = first_witnesses(edges)
    adjacency: dict[str, list[LockEdge]] = {}
    for edge in by_pair.values():
        adjacency.setdefault(edge.outer, []).append(edge)
    cycles: dict[tuple[str, ...], list[LockEdge]] = {}

    def rotate(nodes: tuple[str, ...]) -> tuple[str, ...]:
        pivot = nodes.index(min(nodes))
        return nodes[pivot:] + nodes[:pivot]

    def dfs(start: str, current: str, path: list[str]) -> None:
        for edge in adjacency.get(current, ()):
            nxt = edge.inner
            if nxt == start:
                key = rotate(tuple(path))
                if key not in cycles:
                    ring = list(path) + [start]
                    cycles[key] = [
                        by_pair[(ring[i], ring[i + 1])] for i in range(len(path))
                    ]
            elif nxt not in path and len(path) <= MAX_SUMMARY_DEPTH:
                dfs(start, nxt, path + [nxt])

    for node in sorted(adjacency):
        dfs(node, node, [node])
    return sorted(cycles.items(), key=lambda item: item[0])
