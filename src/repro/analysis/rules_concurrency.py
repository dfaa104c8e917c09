"""CONC001 / CONC002 — concurrency-readiness rules for the MVCC arc.

Both rules read the whole-program call graph
(:mod:`repro.analysis.callgraph`) and the function summaries
(:mod:`repro.analysis.summaries`).

CONC001 — shared mutable state mutated outside a lock scope
-----------------------------------------------------------

Two shapes of shared state, in the concurrency-critical packages
(``repro.distributed`` / ``repro.storage`` / ``repro.core``):

* **module-level mutables** (dict/list/set literals, ``global`` writes)
  mutated from inside a function;
* **instance attributes** of the distributed-tier classes (master,
  chunk servers, cluster clients) mutated after construction.

A mutation site is accepted when it provably runs under a scope:
lexically inside ``with <lock>:``; in a method that declares its
caller's obligation via ``lock.require_held()``; or — the escape
analysis — in a method reachable *only* from ``__init__``
(constructor-local initialization never escapes to other sessions) or
whose every call site is itself scoped (bounded walk over the call
graph; unknown callers mean *not* scoped).

CONC002 — lock acquisition-order cycles
---------------------------------------

The function summaries induce one global lock-order graph: an edge
``L -> M`` whenever ``M`` can be acquired (directly or through calls)
while ``L`` is held.  Any cycle in that graph is a potential deadlock
under interleaving; each is reported once with the witness call chains
forming it (LOCK001 filters the same graph by tier rank).  The runtime
twin is :class:`repro.locks.LockOrderSanitizer`, which observes the
same edges dynamically.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.summaries import find_lock_cycles, inside_lock_with
from repro.analysis.symbols import call_tail

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Packages whose state the MVCC arc will share across sessions.
_SCOPE_PREFIXES = ("repro.distributed", "repro.storage", "repro.core", "repro.serving")

#: Method tails that mutate their receiver in place.
_MUTATOR_METHOD_TAILS = frozenset(
    {
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "insert",
        "extend",
        "remove",
        "discard",
        "clear",
        "setdefault",
    }
)

_MAX_WALK_DEPTH = 8

#: Constructor-like callables whose result is a fresh mutable.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque", "bytearray"}
)


def _is_mutable_literal(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        tail = call_tail(expr)
        return tail in _MUTABLE_FACTORIES
    return False


def _self_attr(expr: ast.expr) -> Optional[str]:
    """``self.X`` -> ``X`` (only one level deep — the published field)."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _receiver_self_attr(expr: ast.expr) -> Optional[str]:
    """The ``self.X`` root of an attribute/subscript chain, if any."""
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        attr = _self_attr(current)
        if attr is not None:
            return attr
        current = current.value
    return None


@register
class SharedStateChecker(Checker):
    rule_id = "CONC001"
    severity = Severity.ERROR
    description = (
        "shared mutable state (module globals, distributed-tier instance "
        "attributes) must only be mutated under a lock after construction"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        self._program = program
        self._init_only_memo: dict[str, bool] = {}
        self._always_scoped_memo: dict[str, bool] = {}
        for module in sorted(program.contexts):
            ctx = program.contexts[module]
            if not module.startswith(_SCOPE_PREFIXES):
                continue
            yield from self._check_module_globals(ctx)
            if module.startswith("repro.distributed"):
                yield from self._check_instance_attrs(ctx)

    # -- module-level mutables ---------------------------------------------
    def _check_module_globals(self, ctx: FileContext) -> Iterator[Finding]:
        shared: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                if _is_mutable_literal(stmt.value):
                    shared.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if _is_mutable_literal(stmt.value) and isinstance(
                    stmt.target, ast.Name
                ):
                    shared.add(stmt.target.id)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                shared.update(node.names)
        if not shared:
            return
        for func, qualname in ctx.symbols.functions:
            globals_declared = {
                name
                for node in ast.walk(func)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            locals_bound = self._local_bindings(func) - globals_declared
            for node in ast.walk(func):
                if ctx.symbols.enclosing_function(node) is not func:
                    continue
                target_name = self._global_mutation(node, shared, locals_bound)
                if target_name is None:
                    continue
                if inside_lock_with(ctx, node):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"{qualname}: module-level mutable {target_name!r} "
                    "mutated outside any lock scope — shared "
                    "across sessions once the MVCC arc lands",
                )

    def _local_bindings(self, func: ast.AST) -> set[str]:
        bound: set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                bound.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                bound.add(node.target.id)
        return bound

    def _global_mutation(
        self, node: ast.AST, shared: set[str], locals_bound: set[str]
    ) -> Optional[str]:
        def is_shared_name(expr: ast.expr) -> Optional[str]:
            if isinstance(expr, ast.Name) and expr.id in shared:
                return expr.id if expr.id not in locals_bound else None
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in shared:
                    # Rebinding a global requires a ``global`` decl; the
                    # locals filter already removed shadowers.
                    if target.id not in locals_bound:
                        return target.id
                if isinstance(target, ast.Subscript):
                    name = is_shared_name(target.value)
                    if name:
                        return name
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = is_shared_name(target.value)
                    if name:
                        return name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHOD_TAILS:
                name = is_shared_name(node.func.value)
                if name:
                    return name
        return None

    # -- distributed-tier instance attributes ------------------------------
    def _check_instance_attrs(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            class_qual = f"{ctx.module}.{node.name}"
            for method in node.body:
                if not isinstance(method, _FUNCTION_NODES):
                    continue
                method_qual = f"{class_qual}.{method.name}"
                for site in ast.walk(method):
                    if ctx.symbols.enclosing_function(site) is not method:
                        continue
                    attr = self._attr_mutation(site)
                    if attr is None:
                        continue
                    if self._method_scoped(method_qual, class_qual):
                        continue
                    if inside_lock_with(ctx, site):
                        continue
                    yield self.finding(
                        ctx,
                        site,
                        f"{node.name}.{method.name}: self.{attr} mutated "
                        "outside any lock scope after "
                        "construction — will race once sessions interleave",
                    )

    def _attr_mutation(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    return attr
                if isinstance(target, ast.Subscript):
                    attr = _receiver_self_attr(target.value)
                    if attr is not None:
                        return attr
        if isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _receiver_self_attr(target)
                if attr is not None:
                    return attr
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHOD_TAILS:
                attr = _receiver_self_attr(node.func.value)
                if attr is not None:
                    return attr
        return None

    def _declares_scope(self, qualname: str) -> bool:
        """A ``require_held`` guard handing the obligation up."""
        summary = self._program.summaries.summaries.get(qualname)
        return summary is not None and summary.declares_require_held

    def _method_scoped(self, method_qual: str, class_qual: str) -> bool:
        return (
            self._declares_scope(method_qual)
            or self._init_only(method_qual, class_qual)
            or self._always_scoped(method_qual)
        )

    def _init_only(self, method_qual: str, class_qual: str, depth: int = 0) -> bool:
        """Reachable only from ``__init__`` (constructor-local escape)."""
        if method_qual.rsplit(".", 1)[-1] == "__init__":
            return True
        if depth > _MAX_WALK_DEPTH:
            return False
        cached = self._init_only_memo.get(method_qual)
        if cached is not None:
            return cached
        self._init_only_memo[method_qual] = False  # cycle guard
        callers = self._program.callers_of.get(method_qual, [])
        result = bool(callers) and all(
            edge.caller.startswith(class_qual + ".")
            and self._init_only(edge.caller, class_qual, depth + 1)
            for edge, __ in callers
        )
        self._init_only_memo[method_qual] = result
        return result

    def _always_scoped(self, method_qual: str, depth: int = 0) -> bool:
        """Every call site into the method is itself under a scope."""
        if depth > _MAX_WALK_DEPTH:
            return False
        cached = self._always_scoped_memo.get(method_qual)
        if cached is not None:
            return cached
        self._always_scoped_memo[method_qual] = False  # cycle guard
        callers = self._program.callers_of.get(method_qual, [])
        result = bool(callers)
        for edge, call in callers:
            caller_info = self._program.functions.get(edge.caller)
            if caller_info is None:
                result = False
                break
            if inside_lock_with(caller_info.ctx, call):
                continue
            if self._declares_scope(edge.caller):
                continue
            if self._always_scoped(edge.caller, depth + 1):
                continue
            result = False
            break
        self._always_scoped_memo[method_qual] = result
        return result


@register
class LockGraphChecker(Checker):
    rule_id = "CONC002"
    severity = Severity.ERROR
    description = (
        "the whole-program lock acquisition-order graph must be "
        "acyclic; any cycle is a potential deadlock under interleaving"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        edges = program.summaries.lock_order_edges()
        for nodes, cycle_edges in find_lock_cycles(edges):
            ring = " -> ".join(nodes + (nodes[0],))
            witnesses = "; ".join(
                f"{edge.outer} -> {edge.inner} via "
                + " -> ".join(edge.chain)
                for edge in cycle_edges
            )
            first = cycle_edges[0]
            yield self.finding_at(
                first.path,
                first.line,
                f"lock-order cycle: {ring} (witness chains: {witnesses})",
            )
