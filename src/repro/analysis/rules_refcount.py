"""RC001 — blockRefCount pairing.

The engine's sharing model (paper Section 4.2/4.3) hangs on one
invariant: after any operation completes *or fails*, every live block's
``blockRefCount`` equals the number of slots referencing it.  Taking a
reference (``incref``) therefore creates an **obligation** that must be
discharged before control can leave the function:

* a matching ``decref`` on the same expression, or
* an **ownership transfer** — the counted block number is handed to a
  slot-table call (``append_slot`` / ``insert_slot`` / ``replace_slot``),
  stored into a ``Slot(...)`` that such a call (or the function's
  result) receives, or returned.

Two failure shapes are reported:

1. **Straight-line leaks** — between the ``incref`` and its discharge
   there is an explicit ``raise``/``return`` or a call that can raise
   (anything outside the safe-call set), so an exception edge exits the
   function with the obligation open.
2. **Loop-carried leaks** — the ``incref`` sits in a loop whose body can
   raise.  Even when each iteration discharges its own obligation, a
   failure in iteration *i* unwinds with iterations ``0..i-1`` already
   counted; unless the loop is wrapped in a ``try`` whose handler or
   ``finally`` calls ``decref`` (rollback), those references leak.

A callee with a *counted return* (incref-then-return — rightly accepted
above as an ownership transfer) hands its caller an open obligation:
the caller must not drop the result, and from the assignment onward the
same straight-line discipline applies as if the caller had incref'd the
name itself.

Scope: ``repro.core``, ``repro.fs``, ``repro.snap`` and
``repro.serving`` — the only packages allowed to touch
``blockRefCount`` at all.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import dataflow
from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.symbols import call_tail

#: Calls that take ownership of a counted block number.
TRANSFER_TAILS = frozenset({"append_slot", "insert_slot", "replace_slot"})

_SCOPES = ("repro.core.", "repro.fs.", "repro.snap.", "repro.serving.")


def _is_incref(call: ast.Call) -> bool:
    return call_tail(call) == "incref" and len(call.args) == 1


def _discharges(stmt: ast.stmt, arg_source: str) -> bool:
    """Whether ``stmt`` closes the obligation opened on ``arg_source``."""
    if isinstance(stmt, ast.Return) and stmt.value is not None:
        if dataflow.mentions(stmt.value, arg_source):
            return True
    for call in dataflow.iter_calls(stmt):
        tail = call_tail(call)
        if tail == "decref" and call.args and ast.unparse(call.args[0]) == arg_source:
            return True
        if tail in TRANSFER_TAILS and dataflow.mentions(call, arg_source):
            return True
        # ``slots.append(Slot(block_no=dup, ...))`` — transfer into the
        # aggregate that the function publishes or returns.
        if tail == "append" and any(
            isinstance(arg, ast.Call)
            and call_tail(arg) == "Slot"
            and dataflow.mentions(arg, arg_source)
            for arg in call.args
        ):
            return True
    return False


@register
class RefcountPairingChecker(Checker):
    rule_id = "RC001"
    severity = Severity.ERROR
    description = (
        "every incref must reach a decref or an ownership transfer on "
        "all paths, including exception edges"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        summaries = program.summaries
        for qualname, info in program.functions.items():
            if not info.module.startswith(_SCOPES):
                continue
            short = qualname[len(info.module) + 1 :]
            yield from self._check_function(info.ctx, info.node, short)
            for edge, call in program.calls_from.get(qualname, ()):
                if not summaries.counted_return(edge.callee):
                    continue
                stmt = info.ctx.symbols.enclosing_statement(call)
                if isinstance(stmt, ast.Expr) and stmt.value is call:
                    yield self.finding(
                        info.ctx,
                        call,
                        f"{qualname}: discards the counted return of "
                        f"{edge.callee}() — the incref it took is leaked; "
                        "bind the result and decref or transfer it",
                    )
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.value is call
                ):
                    yield from self._check_straight_line(
                        info.ctx,
                        info.node,
                        f"{short} (counted return of {edge.callee})",
                        stmt,
                        stmt.targets[0].id,
                    )

    def _check_function(
        self, ctx: FileContext, func: ast.AST, qualname: str
    ) -> Iterator[Finding]:
        flagged_loops: set[ast.AST] = set()
        for call in dataflow.iter_calls(func):
            if not _is_incref(call):
                continue
            if ctx.symbols.enclosing_function(call) is not func:
                continue  # belongs to a nested function; analyzed there
            arg_source = ast.unparse(call.args[0])
            stmt = ctx.symbols.enclosing_statement(call)
            if stmt is None:  # pragma: no cover - incref is always a stmt child
                continue
            yield from self._check_straight_line(ctx, func, qualname, stmt, arg_source)
            yield from self._check_loop_carried(
                ctx, func, qualname, call, flagged_loops
            )

    # -- shape 1: exception/return edge between incref and discharge ------
    def _check_straight_line(
        self,
        ctx: FileContext,
        func: ast.AST,
        qualname: str,
        stmt: ast.stmt,
        arg_source: str,
    ) -> Iterator[Finding]:
        if _discharges(stmt, arg_source):
            return  # incref and transfer share one statement
        protected = any(
            dataflow.calls_decref(cleanup)
            for cleanup in dataflow.try_cleanup_blocks(ctx.symbols, stmt, stop=func)
        )
        for follower in dataflow.statements_after(ctx.symbols, stmt):
            if _discharges(follower, arg_source):
                return
            if isinstance(follower, ast.Raise):
                yield self.finding(
                    ctx,
                    follower,
                    f"{qualname}: raise with open incref({arg_source}) "
                    "obligation — decref before raising or transfer first",
                )
                return
            if isinstance(follower, ast.Return):
                yield self.finding(
                    ctx,
                    follower,
                    f"{qualname}: return without balancing incref({arg_source})",
                )
                return
            if not protected and dataflow.statement_may_raise(follower):
                yield self.finding(
                    ctx,
                    follower,
                    f"{qualname}: call between incref({arg_source}) and its "
                    "discharge can raise, leaking the reference — reorder, "
                    "or wrap in try with a decref rollback",
                )
                return
        # Fell off the end of the block without a discharge.
        yield self.finding(
            ctx,
            stmt,
            f"{qualname}: incref({arg_source}) has no matching decref or "
            "ownership transfer in its block",
        )

    # -- shape 2: loop accumulates obligations, body can raise ------------
    def _check_loop_carried(
        self,
        ctx: FileContext,
        func: ast.AST,
        qualname: str,
        call: ast.Call,
        flagged_loops: set[ast.AST],
    ) -> Iterator[Finding]:
        loop = ctx.symbols.loop_ancestor(call, stop=func)
        if loop is None or loop in flagged_loops:
            return
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            return  # comprehensions cannot hold multi-statement protocols
        body_risky = any(
            dataflow.statement_may_raise(stmt) for stmt in loop.body
        )
        if not body_risky:
            return
        rollback = any(
            dataflow.calls_decref(cleanup)
            for cleanup in dataflow.try_cleanup_blocks(ctx.symbols, loop, stop=func)
        ) or any(
            dataflow.calls_decref(cleanup)
            for cleanup in dataflow.try_cleanup_blocks(
                ctx.symbols, ctx.symbols.enclosing_statement(call) or call, stop=func
            )
        )
        if rollback:
            return
        flagged_loops.add(loop)
        yield self.finding(
            ctx,
            loop,
            f"{qualname}: incref inside a loop whose body can raise — a "
            "mid-loop failure leaks the references taken by earlier "
            "iterations; wrap the loop in try/except with a decref rollback",
        )
