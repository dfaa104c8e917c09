"""TXN001 — metadata mutation outside an active transaction scope.

Every durable structure — blockHashTable records, blockRefCount
counts, inode slot tables — must change inside a transaction so the
journal can publish the whole mutation atomically (one ``insert`` is
one crash-consistent unit, not a refcount bump that survives without
its slot).  A mutation site is considered transaction-aware when any
of the following holds:

* its enclosing function is decorated ``@transactional`` (it is one
  unit of the journal's ambient epoch and never commits partway);
* the enclosing function calls ``require_transaction(...)`` (the
  declaration of helpers that are only ever invoked from decorated
  entry points).

Both are declarations with no run-time half, so this rule is the only
thing that checks them.  A function that *declares* the obligation
hands it to its callers: calling one from a function that neither is
``@transactional`` nor declares the obligation itself (passing it
further up) is the same violation one call edge removed.

Scope: all of ``repro`` except the structures' own modules
(``repro.core.refcount``, ``repro.core.hashtable`` — they implement the
primitives, they do not decide when to call them), the storage
substrate (the journal itself lives there), and the analyzer.
Suppressions require justification, as for every rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, register
from repro.analysis.symbols import call_name, call_tail

#: Calls that mutate durable metadata structures.
_MUTATOR_TAILS = frozenset(
    {
        "incref",
        "decref",
        "insert_slot",
        "remove_slot",
        "replace_slot",
        "append_slot",
        "set_used",
        "add_record",
        "delete_record",
    }
)

_EXEMPT_MODULES = (
    "repro.core.refcount",
    "repro.core.hashtable",
    "repro.storage.",
    "repro.analysis.",
)


def _is_metadata_mutator(call: ast.Call) -> bool:
    tail = call_tail(call)
    if tail in _MUTATOR_TAILS:
        return True
    if tail == "set":
        # ``refcount.set(...)`` / ``self.refcount.set(...)`` is refcount
        # persistence; a bare ``.set()`` on anything else is not ours.
        name = call_name(call)
        return name is not None and "refcount" in name.split(".")
    return False


@register
class TransactionScopeChecker(Checker):
    rule_id = "TXN001"
    severity = Severity.ERROR
    description = (
        "metadata-mutating call outside a declared transaction scope; "
        "decorate the mutator @transactional or declare the caller's "
        "obligation with require_transaction"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        summaries = program.summaries.summaries
        for qualname, info in program.functions.items():
            if not info.module.startswith("repro."):
                continue
            if info.module.startswith(_EXEMPT_MODULES):
                continue
            summary = summaries[qualname]
            if summary.establishes_txn or summary.declares_require_txn:
                continue
            short = qualname[len(info.module) + 1 :]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call) or not _is_metadata_mutator(node):
                    continue
                if info.ctx.symbols.enclosing_function(node) is not info.node:
                    continue  # belongs to a nested function; judged there
                yield self.finding(
                    info.ctx,
                    node,
                    f"{short}: {call_name(node) or call_tail(node)}() "
                    "mutates durable metadata outside a transaction scope — "
                    "a crash here tears the journal's atomic unit",
                )
            for edge, call in program.calls_from.get(qualname, ()):
                callee = summaries.get(edge.callee)
                if callee is None or not callee.declares_require_txn:
                    continue
                if not edge.callee.startswith("repro."):
                    continue
                yield self.finding(
                    info.ctx,
                    call,
                    f"{qualname}: calls {edge.callee}() which requires an "
                    "active transaction (require_transaction in its body), "
                    "but no scope is established on this path — decorate "
                    f"{qualname.rsplit('.', 1)[-1]} @transactional or "
                    "declare the obligation with require_transaction",
                )
