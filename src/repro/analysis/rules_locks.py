"""LOCK001 — the declared lock order.

The lock hierarchy follows the one acquisition order declared in
:data:`repro.locks.LOCK_TIERS` (serving → master → chunkserver →
client → inode) to stay deadlock-free.  The rule is a filter over the
whole-program lock-order graph
(:meth:`~repro.analysis.summaries.SummaryIndex.lock_order_edges`, the
same graph CONC002 searches for cycles): an edge whose inner lock ranks
**at or below** its outer lock inverts the order, and an edge from a
lock to itself re-acquires a non-reentrant ``threading.Lock`` — a
self-deadlock.  Unranked locks nest freely under ranked ones.

Edges witnessed through a call chain are judged anywhere in ``repro``;
purely lexical nestings only in ``repro.distributed``, where every lock
spelled with a tier keyword is a cluster lock.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, register
from repro.locks import rank_of

_ORDER = "master -> chunkserver -> client -> inode"


@register
class LockOrderChecker(Checker):
    rule_id = "LOCK001"
    severity = Severity.ERROR
    description = (
        "lock acquisitions, nested lexically or across calls, must follow "
        f"the declared {_ORDER} order"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        for edge in program.summaries.lock_order_edges():
            module = program.functions[edge.chain[0]].module
            lexical = len(edge.chain) == 1
            if not module.startswith("repro.distributed" if lexical else "repro."):
                continue
            via = "" if lexical else " through call chain " + " -> ".join(edge.chain)
            if edge.inner == edge.outer:
                yield self.finding_at(
                    edge.path,
                    edge.line,
                    f"re-acquisition of {edge.outer!r} while already held{via} "
                    "— self-deadlock for a non-reentrant Lock",
                )
                continue
            outer_rank, inner_rank = rank_of(edge.outer), rank_of(edge.inner)
            if outer_rank is None or inner_rank is None or inner_rank > outer_rank:
                continue
            yield self.finding_at(
                edge.path,
                edge.line,
                f"lock order inversion{' across calls' if via else ''}: "
                f"{edge.inner!r} (rank {inner_rank}) acquired{via} while "
                f"holding {edge.outer!r} (rank {outer_rank}); declared "
                f"order is {_ORDER}",
            )
