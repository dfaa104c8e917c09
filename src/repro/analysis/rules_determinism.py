"""DET001 — nondeterminism inside the replicated apply path.

Raft's replica-interchangeability argument rests on one property: the
same committed command sequence produces the same state on every node.
The apply step (``repro.raft.statemachine``, a table lookup) and the
``Master`` mutators it dispatches to (``repro.distributed.master``, the
apply *bodies*) therefore must be a pure function of
``(state, command)`` — anything a replica reads from its *environment*
while applying breaks the digests silently, and the divergence only
surfaces after a failover loses data.

Three nondeterminism sources are flagged lexically, anywhere in the
scoped modules:

* **wall-clock reads** — ``time.time()`` / ``time.monotonic()`` /
  ``time.perf_counter()``, ``datetime.now()`` / ``utcnow()`` /
  ``today()``, and any ``<...>clock.now`` access.  Replicas apply at
  different instants (a restarted node replays years of log in one
  tick); a time-dependent argument must be computed by the proposer and
  carried inside the command.
* **unseeded randomness** — calls through the ``random`` *module*
  (``random.choice(...)``).  A ``random.Random(seed)`` instance held by
  the node is fine — but placement-style choices belong at propose
  time, not apply time.
* **dict-iteration-order dependence** — ``for`` loops (and
  comprehensions) iterating ``.items()`` / ``.keys()`` / ``.values()``
  without a ``sorted(...)`` wrapper.  Insertion order is replayed
  history: two replicas whose dicts were built through different
  truncation/replay paths can disagree.  Iterate ``sorted(d)`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.symbols import dotted_name

#: Modules whose code must be deterministic (exact module or prefix).
DETERMINISTIC_MODULES = ("repro.raft.statemachine", "repro.distributed.master")

#: Functions of the ``time`` module that read a clock.
_TIME_READS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "time_ns"}
)

#: ``datetime`` constructors that read a clock.
_DATETIME_READS = frozenset({"now", "utcnow", "today"})

#: Dict views whose iteration order is insertion history.
_DICT_VIEWS = frozenset({"items", "keys", "values"})


def _call_target(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


@register
class DeterminismChecker(Checker):
    rule_id = "DET001"
    severity = Severity.ERROR
    description = (
        "replicated apply() paths must be deterministic: no wall-clock "
        "reads, no module-level random, no dict-iteration-order "
        "dependence"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        for ctx in program.files:
            yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_clock_attribute(ctx, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                yield from self._check_iteration(ctx, node, iterable)

    @staticmethod
    def _in_scope(module: str) -> bool:
        return any(
            module == scoped or module.startswith(scoped + ".")
            for scoped in DETERMINISTIC_MODULES
        )

    # -- wall clocks ---------------------------------------------------------
    def _check_call(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        target = _call_target(node)
        if target is None:
            return
        resolved = ctx.symbols.resolve(target)
        head, __, tail = resolved.rpartition(".")
        if head in ("time", "datetime.datetime", "datetime.date") and (
            tail in _TIME_READS or tail in _DATETIME_READS
        ):
            yield self.finding(
                ctx,
                node,
                f"wall-clock read {resolved}() in a replicated apply path — "
                "replicas apply at different instants; the proposer must "
                "compute time-dependent values and carry them in the command",
            )
        elif head == "random" and tail != "Random":
            # random.Random(seed) is the sanctioned escape hatch: a
            # seeded generator is deterministic by construction.
            yield self.finding(
                ctx,
                node,
                f"module-level random.{tail}() in a replicated apply path — "
                "replicas would each draw their own value; resolve "
                "nondeterministic choices at propose time (or use a seeded "
                "random.Random carried by the node)",
            )

    def _check_clock_attribute(
        self, ctx: FileContext, node: ast.Attribute
    ) -> Iterator[Finding]:
        if node.attr != "now":
            return
        receiver = node.value
        tail = (
            receiver.attr
            if isinstance(receiver, ast.Attribute)
            else receiver.id
            if isinstance(receiver, ast.Name)
            else ""
        )
        if "clock" in tail.lower():
            yield self.finding(
                ctx,
                node,
                "SimClock read (<...>clock.now) in a replicated apply path — "
                "a replaying replica's clock differs from the proposer's; "
                "carry the timestamp inside the command",
            )

    # -- dict iteration order ------------------------------------------------
    def _check_iteration(
        self, ctx: FileContext, node: ast.AST, iterable: ast.expr
    ) -> Iterator[Finding]:
        if not isinstance(iterable, ast.Call):
            return
        if not isinstance(iterable.func, ast.Attribute):
            return
        view = iterable.func.attr
        if view not in _DICT_VIEWS:
            return
        # ``ast.comprehension`` carries no position; anchor on the
        # iterable expression instead.
        anchor = node if hasattr(node, "lineno") else iterable
        yield self.finding(
            ctx,
            anchor,
            f"iteration over .{view}() depends on dict insertion order, "
            "which is replayed history and may differ across replicas — "
            "iterate sorted(...) instead",
        )
