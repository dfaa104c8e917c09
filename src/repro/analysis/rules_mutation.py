"""MUT001 — raw leaf-block mutation outside the hole API.

Leaf blocks are shared: a buffer returned by the device
(``read_block``/``read_blocks``) or by the slot readers
(``_slot_content``, ``_segment_raw``) may back *many* slots across many
files.  Mutating such a buffer in place corrupts every other reference
and bypasses Algorithm 1 entirely — the only sanctioned mutation paths
are the hole API (:mod:`repro.core.holes`) and the engine's
checked-out-copy protocol (:class:`~repro.core.engine.BlockHandle`),
both of which operate on private copies.

The rule taints names bound to raw block reads (propagating through
``bytearray(...)`` wrapping) and flags in-place mutation of a tainted
name: subscript stores, ``del x[...]``, augmented subscript assignment,
and mutating method calls (``append``/``extend``/``insert``/…).

Scope: all of ``repro`` except ``repro.core.holes`` (the hole API) and
``repro.storage`` (the device owns its own buffers).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.dataflow import TaintTracker
from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.symbols import call_tail

#: Calls producing raw (possibly shared) block bytes.
TAINT_SOURCES = frozenset(
    {"read_block", "read_blocks", "_slot_content", "_segment_raw"}
)

#: bytearray/list methods that mutate in place.
_MUTATOR_TAILS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "reverse", "sort"}
)

_EXEMPT_MODULES = ("repro.core.holes", "repro.storage.")


def _subscript_root(node: ast.AST) -> ast.AST:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


@register
class RawMutationChecker(Checker):
    rule_id = "MUT001"
    severity = Severity.ERROR
    description = (
        "in-place mutation of raw block bytes; shared leaf blocks may "
        "only change through the hole API or a checked-out BlockHandle"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        for ctx in program.files:
            yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        if ctx.module.startswith(_EXEMPT_MODULES):
            return
        for func, qualname in ctx.symbols.functions:
            tracker = TaintTracker(TAINT_SOURCES)
            tracker.scan_function(func)
            if not tracker.tainted:
                continue
            yield from self._check_function(ctx, func, qualname, tracker)

    def _check_function(
        self, ctx: FileContext, func: ast.AST, qualname: str, tracker: TaintTracker
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        root = _subscript_root(target)
                        if (
                            isinstance(root, ast.Name)
                            and tracker.name_is_tainted(root.id)
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"{qualname}: subscript store into "
                                f"{root.id!r}, a raw block buffer — shared "
                                "blocks must not be mutated in place",
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        root = _subscript_root(target)
                        if (
                            isinstance(root, ast.Name)
                            and tracker.name_is_tainted(root.id)
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"{qualname}: del on a slice of {root.id!r}, "
                                "a raw block buffer — shared blocks must "
                                "not be mutated in place",
                            )
            elif isinstance(node, ast.Call):
                tail = call_tail(node)
                if tail not in _MUTATOR_TAILS:
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                receiver = node.func.value
                if isinstance(receiver, ast.Name) and tracker.name_is_tainted(
                    receiver.id
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname}: {receiver.id}.{tail}() mutates a raw "
                        "block buffer in place — use the hole API or a "
                        "checked-out BlockHandle copy",
                    )
