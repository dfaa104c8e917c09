"""IO001 — unbatched block I/O on hot paths.

PR 1 introduced scatter-gather device APIs
(:meth:`~repro.storage.block_device.BlockDevice.read_blocks` /
``write_blocks``) and batched compressor entry points (``store_many`` /
``commit_many``): one seek amortised over a run instead of one seek per
block.  The contract since then: **no per-block device or compressor
call inside a loop** — plan the run, then issue one batched request.

The rule flags calls to ``read_block``/``write_block`` (and the
single-item ``compressor.store``/``commit``) lexically inside a loop or
comprehension.  Out of scope: ``repro.storage``, the device itself,
which implements the primitives.

Sites that *must* stay per-block (the baseline cost model in
``PassthroughFS``, the pointer-chase in ``superblock.read_chain``)
carry inline suppressions with their justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import dataflow
from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.symbols import call_name, call_tail

_DEVICE_TAILS = frozenset({"read_block", "write_block"})
_COMPRESSOR_TAILS = frozenset({"store", "commit"})
_EXEMPT_MODULES = ("repro.storage.",)


def _is_compressor_call(call: ast.Call) -> bool:
    """``*.compressor.store(...)`` / ``*.compressor.commit(...)`` only —
    a bare ``store``/``commit`` tail is too common to claim."""
    if call_tail(call) not in _COMPRESSOR_TAILS:
        return False
    name = call_name(call)
    if name is None:
        return False
    receiver = name.rsplit(".", 1)[0]
    return receiver.endswith("compressor")


@register
class UnbatchedIOChecker(Checker):
    rule_id = "IO001"
    severity = Severity.WARNING
    description = (
        "per-block read_block/write_block/store/commit inside a loop; "
        "use the batched read_blocks/write_blocks/store_many/commit_many"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        for ctx in program.files:
            yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        if ctx.module.startswith(_EXEMPT_MODULES):
            return
        for call in dataflow.iter_calls(ctx.tree):
            tail = call_tail(call)
            if tail in _DEVICE_TAILS:
                # Device primitives are always methods (device.read_block);
                # a bare function sharing the name is not a device call.
                if not isinstance(call.func, ast.Attribute):
                    continue
                batched = "read_blocks" if tail == "read_block" else "write_blocks"
            elif _is_compressor_call(call):
                batched = f"{tail}_many"
            else:
                continue
            func = ctx.symbols.enclosing_function(call)
            loop = ctx.symbols.loop_ancestor(call, stop=func)
            if loop is None:
                continue
            yield self.finding(
                ctx,
                call,
                f"per-block {tail}() inside a loop — batch the run through "
                f"{batched}() (one seek per run, not per block)",
            )
