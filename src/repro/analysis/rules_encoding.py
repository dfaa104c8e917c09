"""ENC001 — column block formats decode only inside ``repro.databases``.

The compressed-domain execution path gives MiniColumn's on-disk block
formats (``.col`` payloads, the ``.seg`` block directory, ``.zmap``
zone entries) real structure: per-block encodings, bit-packed deltas,
dictionary pages.  That structure is owned by
:mod:`repro.databases.colcodec` and the column file — any other layer
struct-unpacking those bytes freezes the format and breaks the next
encoding migration silently.

Two sub-checks:

**Decoding.**  A buffer read from a block-format path (a string
constant ending in ``.col``/``.seg``/``.zmap``, possibly via a path
variable) is tainted; calling ``unpack``/``unpack_from``/
``iter_unpack`` on it outside ``repro.databases`` is a violation.
Shipping such bytes around — or folding them through the *public*
codec helpers (``fold_int_cells``) as the cluster pushdown does — is
fine; only direct struct decoding is flagged.

**Imports.**  Importing underscore-private names from
``repro.databases.colcodec`` (the cell/header structs) outside
``repro.databases`` is the same violation at the import boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.symbols import call_tail

#: Suffixes naming MiniColumn's block-format files.
BLOCK_SUFFIXES = (".col", ".seg", ".zmap")

#: Call tails that produce file bytes.
_READ_TAILS = frozenset(
    {"read_file", "read", "pread", "preadv", "_pread", "_preadv"}
)

#: struct.Struct / struct-module decoding entry points.
_UNPACK_TAILS = frozenset({"unpack", "unpack_from", "iter_unpack"})

#: The format's owner (plus the analyzer itself, whose fixtures and
#: docstrings mention the suffixes).
_EXEMPT_MODULES = ("repro.databases", "repro.analysis")

_CODEC_MODULE = "repro.databases.colcodec"


def _names_a_block_file(node: ast.AST) -> bool:
    """Whether the expression contains a ``.col``/``.seg``/``.zmap``
    string constant (the path literal, or the suffix being appended)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.endswith(BLOCK_SUFFIXES):
                return True
    return False


class _BlockBytesTaint:
    """Names bound to bytes read from block-format paths, one function.

    Two levels: *path* names assigned from expressions naming a block
    file, then *buffer* names assigned from read calls whose arguments
    use either a block-file constant or a tainted path name.  Buffer
    taint propagates through plain assignment and aliasing wrappers.
    """

    _ALIASING_WRAPPERS = frozenset({"bytearray", "memoryview", "bytes"})

    def __init__(self, func: ast.AST) -> None:
        self.paths: set[str] = set()
        self.buffers: set[str] = set()
        for node in ast.walk(func):
            value = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if _names_a_block_file(value):
                self.paths.update(names)
            if self._yields_block_bytes(value):
                self.buffers.update(names)

    def reads_block_bytes(self, call: ast.Call) -> bool:
        """Whether ``call`` is a read of a block-format file."""
        if call_tail(call) not in _READ_TAILS:
            return False
        for arg in call.args:
            if _names_a_block_file(arg):
                return True
            if isinstance(arg, ast.Name) and arg.id in self.paths:
                return True
        return False

    def _yields_block_bytes(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            if self.reads_block_bytes(expr):
                return True
            if call_tail(expr) in self._ALIASING_WRAPPERS:
                return any(self._yields_block_bytes(arg) for arg in expr.args)
            return False
        if isinstance(expr, ast.Name):
            return expr.id in self.buffers
        if isinstance(expr, ast.Subscript):
            return self._yields_block_bytes(expr.value)
        return False

    def argument_is_block_bytes(self, arg: ast.AST) -> bool:
        return self._yields_block_bytes(arg)


@register
class EncodingBoundaryChecker(Checker):
    rule_id = "ENC001"
    severity = Severity.ERROR
    description = (
        "column block formats (.col/.seg/.zmap payloads) are decoded "
        "only by repro.databases; other layers may not struct-unpack "
        "them or import colcodec privates"
    )

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        for ctx in program.files:
            yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        if ctx.module.startswith(_EXEMPT_MODULES):
            return
        yield from self._check_private_imports(ctx)
        for func, qualname in ctx.symbols.functions:
            taint = _BlockBytesTaint(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if call_tail(node) not in _UNPACK_TAILS:
                    continue
                if any(
                    taint.argument_is_block_bytes(arg) for arg in node.args
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualname}: struct-unpacks a column block "
                        "payload — block formats are private to "
                        "repro.databases; go through the codec API "
                        "(colcodec) or the table instead",
                    )

    def _check_private_imports(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 0:
                continue
            if node.module != _CODEC_MODULE:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield self.finding(
                        ctx,
                        node,
                        f"{ctx.module} imports {_CODEC_MODULE}.{alias.name} "
                        "— the cell/header structs are private to the "
                        "codec; use its public encode/decode/fold API",
                    )
