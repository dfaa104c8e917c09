"""A small intraprocedural dataflow toolkit for reprolint.

Nothing here tries to be a full CFG: the rule that needs flow
information (RC001's incref obligations) works on *statement order
within a block* plus ancestry facts (loops, ``try`` cleanup).  That is
precise enough to model the engine's real idioms — incref-then-transfer
runs, build-then-publish loops — while staying simple enough to trust.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.analysis.symbols import SymbolTable, call_tail

#: Call tails that cannot meaningfully fail mid-protocol: refcount
#: bookkeeping itself, pure readers, struct packing, and builtins the
#: engine leans on.  Anything else between an ``incref`` and its
#: discharge is treated as an exception edge.
SAFE_CALL_TAILS = frozenset(
    {
        "incref",
        "decref",
        "get",
        "set",
        "len",
        "range",
        "enumerate",
        "zip",
        "min",
        "max",
        "sorted",
        "list",
        "dict",
        "tuple",
        "bytes",
        "bytearray",
        "isinstance",
        "append",  # list.append cannot fail for engine-sized lists
        "pack",
        "unpack_from",
        "Slot",  # plain dataclass construction
    }
)


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def statement_may_raise(stmt: ast.stmt, extra_safe: Sequence[str] = ()) -> bool:
    """Whether a statement holds an explicit raise or a risky call."""
    safe = SAFE_CALL_TAILS.union(extra_safe)
    for child in ast.walk(stmt):
        if isinstance(child, ast.Raise):
            return True
        if isinstance(child, ast.Call):
            tail = call_tail(child)
            if tail is None or tail not in safe:
                return True
    return False


def block_of(symbols: SymbolTable, stmt: ast.stmt) -> list[ast.stmt]:
    """The statement list (body/orelse/finalbody) containing ``stmt``."""
    parent = symbols.parents.get(stmt)
    if parent is None:
        return [stmt]
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(parent, attr, None)
        if isinstance(block, list) and stmt in block:
            return block
    for handler in getattr(parent, "handlers", []):
        if stmt in handler.body:
            return handler.body
    return [stmt]


def statements_after(symbols: SymbolTable, stmt: ast.stmt) -> list[ast.stmt]:
    """Statements following ``stmt`` in its own block, in order."""
    block = block_of(symbols, stmt)
    index = block.index(stmt)
    return block[index + 1 :]


def mentions(node: ast.AST, expression_source: str) -> bool:
    """Whether ``node`` contains a sub-expression spelled like ``expression_source``.

    Matching is textual over ``ast.unparse`` — the same normalisation on
    both sides — which is exactly the right level of precision for
    pairing ``incref(slot.block_no)`` with
    ``Slot(block_no=slot.block_no, ...)`` without alias analysis.
    """
    for child in ast.walk(node):
        if isinstance(child, (ast.Name, ast.Attribute, ast.Subscript)):
            if ast.unparse(child) == expression_source:
                return True
    return False


def try_cleanup_blocks(
    symbols: SymbolTable, node: ast.AST, stop: Optional[ast.AST] = None
) -> Iterator[list[ast.stmt]]:
    """Handler/finally blocks of every ``try`` enclosing ``node``.

    Only ``try`` statements whose *body* (not handler) contains the node
    count — being inside a handler offers no protection.  The walk stops
    at ``stop`` (normally the enclosing function).
    """
    current: ast.AST = node
    for ancestor in symbols.ancestors(node):
        if ancestor is stop:
            return
        # The direct child of a Try on the ancestry path tells us which
        # section the node sits in; only the body is protected.
        if isinstance(ancestor, ast.Try) and current in ancestor.body:
            for handler in ancestor.handlers:
                yield handler.body
            if ancestor.finalbody:
                yield ancestor.finalbody
        current = ancestor


def calls_decref(stmts: Sequence[ast.stmt]) -> bool:
    """Whether any statement in the block calls ``*.decref``."""
    for stmt in stmts:
        for call in iter_calls(stmt):
            if call_tail(call) == "decref":
                return True
    return False
