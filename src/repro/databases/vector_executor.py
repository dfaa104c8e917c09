"""Vectorized, encoding-aware SELECT execution over column blocks.

This is MiniColumn's compressed-domain query path.  The storage layer
(:meth:`repro.databases.minicolumn.ColumnTable.scan_vector_blocks`)
yields one :class:`~repro.databases.colcodec.ColumnVector` per column
per surviving block, *keeping encoded forms*: predicates evaluate an
RLE run once per run and a dictionary predicate once per distinct
string, producing a selection vector that is ANDed with the
deletion-mask complement.  Selected rows then flow into the grouped
aggregation kernel (or, for plain projections, into the shared row
projector with the WHERE already applied).

The entry point :func:`try_run_select_vectorized` returns ``None`` for
query shapes it does not support — joins, WHERE clauses that are not
AND-trees of ``column op literal``, aggregate arguments that are not a
column or ``*`` — and the caller falls back to the row interpreter in
:mod:`repro.databases.sql_executor`.  Both paths share the aggregate
result semantics (``_Accumulator``), projection naming, ORDER BY, and
LIMIT code, so their outputs are identical wherever both apply.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.databases.sql_executor import (
    _Accumulator,
    _collect_aggregates,
    _finish_groups,
    apply_order_limit,
    contains_aggregate,
    run_select,
)
from repro.databases.sql_parser import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    Select,
    Star,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.databases.colcodec import ColumnVector
    from repro.databases.minicolumn import ColumnTable

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _conjuncts(where: Optional[Expr]) -> Optional[list[tuple[str, str, object]]]:
    """Flatten an AND-tree of ``column op literal`` comparisons.

    Returns ``None`` when any conjunct has another shape (OR, NOT,
    arithmetic, column-vs-column) — those queries take the row path.
    """
    if where is None:
        return []
    if isinstance(where, BinaryOp) and where.op == "AND":
        left = _conjuncts(where.left)
        right = _conjuncts(where.right)
        if left is None or right is None:
            return None
        return left + right
    if (
        isinstance(where, BinaryOp)
        and where.op in _COMPARISON_OPS
        and isinstance(where.left, Column)
        and isinstance(where.right, Literal)
    ):
        return [(where.left.name, where.op, where.right.value)]
    return None


def _compare(op: str, bound: object) -> Callable[[object], bool]:
    """One-argument predicate with the row interpreter's NULL semantics:
    ``=``/``!=`` are plain equality, ordered comparisons with NULL on
    either side are false."""
    if op == "=":
        return lambda value: value == bound
    if op == "!=":
        return lambda value: value != bound
    if bound is None:
        return lambda value: False
    if op == "<":
        return lambda value: value is not None and value < bound  # type: ignore[operator]
    if op == "<=":
        return lambda value: value is not None and value <= bound  # type: ignore[operator]
    if op == ">":
        return lambda value: value is not None and value > bound  # type: ignore[operator]
    return lambda value: value is not None and value >= bound  # type: ignore[operator]


def _block_selection(
    mask: bytes,
    vectors: dict[str, "ColumnVector"],
    conjuncts: list[tuple[str, str, object]],
) -> list[bool]:
    """Selection vector for one block: live under the deletion mask AND
    every predicate — evaluated on the encoded vectors directly."""
    selected = [byte == 0 for byte in mask]
    for name, op, bound in conjuncts:
        if not any(selected):
            break
        bools = vectors[name].pred_bools(_compare(op, bound))
        selected = [keep and hit for keep, hit in zip(selected, bools)]
    return selected


def try_run_select_vectorized(
    select: Select, table: "ColumnTable"
) -> Optional[list[dict[str, object]]]:
    """Run a SELECT through the vectorized path, or return ``None``
    when its shape is unsupported (the caller falls back to rows)."""
    from repro.databases.minicolumn import _range_constraints, _scanned_columns

    if select.join is not None:
        return None
    conjuncts = _conjuncts(select.where)
    if conjuncts is None:
        return None
    names, required = _scanned_columns(select, table.column_names)
    if not required.issubset(table.column_names):
        return None  # unknown column: the row path raises the error

    grouped = bool(select.group_by) or any(
        contains_aggregate(item.expr) for item in select.items
    )
    ranges = _range_constraints(select.where)
    blocks = table.scan_vector_blocks(names, ranges)
    if not grouped:
        rows: list[dict[str, object]] = []
        for __, __, mask, vectors in blocks:
            selected = _block_selection(mask, vectors, conjuncts)
            if not any(selected):
                continue
            columns = {name: vectors[name].materialize() for name in names}
            for i, keep in enumerate(selected):
                if keep:
                    rows.append({name: columns[name][i] for name in names})
        # The WHERE is already applied; share projection / order / limit.
        return run_select(replace(select, where=None), rows)

    return _run_grouped_vectorized(select, names, blocks, conjuncts)


def _run_grouped_vectorized(
    select: Select,
    names: list[str],
    blocks,
    conjuncts: list[tuple[str, str, object]],
) -> Optional[list[dict[str, object]]]:
    if any(isinstance(item.expr, Star) for item in select.items):
        return None  # the row path raises "* is not valid..."
    aggregates: dict[FuncCall, _Accumulator] = {}
    for item in select.items:
        _collect_aggregates(item.expr, aggregates)
    for order in select.order_by:
        _collect_aggregates(order.expr, aggregates)
    argument_columns: dict[FuncCall, Optional[str]] = {}
    for func in aggregates:
        if isinstance(func.argument, Star):
            if func.name != "count":
                return None  # row path raises the aggregate error
            argument_columns[func] = None
        elif isinstance(func.argument, Column):
            argument_columns[func] = func.argument.name
        else:
            return None  # e.g. sum(a + b): row path handles it

    group_columns = [column.name for column in select.group_by]
    groups: dict[tuple, tuple[dict[str, object], dict[FuncCall, _Accumulator]]] = {}
    for __, __, mask, vectors in blocks:
        selected = _block_selection(mask, vectors, conjuncts)
        if not any(selected):
            continue
        columns = {name: vectors[name].materialize() for name in names}
        for i, keep in enumerate(selected):
            if not keep:
                continue
            key = tuple(columns[name][i] for name in group_columns)
            state = groups.get(key)
            if state is None:
                state = (
                    {name: columns[name][i] for name in names},
                    {func: _Accumulator(func) for func in aggregates},
                )
                groups[key] = state
            for func, accumulator in state[1].items():
                column = argument_columns[func]
                accumulator.add_value(None if column is None else columns[column][i])

    return apply_order_limit(select, _finish_groups(select, groups, aggregates))
