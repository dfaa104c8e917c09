"""Vectorized, encoding-aware execution over column blocks.

This is MiniColumn's only executor.  The storage layer
(:meth:`repro.databases.minicolumn.ColumnTable.scan_vector_blocks`)
yields one :class:`~repro.databases.colcodec.ColumnVector` per column
per zone-surviving block, *keeping encoded forms*.  A WHERE splits into
its ``column op literal`` conjuncts — evaluated once per RLE run and
once per distinct dictionary string — and a *residual* expression
(everything else: OR, NOT, arithmetic, column-vs-column), which the
shared :func:`~repro.databases.sql_executor.evaluate` decides on the
rows the conjuncts left.  The resulting selection feeds the grouped
aggregation kernel, or :func:`matching_rows` — the row stream behind
plain projections, UPDATE and DELETE.

Aggregate result semantics (``_Accumulator``), projection naming,
ORDER BY and LIMIT are the code MiniSQL runs, so
``run_select(select, table.scan())`` is an oracle for every SELECT
here.  The one difference is *which rows* can raise: a conjunct is
tested on every value of a surviving block, where the interpreter
short-circuits row by row.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.databases.sql_executor import (
    EvaluationError,
    _Accumulator,
    _collect_aggregates,
    _finish_groups,
    apply_order_limit,
    contains_aggregate,
    evaluate,
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
    from repro.databases.minicolumn import ColumnTable

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: Marks an aggregate whose argument is evaluated on the row.
_BY_ROW = object()


def _conjuncts(
    where: Optional[Expr],
) -> tuple[list[tuple[str, str, object]], Optional[Expr]]:
    """Split a WHERE into ``(column, op, literal)`` conjuncts and the
    residual expression (``None`` when the conjuncts are all of it)."""
    if where is None:
        return [], None
    if isinstance(where, BinaryOp) and where.op == "AND":
        left, left_rest = _conjuncts(where.left)
        right, right_rest = _conjuncts(where.right)
        if left_rest is not None and right_rest is not None:
            return left + right, BinaryOp("AND", left_rest, right_rest)
        return left + right, left_rest if right_rest is None else right_rest
    if (
        isinstance(where, BinaryOp)
        and where.op in _COMPARISON_OPS
        and isinstance(where.left, Column)
        and isinstance(where.right, Literal)
    ):
        return [(where.left.name, where.op, where.right.value)], None
    return [], where


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


def _selected_blocks(
    table: "ColumnTable", names: Sequence[str], where: Optional[Expr]
) -> Iterator[tuple[int, list[bool], dict[str, list]]]:
    """The scan loop: ``(start row, selection, materialised columns)``
    per zone-surviving block with a row that is live under the deletion
    mask and passes every conjunct.  The selection is exact: the
    residual has been evaluated on those rows."""
    from repro.databases.minicolumn import _range_constraints

    conjuncts, residual = _conjuncts(where)
    blocks = table.scan_vector_blocks(names, _range_constraints(where))
    for start, __, mask, vectors in blocks:
        selected = [byte == 0 for byte in mask]
        for name, op, bound in conjuncts:
            if not any(selected):
                break
            try:
                bools = vectors[name].pred_bools(_compare(op, bound))
            except TypeError as exc:  # TEXT ordered against a number
                raise EvaluationError(str(exc)) from None
            selected = [keep and hit for keep, hit in zip(selected, bools)]
        if not any(selected):
            continue
        columns = {name: vectors[name].materialize() for name in names}
        if residual is not None:
            for i, keep in enumerate(selected):
                if keep:
                    row = {name: columns[name][i] for name in names}
                    selected[i] = bool(evaluate(residual, row))
        yield start, selected, columns


def matching_rows(
    table: "ColumnTable", names: Sequence[str], where: Optional[Expr]
) -> Iterator[tuple[int, dict[str, object]]]:
    """``(physical row number, row)`` of the live rows satisfying
    ``where``, pruned by zone map: what a plain projection, an UPDATE
    and a DELETE consume."""
    for start, selected, columns in _selected_blocks(table, names, where):
        for i, keep in enumerate(selected):
            if keep:
                yield start + i, {name: columns[name][i] for name in names}


def run_select_vectorized(
    select: Select, table: "ColumnTable"
) -> list[dict[str, object]]:
    """Run a single-table SELECT block-at-a-time on encoded vectors."""
    from repro.databases.minicolumn import _scanned_columns

    names, required = _scanned_columns(select, table.column_names)
    unknown = sorted(required.difference(table.column_names))
    if unknown:
        raise EvaluationError(f"unknown column {unknown[0]!r}")
    if not select.group_by and not any(
        contains_aggregate(item.expr) for item in select.items
    ):
        rows = [row for __, row in matching_rows(table, names, select.where)]
        # The WHERE is already applied; share projection / order / limit.
        return run_select(replace(select, where=None), rows)

    aggregates: dict[FuncCall, _Accumulator] = {}
    for item in select.items:
        _collect_aggregates(item.expr, aggregates)
    for order in select.order_by:
        _collect_aggregates(order.expr, aggregates)
    # An aggregate over a scanned column is fed from that column's
    # values (count(*): from nothing); every other argument — an
    # expression, sum(*) — goes through the accumulator's row interface,
    # which evaluates it or raises.
    argument_columns: dict[FuncCall, object] = {}
    for func in aggregates:
        if isinstance(func.argument, Column) and func.argument.name in names:
            argument_columns[func] = func.argument.name
        elif isinstance(func.argument, Star) and func.name == "count":
            argument_columns[func] = None
        else:
            argument_columns[func] = _BY_ROW

    group_columns = [column.name for column in select.group_by]
    groups: dict[tuple, tuple[dict[str, object], dict[FuncCall, _Accumulator]]] = {}
    for __, selected, columns in _selected_blocks(table, names, select.where):
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
                if column is _BY_ROW:
                    accumulator.add({name: columns[name][i] for name in names})
                else:
                    accumulator.add_value(None if column is None else columns[column][i])

    return apply_order_limit(select, _finish_groups(select, groups, aggregates))
