"""Vectorized, encoding-aware execution over column blocks.

This is MiniColumn's only executor.  The storage layer
(:meth:`repro.databases.minicolumn.ColumnTable.scan_vector_blocks`)
yields one :class:`~repro.databases.colcodec.ColumnVector` per column
per zone-surviving block, *keeping encoded forms*.  A block's selection
is a *position list*, started from the rows the deletion mask leaves
live.  A WHERE's ``column op literal`` conjuncts narrow it in turn — a
numeric bound on a sorted block (delta-encoded with a non-negative
frame of reference) by bisection, any other once per RLE run, per
distinct dictionary string or per value — and the shared
:func:`~repro.databases.sql_executor.evaluate` decides the *residual*
(OR, NOT, arithmetic, column-vs-column) on the survivors.  The
positions feed the grouped aggregation kernel, which splits them by
group key and folds each group's column slice at once, or
:func:`matching_rows` — the row stream behind plain projections,
UPDATE and DELETE.

Aggregate result semantics (``_Accumulator``), projection naming,
ORDER BY and LIMIT are the code MiniSQL runs, so
``run_select(select, table.scan())`` is an oracle for every SELECT
here.  The one difference is *which rows* can raise: a conjunct runs
only where the previous ones left survivors, and the residual only on
the survivors, but a conjunct is evaluated on the whole block it
narrows, where the interpreter short-circuits row by row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro.databases.colcodec import ColumnVector
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


def _narrow(
    vector: ColumnVector, op: str, bound: object, positions: Sequence[int]
) -> Sequence[int]:
    """The ``positions`` (ascending) whose value satisfies ``op bound``.

    On a sorted vector a numeric bound other than ``!=`` is the row
    range ``[low, high)`` found by bisection; everything else — NULL or
    TEXT bounds, unsorted vectors — tests the predicate encoding-aware."""
    if vector.sorted and op != "!=" and isinstance(bound, (int, float)):
        values = vector.materialize()
        if op in ("<", "<="):
            low = 0
        else:
            low = (bisect_right if op == ">" else bisect_left)(values, bound)
        if op in (">", ">="):
            high = len(values)
        else:
            high = (bisect_left if op == "<" else bisect_right)(values, bound)
        return positions[bisect_left(positions, low) : bisect_left(positions, high)]
    try:
        hits = vector.pred_bools(_compare(op, bound))
    except TypeError as exc:  # TEXT ordered against a number
        raise EvaluationError(str(exc)) from None
    return [position for position in positions if hits[position]]


def _selected_blocks(
    table: "ColumnTable", names: Sequence[str], where: Optional[Expr]
) -> Iterator[tuple[int, Sequence[int], dict[str, list]]]:
    """The scan loop: ``(start row, positions, materialised columns)``
    per zone-surviving block with a row that is live under the deletion
    mask and satisfies ``where``.  ``positions`` (ascending, never
    empty) are exactly those rows' offsets in the block."""
    from repro.databases.minicolumn import _range_constraints

    conjuncts, residual = _conjuncts(where)
    blocks = table.scan_vector_blocks(names, _range_constraints(where))
    for start, count, mask, vectors in blocks:
        positions: Sequence[int] = range(count)
        if mask.count(0) != count:
            positions = [i for i, dead in enumerate(mask) if not dead]
        for name, op, bound in conjuncts:
            if not positions:
                break
            positions = _narrow(vectors[name], op, bound, positions)
        if not positions:
            continue
        columns = {name: vectors[name].materialize() for name in names}
        if residual is not None:
            positions = [
                i
                for i in positions
                if evaluate(residual, {name: columns[name][i] for name in names})
            ]
        if positions:
            yield start, positions, columns


def matching_rows(
    table: "ColumnTable", names: Sequence[str], where: Optional[Expr]
) -> Iterator[tuple[int, dict[str, object]]]:
    """``(physical row number, row)`` of the live rows satisfying
    ``where``, pruned by zone map: what a plain projection, an UPDATE
    and a DELETE consume."""
    for start, positions, columns in _selected_blocks(table, names, where):
        for i in positions:
            yield start + i, {name: columns[name][i] for name in names}


def _partition(
    positions: Sequence[int], key_columns: list[list]
) -> Iterable[tuple[tuple, Sequence[int]]]:
    """``(group key, positions)`` per group of one block, in order of
    first appearance; ``key_columns`` are the block's GROUP BY columns."""
    if not key_columns:
        return [((), positions)]
    # One column keys on its raw values: cheaper to hash than 1-tuples.
    keys = key_columns[0] if len(key_columns) == 1 else list(zip(*key_columns))
    parts: defaultdict[object, list[int]] = defaultdict(list)
    for position in positions:
        parts[keys[position]].append(position)
    if len(key_columns) == 1:
        return [((key,), members) for key, members in parts.items()]
    return parts.items()  # type: ignore[return-value]


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
    # Resolved once per query, in the order of `aggregates` (and so of
    # each group's accumulators): an aggregate over a scanned column
    # folds that column's slice (count(*): the slice's length); every
    # other argument — an expression, sum(*) — goes through the
    # accumulator's row interface, which evaluates it or raises.
    plan: list[object] = []
    for func in aggregates:
        if isinstance(func.argument, Column) and func.argument.name in names:
            plan.append(func.argument.name)
        elif isinstance(func.argument, Star) and func.name == "count":
            plan.append(None)
        else:
            plan.append(_BY_ROW)

    group_columns = [column.name for column in select.group_by]
    groups: dict[tuple, tuple[dict[str, object], dict[FuncCall, _Accumulator]]] = {}
    for __, positions, columns in _selected_blocks(table, names, select.where):
        key_columns = [columns[name] for name in group_columns]
        for key, members in _partition(positions, key_columns):
            state = groups.get(key)
            if state is None:
                first = members[0]
                state = groups[key] = (
                    {name: columns[name][first] for name in names},
                    {func: _Accumulator(func) for func in aggregates},
                )
            for accumulator, column in zip(state[1].values(), plan):
                if column is _BY_ROW:
                    for i in members:
                        accumulator.add({name: columns[name][i] for name in names})
                elif column is None:
                    accumulator.add_values(members)  # count(*) takes the length
                else:
                    values = columns[column]  # type: ignore[index]
                    accumulator.add_values([values[i] for i in members])

    return apply_order_limit(select, _finish_groups(select, groups, aggregates))
