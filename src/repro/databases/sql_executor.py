"""Evaluation of parsed SQL over in-memory row iterables.

The storage engines (:mod:`repro.databases.minisql` row-store,
:mod:`repro.databases.minicolumn` column-store) produce candidate rows;
this module implements the relational semantics on top: WHERE
filtering, GROUP BY with aggregate expressions, projection with
aliases, ORDER BY, and LIMIT.

Aggregate expressions may combine aggregates arithmetically — e.g. the
paper's range-scan query projects ``sum(cnt)/count(dt)`` — so
evaluation is two-phase: aggregate leaves accumulate per group, then
the surrounding expression tree is evaluated over the aggregate
results.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.databases.common import DatabaseError
from repro.databases.sql_parser import (
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    Literal,
    Select,
    SelectItem,
    Star,
    UnaryOp,
)

Row = Mapping[str, object]


class EvaluationError(DatabaseError):
    """Raised when an expression cannot be evaluated against a row."""


def evaluate(expr: Expr, row: Row) -> object:
    """Evaluate a scalar (non-aggregate) expression against one row."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        if expr.name not in row:
            raise EvaluationError(f"unknown column {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row)
        if expr.op == "-":
            if not isinstance(value, (int, float)):
                raise EvaluationError("unary minus requires a number")
            return -value
        if expr.op == "NOT":
            return not _truthy(value)
        raise EvaluationError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, row)
    if isinstance(expr, FuncCall):
        raise EvaluationError(
            f"aggregate {expr.name}() used outside an aggregation context"
        )
    if isinstance(expr, Star):
        raise EvaluationError("* is only valid in projections and count(*)")
    raise EvaluationError(f"unsupported expression {expr!r}")


def _truthy(value: object) -> bool:
    return bool(value)


def _evaluate_binary(expr: BinaryOp, row: Row) -> object:
    if expr.op == "AND":
        return _truthy(evaluate(expr.left, row)) and _truthy(evaluate(expr.right, row))
    if expr.op == "OR":
        return _truthy(evaluate(expr.left, row)) or _truthy(evaluate(expr.right, row))
    left = evaluate(expr.left, row)
    right = evaluate(expr.right, row)
    if expr.op in ("=", "!="):
        equal = left == right
        return equal if expr.op == "=" else not equal
    if left is None or right is None:
        return False if expr.op in ("<", "<=", ">", ">=") else None
    try:
        if expr.op == "<":
            return left < right  # type: ignore[operator]
        if expr.op == "<=":
            return left <= right  # type: ignore[operator]
        if expr.op == ">":
            return left > right  # type: ignore[operator]
        if expr.op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError as exc:  # TEXT ordered against a number
        raise EvaluationError(str(exc)) from None
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        if expr.op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        raise EvaluationError(f"arithmetic on non-numbers: {left!r} {expr.op} {right!r}")
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        if right == 0:
            return None  # SQL semantics: division by zero yields NULL
        result = left / right
        return result
    raise EvaluationError(f"unknown operator {expr.op}")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FuncCall):
        return True
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    return False


class _Accumulator:
    """Accumulates one aggregate function over a group's rows."""

    __slots__ = ("func", "count", "total", "minimum", "maximum")

    def __init__(self, func: FuncCall) -> None:
        self.func = func
        self.count = 0
        self.total: float = 0
        self.minimum: Optional[object] = None
        self.maximum: Optional[object] = None

    def add(self, row: Row) -> None:
        if isinstance(self.func.argument, Star):
            if self.func.name != "count":
                raise EvaluationError(f"{self.func.name}(*) is not valid")
            self.count += 1
        else:
            self.add_value(evaluate(self.func.argument, row))

    def add_value(self, value: object) -> None:
        """Accumulate an already-evaluated argument (ignored for ``*``)."""
        if isinstance(self.func.argument, Star):
            self.count += 1
            return
        if value is None:
            return  # SQL aggregates skip NULLs
        self.count += 1
        if isinstance(value, (int, float)):
            self.total += value
        if self.minimum is None or value < self.minimum:  # type: ignore[operator]
            self.minimum = value
        if self.maximum is None or value > self.maximum:  # type: ignore[operator]
            self.maximum = value

    def add_values(self, values: Sequence[object]) -> None:
        """:meth:`add_value` over a group's slice of a column (for ``*``
        only its length counts).  INT values fold with ``sum``/``min``/
        ``max`` (integer addition is exact in any order); anything else —
        REAL, whose sum must stay the in-order one bit for bit, or TEXT —
        goes value by value."""
        if isinstance(self.func.argument, Star):
            self.count += len(values)
            return
        kinds = set(map(type, values))
        if kinds - {type(None)} != {int}:
            for value in values:
                self.add_value(value)
            return
        present = values
        if type(None) in kinds:
            present = [value for value in values if value is not None]
        low, high = min(present), max(present)  # type: ignore[type-var]
        self.count += len(present)
        self.total += sum(present)  # type: ignore[arg-type]
        if self.minimum is None or low < self.minimum:  # type: ignore[operator]
            self.minimum = low
        if self.maximum is None or high > self.maximum:  # type: ignore[operator]
            self.maximum = high

    def result(self) -> object:
        name = self.func.name
        if name == "count":
            return self.count
        if self.count == 0:
            return None
        if name == "sum":
            return self.total
        if name == "avg":
            return self.total / self.count
        if name == "min":
            return self.minimum
        if name == "max":
            return self.maximum
        raise EvaluationError(f"unknown aggregate {name}")


def _collect_aggregates(expr: Expr, into: dict[FuncCall, _Accumulator]) -> None:
    if isinstance(expr, FuncCall):
        into.setdefault(expr, _Accumulator(expr))
    elif isinstance(expr, BinaryOp):
        _collect_aggregates(expr.left, into)
        _collect_aggregates(expr.right, into)
    elif isinstance(expr, UnaryOp):
        _collect_aggregates(expr.operand, into)


def _evaluate_with_aggregates(
    expr: Expr, sample_row: Row, results: Mapping[FuncCall, object]
) -> object:
    if isinstance(expr, FuncCall):
        return results[expr]
    if isinstance(expr, BinaryOp):
        rewritten = BinaryOp(
            expr.op,
            Literal(_evaluate_with_aggregates(expr.left, sample_row, results)),  # type: ignore[arg-type]
            Literal(_evaluate_with_aggregates(expr.right, sample_row, results)),  # type: ignore[arg-type]
        )
        return _evaluate_binary(rewritten, sample_row)
    if isinstance(expr, UnaryOp):
        inner = _evaluate_with_aggregates(expr.operand, sample_row, results)
        return evaluate(UnaryOp(expr.op, Literal(inner)), sample_row)  # type: ignore[arg-type]
    return evaluate(expr, sample_row)


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        # Qualified references project under their bare column name,
        # as in SQL: SELECT users.id ... yields a column called "id".
        return item.expr.name.rsplit(".", 1)[-1]
    return f"column{index}"


def run_select(select: Select, rows: Iterable[Row]) -> list[dict[str, object]]:
    """Execute a parsed SELECT over candidate rows from the storage layer."""
    filtered = (
        row for row in rows if select.where is None or _truthy(evaluate(select.where, row))
    )
    grouped = bool(select.group_by) or any(
        contains_aggregate(item.expr) for item in select.items
    )
    if grouped:
        output = _run_grouped(select, filtered)
    else:
        output = _run_plain(select, filtered)
    return apply_order_limit(select, output)


def apply_order_limit(
    select: Select, output: list[dict[str, object]]
) -> list[dict[str, object]]:
    """ORDER BY + LIMIT tail, shared by the row and vectorized paths."""
    # Stable multi-key sort: apply keys right-to-left.
    for position in reversed(range(len(select.order_by))):
        order, label = select.order_by[position], _stash_label(position)
        output.sort(
            key=lambda row: _order_key(order.expr, label, row),
            reverse=order.descending,
        )
    if select.limit is not None:
        output = output[: select.limit]
    for position in range(len(select.order_by)):
        label = _stash_label(position)
        for row in output:
            row.pop(label, None)
    return output


def _order_key(expr: Expr, stash: str, row: Row):
    if stash in row:
        # Aggregate order-by value stashed by the grouping pass.
        value = row[stash]
    elif isinstance(expr, Column) and expr.name in row:
        value = row[expr.name]
    elif isinstance(expr, Column) and expr.name.rsplit(".", 1)[-1] in row:
        # Ordering by a qualified name over a projection that exposed
        # the bare column name.
        value = row[expr.name.rsplit(".", 1)[-1]]
    else:
        value = evaluate(expr, row)
    # Sort NULLs first, keep mixed types comparable within a column.
    return (value is not None, value)


def _run_plain(select: Select, rows: Iterable[Row]) -> list[dict[str, object]]:
    output = []
    for row in rows:
        projected: dict[str, object] = {}
        for index, item in enumerate(select.items):
            if isinstance(item.expr, Star):
                projected.update(row)
            else:
                projected[_item_name(item, index)] = evaluate(item.expr, row)
        output.append(projected)
    return output


def _run_grouped(select: Select, rows: Iterable[Row]) -> list[dict[str, object]]:
    aggregates: dict[FuncCall, _Accumulator] = {}
    for item in select.items:
        if not isinstance(item.expr, Star):
            _collect_aggregates(item.expr, aggregates)
    for order in select.order_by:
        _collect_aggregates(order.expr, aggregates)

    groups: dict[tuple, tuple[Row, dict[FuncCall, _Accumulator]]] = {}
    for row in rows:
        key = tuple(evaluate(column, row) for column in select.group_by)
        if key not in groups:
            groups[key] = (
                dict(row),
                {func: _Accumulator(func) for func in aggregates},
            )
        for accumulator in groups[key][1].values():
            accumulator.add(row)

    return _finish_groups(select, groups, aggregates)


def _finish_groups(
    select: Select,
    groups: dict[tuple, tuple[Row, dict[FuncCall, _Accumulator]]],
    aggregates: Iterable[FuncCall],
) -> list[dict[str, object]]:
    """One projected row per accumulated group (``key -> (sample row,
    accumulators)``): the tail the row and vectorized paths share."""
    group_columns = [column.name for column in select.group_by]
    if not groups and not group_columns:
        # Aggregate over an empty input still yields one row.
        groups[()] = ({}, {func: _Accumulator(func) for func in aggregates})

    output: list[dict[str, object]] = []
    for key, (sample, accumulators) in groups.items():
        results = {func: acc.result() for func, acc in accumulators.items()}
        projected: dict[str, object] = {}
        for index, item in enumerate(select.items):
            if isinstance(item.expr, Star):
                raise EvaluationError("* is not valid in a grouped projection")
            projected[_item_name(item, index)] = _evaluate_with_aggregates(
                item.expr, sample, results
            )
        # Expose group keys and aggregate order-by values for sorting.
        for name, value in zip(group_columns, key):
            projected.setdefault(name, value)
        for position, order in enumerate(select.order_by):
            if contains_aggregate(order.expr):
                projected[_stash_label(position)] = _evaluate_with_aggregates(
                    order.expr, sample, results
                )
        output.append(projected)
    return output


def _stash_label(position: int) -> str:
    """Row key under which a group carries the value of its
    ``position``-th ORDER BY aggregate until :func:`apply_order_limit`
    has sorted on it and removed it.  The space keeps it apart from
    every column name and alias the parser can produce."""
    return f"ORDER BY {position}"
