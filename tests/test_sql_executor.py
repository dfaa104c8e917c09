"""Tests for SQL evaluation semantics (filter, group, project, order)."""

import pytest

from repro.databases.sql_executor import EvaluationError, evaluate, run_select
from repro.databases.sql_parser import parse


ROWS = [
    {"id": 1, "idx": 0, "cnt": 10, "dt": "d1"},
    {"id": 1, "idx": 1, "cnt": 20, "dt": "d2"},
    {"id": 2, "idx": 0, "cnt": 5, "dt": "d1"},
    {"id": 2, "idx": 9, "cnt": 50, "dt": None},
    {"id": 3, "idx": 2, "cnt": 7, "dt": "d3"},
]


def select(sql, rows=None):
    return run_select(parse(sql), ROWS if rows is None else rows)


class TestEvaluate:
    def row(self):
        return {"a": 2, "b": 3, "s": "x", "n": None}

    def test_arithmetic(self):
        statement = parse("SELECT a + b * 2 FROM t")
        assert evaluate(statement.items[0].expr, self.row()) == 8

    def test_division_by_zero_is_null(self):
        statement = parse("SELECT a / 0 FROM t")
        assert evaluate(statement.items[0].expr, self.row()) is None

    def test_comparisons(self):
        for sql, expected in [
            ("SELECT a < b FROM t", True),
            ("SELECT a >= b FROM t", False),
            ("SELECT a != b FROM t", True),
            ("SELECT s = 'x' FROM t", True),
        ]:
            statement = parse(sql)
            assert evaluate(statement.items[0].expr, self.row()) is expected

    def test_null_comparisons_are_false(self):
        statement = parse("SELECT n < 5 FROM t")
        assert evaluate(statement.items[0].expr, self.row()) is False

    def test_string_concat_with_plus(self):
        statement = parse("SELECT s + 'y' FROM t")
        assert evaluate(statement.items[0].expr, self.row()) == "xy"

    def test_unknown_column_raises(self):
        statement = parse("SELECT zzz FROM t")
        with pytest.raises(EvaluationError):
            evaluate(statement.items[0].expr, self.row())

    def test_unary_minus_and_not(self):
        statement = parse("SELECT -a FROM t")
        assert evaluate(statement.items[0].expr, self.row()) == -2
        statement = parse("SELECT * FROM t WHERE NOT a = 2")
        assert evaluate(statement.where, self.row()) is False

    def test_aggregate_outside_grouping_raises(self):
        statement = parse("SELECT * FROM t WHERE sum(a) = 1")
        with pytest.raises(EvaluationError):
            evaluate(statement.where, self.row())


class TestProjection:
    def test_star(self):
        assert select("SELECT * FROM t") == ROWS

    def test_column_projection(self):
        result = select("SELECT id FROM t LIMIT 2")
        assert result == [{"id": 1}, {"id": 1}]

    def test_computed_column_with_alias(self):
        result = select("SELECT cnt * 2 double FROM t LIMIT 1")
        assert result == [{"double": 20}]

    def test_unaliased_expression_gets_positional_name(self):
        result = select("SELECT cnt + 1 FROM t LIMIT 1")
        assert result == [{"column0": 11}]


class TestFilter:
    def test_where_filters(self):
        assert len(select("SELECT * FROM t WHERE idx = 0")) == 2

    def test_where_range(self):
        assert len(select("SELECT * FROM t WHERE idx >= 1 AND idx <= 2")) == 2

    def test_where_or(self):
        assert len(select("SELECT * FROM t WHERE id = 1 OR id = 3")) == 3


class TestAggregation:
    def test_global_aggregates(self):
        result = select("SELECT count(*) c, sum(cnt) s, min(cnt) lo, max(cnt) hi FROM t")
        assert result == [{"c": 5, "s": 92, "lo": 5, "hi": 50}]

    def test_avg(self):
        result = select("SELECT avg(cnt) a FROM t WHERE id = 1")
        assert result[0]["a"] == pytest.approx(15.0)

    def test_count_skips_nulls(self):
        result = select("SELECT count(dt) c FROM t")
        assert result == [{"c": 4}]

    def test_count_star_includes_nulls(self):
        assert select("SELECT count(*) c FROM t")[0]["c"] == 5

    def test_group_by(self):
        result = select("SELECT id, sum(cnt) s FROM t GROUP BY id ORDER BY id")
        assert [(row["id"], row["s"]) for row in result] == [(1, 30), (2, 55), (3, 7)]

    def test_aggregate_arithmetic(self):
        """The paper's sum(cnt)/count(dt) pattern."""
        result = select(
            "SELECT id, sum(cnt)/count(dt) r FROM t GROUP BY id ORDER BY id"
        )
        assert result[0]["r"] == pytest.approx(15.0)
        assert result[1]["r"] == pytest.approx(55.0)  # one NULL dt skipped

    def test_aggregate_over_empty_input_yields_one_row(self):
        result = run_select(parse("SELECT count(*) c, sum(cnt) s FROM t"), [])
        assert result == [{"c": 0, "s": None}]

    def test_group_by_empty_input_yields_no_rows(self):
        result = run_select(parse("SELECT id, count(*) c FROM t GROUP BY id"), [])
        assert result == []

    def test_order_by_aggregate_expression(self):
        result = select(
            "SELECT id, sum(cnt)/count(dt) r FROM t GROUP BY id ORDER BY sum(cnt)/count(dt) DESC"
        )
        values = [row["r"] for row in result]
        assert values == sorted(values, reverse=True)

    def test_star_in_grouped_projection_rejected(self):
        with pytest.raises(EvaluationError):
            select("SELECT * FROM t GROUP BY id")


class TestOrderLimit:
    def test_order_by_column(self):
        result = select("SELECT cnt FROM t ORDER BY cnt")
        assert [row["cnt"] for row in result] == [5, 7, 10, 20, 50]

    def test_order_by_desc(self):
        result = select("SELECT cnt FROM t ORDER BY cnt DESC")
        assert result[0]["cnt"] == 50

    def test_order_by_alias(self):
        result = select("SELECT cnt * 2 d FROM t ORDER BY d DESC LIMIT 1")
        assert result == [{"d": 100}]

    def test_multi_key_order(self):
        result = select("SELECT id, idx FROM t ORDER BY id DESC, idx ASC")
        assert [(row["id"], row["idx"]) for row in result] == [
            (3, 2), (2, 0), (2, 9), (1, 0), (1, 1),
        ]

    def test_nulls_sort_first(self):
        result = select("SELECT dt FROM t ORDER BY dt")
        assert result[0]["dt"] is None

    def test_limit_zero(self):
        assert select("SELECT * FROM t LIMIT 0") == []


class TestBothEngines:
    """Executor behaviour visible through MiniSQL and MiniColumn alike."""

    @pytest.fixture(params=["minisql", "minicolumn"])
    def db(self, request):
        from repro.databases.minicolumn import MiniColumn
        from repro.databases.minisql import MiniSQL
        from repro.fs import PassthroughFS

        engine = MiniSQL if request.param == "minisql" else MiniColumn
        database = engine(PassthroughFS(block_size=256))
        database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
        for i in range(8):
            database.execute(f"INSERT INTO t VALUES ({i}, {i * 10}, '{'aab'[i % 3]}')")
        return database

    def test_regression_order_by_aggregate_leaks_no_sort_key(self, db):
        """The sort stash used to stay in the rows, under a key named by
        ``hash(expr)`` — different in every process."""
        rows = db.execute("SELECT s, count(*) c FROM t GROUP BY s ORDER BY count(*) DESC")
        assert rows == [{"s": "a", "c": 6}, {"s": "b", "c": 2}]
        assert [set(row) for row in rows] == [{"s", "c"}] * 2
        rows = db.execute(
            "SELECT count(*) c FROM t GROUP BY s ORDER BY sum(v) DESC, max(id) LIMIT 1"
        )
        assert rows == [{"c": 6, "s": "a"}]  # group keys ride along, as before

    def test_regression_text_ordered_against_number_is_a_typed_error(self, db):
        for sql in (
            "SELECT id FROM t WHERE s < 1",
            "SELECT id FROM t WHERE id >= 0 AND (s >= 1 OR id = 3)",
        ):
            with pytest.raises(EvaluationError, match="not supported between"):
                db.execute(sql)

    def test_group_by_unknown_column_is_an_error(self, db):
        with pytest.raises(EvaluationError, match="unknown column 'nope'"):
            db.execute("SELECT count(*) c FROM t GROUP BY nope")
