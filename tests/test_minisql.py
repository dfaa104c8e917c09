"""Tests for the MiniSQL relational engine."""

import random

import pytest

from repro.databases.minisql import MiniSQL, TableError
from repro.fs import CompressFS, PassthroughFS


@pytest.fixture(params=["passthrough", "compress"])
def db(request):
    if request.param == "passthrough":
        fs = PassthroughFS(block_size=256)
    else:
        fs = CompressFS(block_size=256)
    database = MiniSQL(fs, page_size=512)  # small pages force splits
    database.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score REAL)")
    return database


class TestDDL:
    def test_create_duplicate_table_rejected(self, db):
        with pytest.raises(TableError):
            db.execute("CREATE TABLE t (id INT)")

    def test_unknown_table_rejected(self, db):
        with pytest.raises(TableError):
            db.execute("SELECT * FROM missing")

    def test_first_column_is_default_pk(self, db):
        db.execute("CREATE TABLE u (a INT, b TEXT)")
        assert db.table("u").schema.primary_key == "a"


class TestCRUD:
    def test_insert_and_point_select(self, db):
        db.execute("INSERT INTO t VALUES (1, 'alice', 3.5)")
        rows = db.execute("SELECT * FROM t WHERE id = 1")
        assert rows == [{"id": 1, "name": "alice", "score": 3.5}]

    def test_insert_with_column_list(self, db):
        db.execute("INSERT INTO t (id, name) VALUES (2, 'bob')")
        rows = db.execute("SELECT score FROM t WHERE id = 2")
        assert rows == [{"score": None}]

    def test_duplicate_pk_rejected(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 0.0)")
        with pytest.raises(TableError):
            db.execute("INSERT INTO t VALUES (1, 'b', 0.0)")

    def test_null_pk_rejected(self, db):
        with pytest.raises(TableError):
            db.execute("INSERT INTO t VALUES (NULL, 'x', 0.0)")

    def test_update_by_pk(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        db.execute("UPDATE t SET score = 9.0 WHERE id = 1")
        assert db.execute("SELECT score FROM t WHERE id = 1")[0]["score"] == 9.0

    def test_update_with_expression(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', 1.0)")
        db.execute("UPDATE t SET score = score + 0.5 WHERE id = 1")
        assert db.execute("SELECT score FROM t WHERE id = 1")[0]["score"] == 1.5

    def test_update_whole_table(self, db):
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i}, 'n', 0.0)")
        db.execute("UPDATE t SET score = 1.0")
        assert all(
            row["score"] == 1.0 for row in db.execute("SELECT score FROM t")
        )

    def test_delete(self, db):
        for i in range(5):
            db.execute(f"INSERT INTO t VALUES ({i}, 'n', 0.0)")
        db.execute("DELETE FROM t WHERE id < 3")
        assert db.execute("SELECT count(*) c FROM t")[0]["c"] == 2


class TestPaging:
    def test_many_rows_force_page_splits(self, db):
        rng = random.Random(4)
        keys = list(range(200))
        rng.shuffle(keys)
        for key in keys:
            db.execute(f"INSERT INTO t VALUES ({key}, 'name-{key}', {key}.5)")
        table = db.table("t")
        assert len(table._page_numbers) > 1
        # Every key resolvable, in order.
        rows = db.execute("SELECT id FROM t")
        assert [row["id"] for row in rows] == list(range(200))

    def test_point_lookup_after_splits(self, db):
        for key in range(150):
            db.execute(f"INSERT INTO t VALUES ({key}, 'n{key}', 0.0)")
        assert db.execute("SELECT name FROM t WHERE id = 137")[0]["name"] == "n137"

    def test_range_scan_reads_subset(self, db):
        for key in range(100):
            db.execute(f"INSERT INTO t VALUES ({key}, 'n', 0.0)")
        rows = db.execute("SELECT id FROM t WHERE id >= 20 AND id <= 30")
        assert [row["id"] for row in rows] == list(range(20, 31))

    def test_scan_range_prunes_pages(self, db):
        for key in range(200):
            db.execute(f"INSERT INTO t VALUES ({key}, 'n', 0.0)")
        db.fs.device.stats.reset()
        list(db.table("t").scan_range(5, 10))
        pruned_reads = db.fs.device.stats.snapshot().block_reads
        db.fs.device.stats.reset()
        list(db.table("t").scan())
        full_reads = db.fs.device.stats.snapshot().block_reads
        assert pruned_reads < full_reads


class TestQueries:
    def test_paper_range_scan(self, db):
        db.execute("CREATE TABLE tbl (pk INT PRIMARY KEY, id INT, idx INT, cnt INT, dt TEXT)")
        rng = random.Random(1)
        for i in range(60):
            db.execute(
                f"INSERT INTO tbl VALUES ({i}, {i % 4}, {i % 10}, {rng.randrange(50)}, 'd{i % 3}')"
            )
        rows = db.execute(
            "SELECT id, sum(cnt)/count(dt) avg_cnt FROM tbl "
            "WHERE idx >= 0 AND idx <= 8 GROUP BY id ORDER BY avg_cnt DESC"
        )
        assert len(rows) == 4
        values = [row["avg_cnt"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_aggregates(self, db):
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i}, 'n', {i}.0)")
        result = db.execute("SELECT sum(score) s, avg(score) a FROM t")[0]
        assert result["s"] == pytest.approx(45.0)
        assert result["a"] == pytest.approx(4.5)


class TestPersistence:
    def test_reopen_from_catalog(self, db):
        db.execute("INSERT INTO t VALUES (7, 'persisted', 1.5)")
        reopened = MiniSQL(db.fs, page_size=512)
        rows = reopened.execute("SELECT name FROM t WHERE id = 7")
        assert rows == [{"name": "persisted"}]

    def test_reopen_after_many_inserts(self, db):
        for i in range(120):
            db.execute(f"INSERT INTO t VALUES ({i}, 'x{i}', 0.0)")
        reopened = MiniSQL(db.fs, page_size=512)
        assert reopened.execute("SELECT count(*) c FROM t")[0]["c"] == 120


class TestBenchInterface:
    def test_bench_read_write(self, db):
        db.bench_setup()
        db.bench_write("5", "payload text")
        assert db.bench_read("5") == "payload text"
        db.bench_write("5", "updated")
        assert db.bench_read("5") == "updated"
        assert db.bench_read("999") is None

    def test_bench_write_escapes_quotes(self, db):
        db.bench_setup()
        db.bench_write("1", "it's quoted")
        assert db.bench_read("1") == "it's quoted"


class TestDirectoryModel:
    """Table pages and their sort-key directory against a sorted model,
    live and after reopening (which rebuilds the directory from pages)."""

    KEYS = {
        "INT": lambda rng: rng.randrange(-300, 300),
        # A REAL key column takes ints too; they come back as floats.
        "REAL": lambda rng: rng.choice([rng.randrange(-80, 80), rng.randrange(-320, 320) / 4]),
        "TEXT": lambda rng: "".join(rng.choice("abcXY") for __ in range(rng.randint(0, 4))),
    }

    @pytest.mark.parametrize("pk_type", ["INT", "REAL", "TEXT"])
    def test_random_ops_match_sorted_model(self, pk_type):
        from repro.databases.minisql import Table, TableSchema

        rng = random.Random(pk_type)  # str seeds are hash-seed independent
        fs = PassthroughFS(block_size=256)
        schema = TableSchema("m", [("k", pk_type), ("v", "TEXT")], "k")
        table = Table(fs, schema, "/m.tbl", page_size=128)
        model: dict = {}
        draw = self.KEYS[pk_type]

        def norm(key):
            return float(key) if pk_type == "REAL" else key

        def check(table):
            ordered = [model[k] for k in sorted(model)]
            assert list(table.scan()) == ordered
            for __ in range(5):
                key = norm(draw(rng))
                assert table.get(key) == model.get(key)
                low, high = sorted([norm(draw(rng)), norm(draw(rng))])
                assert list(table.scan_range(low, high)) == [
                    row for row in ordered if low <= row["k"] <= high
                ]

        for step in range(400):
            key = draw(rng)
            op = rng.random()
            value = "x" * rng.randint(0, 24)
            if op < 0.55:
                if norm(key) in model:
                    with pytest.raises(TableError):
                        table.insert({"k": key, "v": value})
                else:
                    table.insert({"k": key, "v": value})
                    model[norm(key)] = {"k": norm(key), "v": value}
            elif op < 0.75:
                assert table.update_by_key(key, {"v": value}) == (norm(key) in model)
                if norm(key) in model:
                    model[norm(key)]["v"] = value
            else:
                assert table.delete_by_key(key) == (model.pop(norm(key), None) is not None)
            if step % 20 == 0:
                check(table)
        assert len(table._page_numbers) > 3  # pages did split
        check(table)
        check(Table(fs, schema, "/m.tbl", page_size=128))
