"""Tests for the MiniColumn column store."""

import pytest

from repro.core.engine import CompressDB
from repro.databases.minicolumn import ColumnStoreError, MiniColumn, _scanned_columns
from repro.databases.sql_parser import parse
from repro.fs import CompressFS, PassthroughFS
from repro.fs.errors import QuotaExceeded
from repro.storage.block_device import MemoryBlockDevice


@pytest.fixture(params=["passthrough", "compress"])
def db(request):
    if request.param == "passthrough":
        fs = PassthroughFS(block_size=256)
    else:
        fs = CompressFS(block_size=256)
    database = MiniColumn(fs)
    database.execute("CREATE TABLE t (id INT, idx INT, score REAL, name TEXT)")
    return database


def insert_rows(db, count=50):
    values = ", ".join(
        f"({i}, {i % 5}, {i}.5, 'name-{i % 7}')" for i in range(count)
    )
    db.execute(f"INSERT INTO t VALUES {values}")


class TestDDL:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(ColumnStoreError):
            db.execute("CREATE TABLE t (a INT)")

    def test_unknown_table(self, db):
        with pytest.raises(ColumnStoreError):
            db.execute("SELECT * FROM nope")

    def test_delete_is_lightweight(self, db):
        insert_rows(db, 10)
        db.execute("DELETE FROM t WHERE id = 1")
        # The row is hidden but physically present until OPTIMIZE.
        assert db.execute("SELECT count(*) c FROM t")[0]["c"] == 9
        assert db.table("t").row_count() == 10


class TestInsertSelect:
    def test_roundtrip_all_types(self, db):
        db.execute("INSERT INTO t VALUES (1, 2, 3.5, 'text value')")
        rows = db.execute("SELECT * FROM t")
        assert rows == [{"id": 1, "idx": 2, "score": 3.5, "name": "text value"}]

    def test_null_values(self, db):
        db.execute("INSERT INTO t VALUES (1, NULL, NULL, NULL)")
        rows = db.execute("SELECT * FROM t")
        assert rows == [{"id": 1, "idx": None, "score": None, "name": None}]

    def test_batch_insert(self, db):
        insert_rows(db, 100)
        assert db.execute("SELECT count(*) c FROM t")[0]["c"] == 100

    def test_where_filter(self, db):
        insert_rows(db, 50)
        rows = db.execute("SELECT id FROM t WHERE idx = 3")
        assert [row["id"] for row in rows] == [i for i in range(50) if i % 5 == 3]

    def test_group_by_aggregate(self, db):
        insert_rows(db, 50)
        rows = db.execute("SELECT idx, count(*) c FROM t GROUP BY idx ORDER BY idx")
        assert all(row["c"] == 10 for row in rows)

    def test_paper_range_scan_query(self, db):
        insert_rows(db, 60)
        rows = db.execute(
            "SELECT id, sum(score)/count(name) r FROM t "
            "WHERE idx >= 0 AND idx <= 3 GROUP BY id ORDER BY r DESC"
        )
        assert len(rows) == 48
        values = [row["r"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_value_count_mismatch(self, db):
        with pytest.raises(ColumnStoreError):
            db.execute("INSERT INTO t VALUES (1, 2)")


class TestColumnarAccess:
    def test_projection_pruning_reads_fewer_blocks(self, db):
        insert_rows(db, 200)
        db.fs.device.stats.reset()
        db.execute("SELECT idx FROM t")
        pruned = db.fs.device.stats.snapshot().bytes_read
        db.fs.device.stats.reset()
        db.execute("SELECT * FROM t")
        full = db.fs.device.stats.snapshot().bytes_read
        assert pruned < full / 2

    def test_count_star_scans_one_column(self, db):
        insert_rows(db, 10)
        table = db.table("t")
        scanned, required = _scanned_columns(
            parse("SELECT count(*) FROM t"), table.column_names
        )
        assert (scanned, required) == (["id"], set())

    def test_scan_unknown_column_rejected(self, db):
        insert_rows(db, 5)
        with pytest.raises(ColumnStoreError):
            list(db.table("t").scan(columns=["nope"]))

    def test_read_row(self, db):
        insert_rows(db, 20)
        row = db.table("t").read_row(7)
        assert row["id"] == 7 and row["name"] == "name-0"


class TestUpdate:
    def test_update_fixed_width(self, db):
        insert_rows(db, 30)
        db.execute("UPDATE t SET score = 0.0 WHERE id = 7")
        assert db.execute("SELECT score FROM t WHERE id = 7")[0]["score"] == 0.0

    def test_update_text_relocates(self, db):
        insert_rows(db, 10)
        db.execute("UPDATE t SET name = 'a much longer replacement string' WHERE id = 3")
        assert (
            db.execute("SELECT name FROM t WHERE id = 3")[0]["name"]
            == "a much longer replacement string"
        )
        # Neighbours untouched.
        assert db.execute("SELECT name FROM t WHERE id = 2")[0]["name"] == "name-2"
        assert db.execute("SELECT name FROM t WHERE id = 4")[0]["name"] == "name-4"

    def test_update_text_to_null(self, db):
        insert_rows(db, 5)
        db.execute("UPDATE t SET name = NULL WHERE id = 1")
        assert db.execute("SELECT name FROM t WHERE id = 1")[0]["name"] is None

    def test_update_with_expression(self, db):
        insert_rows(db, 5)
        db.execute("UPDATE t SET idx = idx + 100 WHERE id = 2")
        assert db.execute("SELECT idx FROM t WHERE id = 2")[0]["idx"] == 102

    def test_update_all_rows(self, db):
        insert_rows(db, 10)
        db.execute("UPDATE t SET idx = 0")
        assert all(row["idx"] == 0 for row in db.execute("SELECT idx FROM t"))


class TestPersistence:
    def test_reopen_from_catalog(self, db):
        insert_rows(db, 25)
        db.execute("UPDATE t SET name = 'changed' WHERE id = 5")
        reopened = MiniColumn(db.fs)
        assert reopened.execute("SELECT count(*) c FROM t")[0]["c"] == 25
        assert reopened.execute("SELECT name FROM t WHERE id = 5")[0]["name"] == "changed"


class TestBenchInterface:
    def test_bench_read_write(self, db):
        db.bench_setup()
        db.bench_write("3", "payload")
        assert db.bench_read("3") == "payload"
        db.bench_write("3", "new payload")
        assert db.bench_read("3") == "new payload"
        assert db.bench_read("404") is None


def _event_rows(start, count):
    return [
        {"ts": i, "grp": i % 4, "val": i * 7, "note": f"n{i % 3}"}
        for i in range(start, start + count)
    ]


class TestInsertRollback:
    """An ``insert_rows`` that raises leaves no torn batch: every column
    file is truncated back, so the table still equals the acknowledged
    rows, and stays aligned through later inserts, fsync and reopen."""

    def _mount(self, device=None):
        device = device or MemoryBlockDevice(block_size=256)
        engine = CompressDB.mount(device, journal_blocks=32)
        return device, engine, MiniColumn(CompressFS(engine=engine))

    def _loaded(self):
        device, engine, db = self._mount()
        db.execute("CREATE TABLE t (ts INT, grp INT, val INT, note TEXT)")
        db.table("t").insert_rows(_event_rows(0, 64))
        return device, engine, db

    @staticmethod
    def _fail_writes(fs, at):
        """Make the ``at``-th file write from now raise QuotaExceeded;
        returns the list of writes attempted."""
        original = fs._pwrite
        writes = []

        def _pwrite(path, offset, data):
            writes.append(path)
            if len(writes) == at:
                raise QuotaExceeded(f"{path}: injected")
            return original(path, offset, data)

        fs._pwrite = _pwrite
        return writes

    @staticmethod
    def _assert_equals_model(db, model):
        assert list(db.table("t").scan()) == model
        assert db.execute("SELECT count(*) c FROM t") == [{"c": len(model)}]
        assert db.execute("SELECT ts, note FROM t WHERE ts >= 0") == [
            {"ts": row["ts"], "note": row["note"]} for row in model
        ]

    def test_every_failed_write_rolls_the_batch_back(self):
        __, __, probe = self._loaded()
        writes = self._fail_writes(probe.fs, at=0)
        probe.table("t").insert_rows(_event_rows(64, 32))
        assert len(writes) == 11  # 3 INT columns x (zmap, col, seg) + TEXT (col, seg)
        model = _event_rows(0, 64)
        for at in range(1, len(writes) + 1):
            device, engine, db = self._loaded()
            self._fail_writes(db.fs, at)
            with pytest.raises(QuotaExceeded):
                db.table("t").insert_rows(_event_rows(64, 32))
            del db.fs._pwrite
            self._assert_equals_model(db, model)
            db.table("t").insert_rows(_event_rows(1000, 8))
            engine.fsync()
            __, __, reopened = self._mount(device)
            self._assert_equals_model(reopened, model + _event_rows(1000, 8))

    def test_failed_rollback_leaves_the_table_refusing_statements(self):
        __, __, db = self._loaded()
        self._fail_writes(db.fs, at=5)

        def _truncate(path, size):
            raise QuotaExceeded(f"{path}: injected")

        db.fs._truncate = _truncate
        with pytest.raises(ColumnStoreError, match="torn"):
            db.table("t").insert_rows(_event_rows(64, 32))
        for sql in (
            "SELECT count(*) c FROM t",
            "SELECT ts FROM t WHERE ts < 10",
            "INSERT INTO t VALUES (1, 1, 1, 'x')",
            "DELETE FROM t WHERE ts = 1",
            "UPDATE t SET val = 0 WHERE ts = 1",
        ):
            with pytest.raises(ColumnStoreError, match="torn"):
                db.execute(sql)


class TestScanSpan:
    """Each scan is one ``column.scan`` span on the file system's tracer."""

    def _db(self):
        fs = CompressFS(block_size=256)
        fs.obs.tracer.enabled = True
        db = MiniColumn(fs)
        db.execute("CREATE TABLE t (ts INT, grp INT, val INT, note TEXT)")
        for start in range(0, 40 * 10, 10):  # 40 insert batches of 10 rows
            db.table("t").insert_rows(_event_rows(start, 10))
        fs.obs.tracer.clear()
        return db

    def _scan_span(self, db, sql):
        db.execute(sql)
        (span,) = [s for s in db.fs.obs.tracer.spans() if s.name == "column.scan"]
        return span.attrs

    def test_pruned_range_scan(self):
        db = self._db()
        attrs = self._scan_span(
            db, "SELECT grp, sum(val) s FROM t WHERE ts >= 100 AND ts <= 129 GROUP BY grp"
        )
        # Batches 10, 11 and 12 survive the ts zone map; ts, grp and val
        # are read with one request per surviving block each.
        assert attrs == {
            "table": "t", "batches": 40, "pruned": 37, "groups": 1, "requests": 9,
        }

    def test_full_scan(self):
        db = self._db()
        attrs = self._scan_span(db, "SELECT grp, count(*) c FROM t GROUP BY grp")
        groups = -(-40 // db.table("t").SCAN_PREFETCH_BATCHES)
        assert attrs == {
            "table": "t", "batches": 40, "pruned": 0, "groups": groups, "requests": 40,
        }
