"""Tests for the MiniLevelDB LSM store."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import SnappyCodec
from repro.databases.common import CorruptRecord
from repro.databases.minileveldb import MiniLevelDB
from repro.fs import CompressFS, PassthroughFS


@pytest.fixture(params=["passthrough", "compress"])
def db(request):
    if request.param == "passthrough":
        fs = PassthroughFS(block_size=256)
    else:
        fs = CompressFS(block_size=256)
    return MiniLevelDB(fs, memtable_limit=512, l0_limit=3, block_target=256)


class TestBasics:
    def test_put_get(self, db):
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_get_missing(self, db):
        assert db.get(b"missing") is None

    def test_overwrite(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_delete_missing_is_fine(self, db):
        db.delete(b"never-existed")
        assert db.get(b"never-existed") is None

    def test_empty_value(self, db):
        db.put(b"k", b"")
        assert db.get(b"k") == b""


class TestFlushAndCompaction:
    def test_memtable_flushes_to_l0(self, db):
        for i in range(50):
            db.put(b"key%04d" % i, b"value " * 5)
        assert db.table_count() >= 1

    def test_flushed_keys_still_readable(self, db):
        for i in range(100):
            db.put(b"key%04d" % i, b"v%d" % i)
        for i in range(100):
            assert db.get(b"key%04d" % i) == b"v%d" % i

    def test_compaction_triggered(self, db):
        for i in range(400):
            db.put(b"key%04d" % (i % 120), b"value-%d " % i * 3)
        assert db.compactions >= 1
        # After compaction everything is still there.
        db.close()
        for i in range(120):
            assert db.get(b"key%04d" % i) is not None

    def test_compaction_drops_tombstones(self, db):
        for i in range(60):
            db.put(b"key%04d" % i, b"v" * 30)
        for i in range(60):
            db.delete(b"key%04d" % i)
        db.flush_memtable()
        db.compact()
        assert list(db.scan()) == []

    def test_deleted_key_stays_deleted_across_flushes(self, db):
        db.put(b"target", b"v")
        db.flush_memtable()
        db.delete(b"target")
        db.flush_memtable()
        db.compact()
        assert db.get(b"target") is None

    def test_newest_version_wins_in_merge(self, db):
        db.put(b"k", b"old")
        db.flush_memtable()
        db.put(b"k", b"new")
        db.flush_memtable()
        db.compact()
        assert db.get(b"k") == b"new"


class TestScan:
    def test_scan_sorted(self, db):
        keys = [b"c", b"a", b"b", b"e", b"d"]
        for key in keys:
            db.put(key, b"v-" + key)
        assert [key for key, __ in db.scan()] == sorted(keys)

    def test_scan_range(self, db):
        for i in range(20):
            db.put(b"k%02d" % i, b"v")
        got = [key for key, __ in db.scan(b"k05", b"k10")]
        assert got == [b"k%02d" % i for i in range(5, 10)]

    def test_scan_merges_memtable_and_tables(self, db):
        db.put(b"a", b"1")
        db.flush_memtable()
        db.put(b"b", b"2")  # still in memtable
        assert list(db.scan()) == [(b"a", b"1"), (b"b", b"2")]

    def test_scan_hides_tombstones(self, db):
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        db.flush_memtable()
        db.delete(b"a")
        assert list(db.scan()) == [(b"b", b"2")]


class TestRecovery:
    def test_wal_replay(self, db):
        db.put(b"durable", b"yes")  # stays in memtable + WAL
        reopened = MiniLevelDB(db.fs, memtable_limit=512, l0_limit=3)
        assert reopened.get(b"durable") == b"yes"

    def test_manifest_recovery(self, db):
        for i in range(100):
            db.put(b"key%04d" % i, b"value-%d" % i)
        db.close()
        reopened = MiniLevelDB(db.fs, memtable_limit=512, l0_limit=3)
        for i in range(100):
            assert reopened.get(b"key%04d" % i) == b"value-%d" % i

    def test_wal_tombstone_replay(self, db):
        db.put(b"k", b"v")
        db.flush_memtable()
        db.delete(b"k")
        reopened = MiniLevelDB(db.fs, memtable_limit=512, l0_limit=3)
        assert reopened.get(b"k") is None


class _SaveFailed(Exception):
    pass


class TestManifestProtocol:
    """A manifest save that raises, then a reopen, loses no acknowledged
    put: the WAL is emptied and compaction inputs are unlinked only after
    the new manifest is in place."""

    def _run(self, db, failing_save, puts):
        """Put keys until the ``failing_save``-th manifest save (counted
        from now) raises once, then reopen; returns the acked puts."""
        manifest = f"{db.directory}/MANIFEST"
        original = db.fs.write_file
        saves = []

        def write_file(path, data):
            if path.startswith(manifest):
                saves.append(path)
                if len(saves) == failing_save:
                    raise _SaveFailed(path)
            return original(path, data)

        db.fs.write_file = write_file
        acked = {}
        for i in range(puts):
            key, value = b"key%04d" % i, b"value-%04d" % i
            try:
                db.put(key, value)
            except _SaveFailed:
                break
            acked[key] = value
        else:
            pytest.fail("no manifest save failed")
        del db.fs.write_file
        return MiniLevelDB(db.fs, memtable_limit=512, l0_limit=3, block_target=256), acked

    def test_failed_flush_save_keeps_the_wal(self, db):
        reopened, acked = self._run(db, failing_save=2, puts=200)
        assert acked and {k: reopened.get(k) for k in acked} == acked

    def test_failed_compaction_save_keeps_its_inputs(self, db):
        reopened, acked = self._run(db, failing_save=4, puts=200)
        assert reopened.table_count() == 3  # L0 was full: the save was compact()'s
        assert {k: reopened.get(k) for k in acked} == acked
        # The put whose compaction failed is durable, though not acked.
        assert dict(reopened.scan()).items() >= acked.items()

    def test_failed_save_leaves_the_open_database_usable(self, db):
        __, acked = self._run(db, failing_save=4, puts=200)
        for i in range(200, 260):
            db.put(b"key%04d" % i, b"value-%04d" % i)
            acked[b"key%04d" % i] = b"value-%04d" % i
        db.close()
        reopened = MiniLevelDB(db.fs, memtable_limit=512, l0_limit=3)
        assert {k: reopened.get(k) for k in acked} == acked

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"\xff\xfe",
            b'{"levels": [[], []], "next',
            b"[]",
            b'{"levels": 5, "next_table": 0}',
            b'{"levels": [[], [7]], "next_table": 0}',
            b'{"levels": [[]], "next_table": 0}',
            b'{"levels": [[], []], "next_table": "x"}',
        ],
    )
    def test_malformed_manifest_is_a_corrupt_record(self, db, raw):
        db.fs.write_file(f"{db.directory}/MANIFEST", raw)
        with pytest.raises(CorruptRecord):
            MiniLevelDB(db.fs)


class TestModelBased:
    def test_random_ops_match_dict(self, db):
        rng = random.Random(17)
        model = {}
        for i in range(800):
            key = b"key%03d" % rng.randrange(150)
            action = rng.random()
            if action < 0.6:
                value = b"val-%d-" % i * rng.randrange(1, 4)
                db.put(key, value)
                model[key] = value
            elif action < 0.8:
                db.delete(key)
                model.pop(key, None)
            else:
                assert db.get(key) == model.get(key)
        assert list(db.scan()) == sorted(model.items())


class TestSnappyIntegration:
    def test_snappy_tables_save_space(self):
        plain_fs = PassthroughFS(block_size=256)
        snappy_fs = PassthroughFS(block_size=256)
        plain = MiniLevelDB(plain_fs, memtable_limit=512)
        compressed = MiniLevelDB(snappy_fs, codec=SnappyCodec(), memtable_limit=512)
        for i in range(200):
            value = b"repetitive value body " * 4
            plain.put(b"key%04d" % i, value)
            compressed.put(b"key%04d" % i, value)
        plain.close()
        compressed.close()
        assert compressed.storage_bytes() < plain.storage_bytes()
        assert compressed.get(b"key0123") == b"repetitive value body " * 4


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "get"]),
            st.integers(0, 20),
            st.binary(max_size=20),
        ),
        max_size=60,
    )
)
@settings(max_examples=30, deadline=None)
def test_lsm_property_vs_dict(ops):
    """DESIGN.md invariant 6."""
    db = MiniLevelDB(PassthroughFS(block_size=128), memtable_limit=256, l0_limit=2)
    model = {}
    for action, key_no, value in ops:
        key = b"k%02d" % key_no
        if action == "put":
            db.put(key, value)
            model[key] = value
        elif action == "delete":
            db.delete(key)
            model.pop(key, None)
        else:
            assert db.get(key) == model.get(key)
    assert list(db.scan()) == sorted(model.items())
