"""Tests for the MiniMongo document store."""

import pytest

from repro.databases.minimongo import DuplicateKey, MiniMongo, matches
from repro.databases.common import DatabaseError
from repro.fs import CompressFS, PassthroughFS
from repro.fs.errors import FSError


@pytest.fixture(params=["passthrough", "compress"])
def db(request):
    if request.param == "passthrough":
        fs = PassthroughFS(block_size=256)
    else:
        fs = CompressFS(block_size=256)
    return MiniMongo(fs)


class TestQueryMatching:
    def test_equality(self):
        assert matches({"a": 1}, {"a": 1})
        assert not matches({"a": 1}, {"a": 2})
        assert not matches({}, {"a": 1})

    def test_comparison_operators(self):
        doc = {"age": 30}
        assert matches(doc, {"age": {"$gt": 20}})
        assert matches(doc, {"age": {"$gte": 30}})
        assert matches(doc, {"age": {"$lt": 31}})
        assert matches(doc, {"age": {"$lte": 30}})
        assert not matches(doc, {"age": {"$gt": 30}})

    def test_ne_and_in(self):
        doc = {"tag": "b"}
        assert matches(doc, {"tag": {"$ne": "a"}})
        assert matches(doc, {"tag": {"$in": ["a", "b"]}})
        assert not matches(doc, {"tag": {"$in": ["x"]}})

    def test_exists(self):
        assert matches({"a": 1}, {"a": {"$exists": True}})
        assert matches({}, {"a": {"$exists": False}})
        assert not matches({}, {"a": {"$exists": True}})

    def test_combined_operators(self):
        assert matches({"n": 5}, {"n": {"$gt": 1, "$lt": 10}})

    def test_missing_field_never_compares(self):
        assert not matches({}, {"n": {"$gt": 1}})

    def test_unknown_operator_raises(self):
        with pytest.raises(DatabaseError):
            matches({"n": 1}, {"n": {"$regex": "x", "$gt": 0}})


class TestCollection:
    def test_insert_assigns_id(self, db):
        doc_id = db["c"].insert_one({"x": 1})
        assert doc_id.startswith("oid")
        assert db["c"].find_one({"_id": doc_id})["x"] == 1

    def test_explicit_id_kept(self, db):
        db["c"].insert_one({"_id": "me", "x": 1})
        assert db["c"].find_one({"_id": "me"})["x"] == 1

    def test_duplicate_id_rejected(self, db):
        db["c"].insert_one({"_id": "dup"})
        with pytest.raises(DuplicateKey):
            db["c"].insert_one({"_id": "dup"})

    def test_non_string_id_rejected(self, db):
        with pytest.raises(DatabaseError):
            db["c"].insert_one({"_id": 42})

    def test_find_one_by_field(self, db):
        db["c"].insert_one({"name": "a", "age": 1})
        db["c"].insert_one({"name": "b", "age": 2})
        assert db["c"].find_one({"age": 2})["name"] == "b"
        assert db["c"].find_one({"age": 99}) is None

    def test_find_many(self, db):
        for i in range(10):
            db["c"].insert_one({"i": i})
        assert len(list(db["c"].find({"i": {"$gte": 5}}))) == 5

    def test_update_one_set(self, db):
        doc_id = db["c"].insert_one({"v": 1})
        assert db["c"].update_one({"_id": doc_id}, {"$set": {"v": 2}})
        assert db["c"].find_one({"_id": doc_id})["v"] == 2

    def test_update_missing_returns_false(self, db):
        assert not db["c"].update_one({"_id": "nope"}, {"$set": {"v": 1}})

    def test_update_id_rejected(self, db):
        doc_id = db["c"].insert_one({"v": 1})
        with pytest.raises(DatabaseError):
            db["c"].update_one({"_id": doc_id}, {"$set": {"_id": "other"}})

    def test_non_set_update_rejected(self, db):
        doc_id = db["c"].insert_one({"v": 1})
        with pytest.raises(DatabaseError):
            db["c"].update_one({"_id": doc_id}, {"$inc": {"v": 1}})

    def test_replace_one(self, db):
        doc_id = db["c"].insert_one({"v": 1, "extra": True})
        db["c"].replace_one({"_id": doc_id}, {"v": 2})
        doc = db["c"].find_one({"_id": doc_id})
        assert doc == {"_id": doc_id, "v": 2}

    def test_delete_one(self, db):
        doc_id = db["c"].insert_one({"v": 1})
        assert db["c"].delete_one({"_id": doc_id})
        assert db["c"].find_one({"_id": doc_id}) is None
        assert not db["c"].delete_one({"_id": doc_id})

    def test_count_documents(self, db):
        for i in range(7):
            db["c"].insert_one({"even": i % 2 == 0})
        assert db["c"].count_documents() == 7
        assert db["c"].count_documents({"even": True}) == 4

    def test_find_one_returns_copy(self, db):
        doc_id = db["c"].insert_one({"v": 1})
        doc = db["c"].find_one({"_id": doc_id})
        doc["v"] = 999
        assert db["c"].find_one({"_id": doc_id})["v"] == 1


class TestDurabilityAndCompaction:
    def test_reopen_sees_documents(self, db):
        db["c"].insert_one({"_id": "persists", "v": 1})
        db["c"].update_one({"_id": "persists"}, {"$set": {"v": 2}})
        reopened = MiniMongo(db.fs)
        assert reopened["c"].find_one({"_id": "persists"})["v"] == 2

    def test_reopen_respects_deletes(self, db):
        db["c"].insert_one({"_id": "gone"})
        db["c"].delete_one({"_id": "gone"})
        reopened = MiniMongo(db.fs)
        assert reopened["c"].find_one({"_id": "gone"}) is None

    def test_compact_shrinks_file(self, db):
        collection = db["c"]
        doc_id = collection.insert_one({"v": 0})
        for i in range(30):
            collection.update_one({"_id": doc_id}, {"$set": {"v": i}})
        size_before = db.fs.stat(collection.path).size
        collection.compact()
        assert db.fs.stat(collection.path).size < size_before
        assert collection.find_one({"_id": doc_id})["v"] == 29

    @pytest.mark.parametrize("failing_write", [1, 10])
    def test_failed_compaction_keeps_every_document(self, db, failing_write):
        """The ``failing_write``-th write to the collection's files during
        ``compact()`` raises; the open collection and a reopen still hold
        all 40 documents at their latest version."""
        collection = db["c"]
        for i in range(40):
            collection.insert_one({"_id": f"d{i:02d}", "v": 0})
            collection.update_one({"_id": f"d{i:02d}"}, {"$set": {"v": 1}})
        original = db.fs._pwrite
        writes = []

        def _pwrite(path, offset, data):
            if path.startswith(collection.path):
                writes.append(path)
                if len(writes) == failing_write:
                    raise FSError("injected compaction write failure")
            return original(path, offset, data)

        db.fs._pwrite = _pwrite
        try:
            collection.compact()
        except FSError:
            pass
        del db.fs._pwrite
        assert writes
        for handle in (collection, MiniMongo(db.fs)["c"]):
            assert handle.count_documents() == 40
            assert all(
                handle.find_one({"_id": f"d{i:02d}"})["v"] == 1 for i in range(40)
            )

    def test_dead_record_accounting(self, db):
        collection = db["c"]
        doc_id = collection.insert_one({"v": 0})
        collection.update_one({"_id": doc_id}, {"$set": {"v": 1}})
        assert collection.dead_records >= 1
        collection.compact()
        assert collection.dead_records == 0

    def test_list_collections(self, db):
        db["users"].insert_one({})
        db["orders"].insert_one({})
        assert db.list_collections() == ["orders", "users"]


class TestBenchInterface:
    def test_bench_read_write(self, db):
        db.bench_write("k1", "body text")
        doc = db.bench_read("k1")
        assert doc["body"] == "body text"
        db.bench_write("k1", "updated")
        assert db.bench_read("k1")["body"] == "updated"
        assert db.bench_read("missing") is None
