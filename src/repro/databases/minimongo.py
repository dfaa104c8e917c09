"""MiniMongo: a JSON document store (the MongoDB stand-in).

Collections are append-only files of checksummed JSON records; an
in-memory ``_id`` index maps each document to its latest record.  The
API mirrors the pymongo calls the paper's benchmark uses
(``insert_one`` / ``find_one``) plus the surrounding essentials
(``update_one``, ``delete_one``, ``find``, ``count_documents``) and a
query language with the common operators
(``$gt/$gte/$lt/$lte/$ne/$in/$exists``).

Updates append a new version and deletes append a tombstone, so the
file only ever grows until :meth:`Collection.compact` rewrites it —
the same journal-style write pattern that gives a document DB its
redundancy (and CompressDB its dedup opportunities).
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from repro.databases.common import Database, DatabaseError, frame_record, read_frames
from repro.fs.vfs import FileSystem

Document = dict[str, object]
Query = dict[str, object]

_OPERATORS = frozenset({"$gt", "$gte", "$lt", "$lte", "$ne", "$in", "$exists"})


class DuplicateKey(DatabaseError):
    """A document with this ``_id`` already exists."""


def _match_condition(value: object, condition: object) -> bool:
    """Match one field against a literal or an operator document."""
    if isinstance(condition, dict) and any(key in _OPERATORS for key in condition):
        for op, operand in condition.items():
            if op == "$exists":
                if bool(operand) != (value is not _MISSING):
                    return False
                continue
            if value is _MISSING:
                return False
            if op == "$gt":
                if not value > operand:  # type: ignore[operator]
                    return False
            elif op == "$gte":
                if not value >= operand:  # type: ignore[operator]
                    return False
            elif op == "$lt":
                if not value < operand:  # type: ignore[operator]
                    return False
            elif op == "$lte":
                if not value <= operand:  # type: ignore[operator]
                    return False
            elif op == "$ne":
                if value == operand:
                    return False
            elif op == "$in":
                if value not in operand:  # type: ignore[operator]
                    return False
            else:
                raise DatabaseError(f"unknown operator {op}")
        return True
    return value == condition and value is not _MISSING


class _Missing:
    """Sentinel distinguishing absent fields from explicit None."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()


def matches(document: Document, query: Query) -> bool:
    """True when the document satisfies every field of the query."""
    for field, condition in query.items():
        value = document.get(field, _MISSING)
        if not _match_condition(value, condition):
            return False
    return True


class Collection:
    """One named collection: an append-only record file + _id index.

    Records larger than half a storage block are aligned to block
    boundaries (``align_to``), the way page-based document stores
    allocate — and the property that lets a deduplicating storage
    layer recognise identical document versions.
    """

    def __init__(self, fs: FileSystem, path: str, align_to: Optional[int] = None) -> None:
        self.fs = fs
        self.path = path
        self.align_to = align_to if align_to is not None else fs.block_size
        self._index: dict[str, int] = {}  # _id -> record ordinal of latest version
        self._records: list[tuple[int, Optional[Document]]] = []  # (ordinal, doc|tombstone)
        self._dead = 0
        # Secondary field indexes: field -> value -> _ids.  Definitions
        # persist in a sidecar file; contents are rebuilt on open.
        self._meta_path = path + ".meta"
        self._field_indexes: dict[str, dict[object, set[str]]] = {}
        if fs.exists(path):
            self._rebuild_index()
        else:
            fs.write_file(path, b"")
        if fs.exists(self._meta_path):
            meta = json.loads(fs.read_file(self._meta_path).decode("utf-8"))
            for field in meta.get("indexes", []):
                self._build_field_index(field)

    def _rebuild_index(self) -> None:
        self._records = []
        self._index = {}
        self._dead = 0
        frames = read_frames(self.fs.read_file(self.path), self.align_to or 1)
        for ordinal, frame in enumerate(frames):
            flag = frame[0]
            payload = json.loads(frame[1:].decode("utf-8"))
            if flag == 1:
                doc_id = payload["_id"]
                if doc_id in self._index:
                    self._dead += 1
                self._index.pop(doc_id, None)
                self._records.append((ordinal, None))
                self._dead += 1
            else:
                doc_id = payload["_id"]
                if doc_id in self._index:
                    self._dead += 1
                self._index[doc_id] = ordinal
                self._records.append((ordinal, payload))

    def _append_record(self, flag: int, payload: Document) -> int:
        frame = frame_record(bytes([flag]) + json.dumps(payload).encode("utf-8"))
        if self.align_to and len(frame) > self.align_to // 2:
            # Start large records on a block boundary (zero padding is
            # skipped by read_frames; gaps under a header size are
            # widened so the scanner never misparses them).
            position = self.fs.stat(self.path).size
            gap = (self.align_to - position % self.align_to) % self.align_to
            if 0 < gap < 8:
                gap += self.align_to
            if gap:
                self.fs.append_file(self.path, b"\x00" * gap)
        self.fs.append_file(self.path, frame)
        ordinal = len(self._records)
        self._records.append((ordinal, None if flag == 1 else payload))
        return ordinal

    # -- secondary field indexes ------------------------------------------
    def create_index(self, field: str) -> None:
        """Index equality lookups on ``field`` (pymongo's create_index)."""
        if field == "_id":
            raise DatabaseError("_id is always indexed")
        if field in self._field_indexes:
            return
        self._build_field_index(field)
        self._save_meta()

    def drop_index(self, field: str) -> None:
        if field not in self._field_indexes:
            raise DatabaseError(f"no index on {field!r}")
        del self._field_indexes[field]
        self._save_meta()

    def index_information(self) -> list[str]:
        return sorted(self._field_indexes)

    def _save_meta(self) -> None:
        payload = {"indexes": sorted(self._field_indexes)}
        self.fs.write_file(self._meta_path, json.dumps(payload).encode("utf-8"))

    def _build_field_index(self, field: str) -> None:
        index: dict[object, set[str]] = {}
        for document in self._iter_live():
            value = document.get(field)
            if isinstance(value, (str, int, float, bool)) or value is None:
                index.setdefault(value, set()).add(document["_id"])  # type: ignore[index]
        self._field_indexes[field] = index

    def _index_doc(self, document: Document) -> None:
        for field, index in self._field_indexes.items():
            value = document.get(field)
            if isinstance(value, (str, int, float, bool)) or value is None:
                index.setdefault(value, set()).add(document["_id"])  # type: ignore[index]

    def _unindex_doc(self, document: Document) -> None:
        for field, index in self._field_indexes.items():
            value = document.get(field)
            ids = index.get(value)
            if ids is not None:
                ids.discard(document["_id"])  # type: ignore[arg-type]
                if not ids:
                    del index[value]

    def _indexed_candidates(self, query: Query) -> Optional[list[str]]:
        """_ids satisfying one indexed equality term of the query."""
        for field, condition in query.items():
            if field in self._field_indexes and not isinstance(condition, dict):
                return sorted(self._field_indexes[field].get(condition, ()))
        return None

    # -- pymongo-like API ------------------------------------------------
    def insert_one(self, document: Document) -> str:
        doc = dict(document)
        doc_id = doc.get("_id")
        if doc_id is None:
            doc_id = f"oid{len(self._records):012x}"
            doc["_id"] = doc_id
        if not isinstance(doc_id, str):
            raise DatabaseError("_id must be a string")
        if doc_id in self._index:
            raise DuplicateKey(doc_id)
        self._index[doc_id] = self._append_record(0, doc)
        self._index_doc(doc)
        return doc_id

    def find_one(self, query: Query) -> Optional[Document]:
        doc_id = query.get("_id")
        if isinstance(doc_id, str):
            # Indexed point lookup.
            ordinal = self._index.get(doc_id)
            if ordinal is None:
                return None
            document = self._records[ordinal][1]
            assert document is not None
            return dict(document) if matches(document, query) else None
        candidates = self._indexed_candidates(query)
        if candidates is not None:
            for doc_id in candidates:
                ordinal = self._index.get(doc_id)
                if ordinal is None:
                    continue
                document = self._records[ordinal][1]
                if document is not None and matches(document, query):
                    return dict(document)
            return None
        for document in self._iter_live():
            if matches(document, query):
                return dict(document)
        return None

    def find(self, query: Optional[Query] = None) -> Iterator[Document]:
        query = query or {}
        candidates = self._indexed_candidates(query)
        if candidates is not None:
            for doc_id in candidates:
                ordinal = self._index.get(doc_id)
                if ordinal is None:
                    continue
                document = self._records[ordinal][1]
                if document is not None and matches(document, query):
                    yield dict(document)
            return
        for document in self._iter_live():
            if matches(document, query):
                yield dict(document)

    def _iter_live(self) -> Iterator[Document]:
        for doc_id in list(self._index):
            ordinal = self._index.get(doc_id)
            if ordinal is None:
                continue
            document = self._records[ordinal][1]
            if document is not None:
                yield document

    def update_one(self, query: Query, update: dict) -> bool:
        """Apply ``{"$set": {...}}`` to the first matching document."""
        if set(update) != {"$set"}:
            raise DatabaseError("only {'$set': {...}} updates are supported")
        current = self.find_one(query)
        if current is None:
            return False
        changes = update["$set"]
        if "_id" in changes and changes["_id"] != current["_id"]:
            raise DatabaseError("_id is immutable")
        updated = dict(current)
        updated.update(changes)  # type: ignore[arg-type]
        doc_id = updated["_id"]
        assert isinstance(doc_id, str)
        self._dead += 1
        self._unindex_doc(current)
        self._index[doc_id] = self._append_record(0, updated)
        self._index_doc(updated)
        return True

    def replace_one(self, query: Query, document: Document) -> bool:
        current = self.find_one(query)
        if current is None:
            return False
        replacement = dict(document)
        replacement["_id"] = current["_id"]
        doc_id = replacement["_id"]
        assert isinstance(doc_id, str)
        self._dead += 1
        self._unindex_doc(current)
        self._index[doc_id] = self._append_record(0, replacement)
        self._index_doc(replacement)
        return True

    def upsert_one(self, document: Document) -> str:
        doc_id = document.get("_id")
        if isinstance(doc_id, str) and doc_id in self._index:
            self.replace_one({"_id": doc_id}, document)
            return doc_id
        return self.insert_one(document)

    def delete_one(self, query: Query) -> bool:
        current = self.find_one(query)
        if current is None:
            return False
        doc_id = current["_id"]
        assert isinstance(doc_id, str)
        self._append_record(1, {"_id": doc_id})
        del self._index[doc_id]
        self._unindex_doc(current)
        self._dead += 2  # the tombstone and the shadowed version
        return True

    def count_documents(self, query: Optional[Query] = None) -> int:
        if not query:
            return len(self._index)
        return sum(1 for __ in self.find(query))

    # -- maintenance --------------------------------------------------------
    @property
    def dead_records(self) -> int:
        return self._dead

    def compact(self) -> None:
        """Rewrite the file keeping only the latest live versions."""
        live = [self._records[ordinal][1] for ordinal in sorted(self._index.values())]
        self.fs.write_file(self.path, b"")
        self._records = []
        self._index = {}
        self._dead = 0
        for document in live:
            assert document is not None
            doc_id = document["_id"]
            assert isinstance(doc_id, str)
            self._index[doc_id] = self._append_record(0, document)


class MiniMongo(Database):
    """The database object: a namespace of collections."""

    name = "minimongo"

    def __init__(self, fs: FileSystem, directory: str = "/mongo") -> None:
        super().__init__(fs)
        self.directory = directory.rstrip("/")
        self._collections: dict[str, Collection] = {}
        # Reopen any collections already on the file system.
        prefix = f"{self.directory}/"
        for path in fs.listdir(prefix):
            if path.endswith(".col"):
                name = path[len(prefix) : -len(".col")]
                self._collections[name] = Collection(fs, path)

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(
                self.fs, f"{self.directory}/{name}.col"
            )
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def list_collections(self) -> list[str]:
        return sorted(self._collections)

    # -- benchmark interface ---------------------------------------------------
    BENCH_COLLECTION = "docs"

    def bench_read(self, key: str) -> object:
        return self.collection(self.BENCH_COLLECTION).find_one({"_id": key})

    def bench_write(self, key: str, value: str) -> None:
        self.collection(self.BENCH_COLLECTION).upsert_one({"_id": key, "body": value})
