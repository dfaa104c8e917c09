"""MiniSQL: an embedded relational engine (the SQLite stand-in).

Mirrors what matters about SQLite for the paper's evaluation:

* data lives in **pages inside ordinary files**, accessed through the
  VFS — so pointing the engine at a CompressFS mount transparently
  compresses it;
* rows are stored **clustered in primary-key order** (Section 6.2 notes
  SQLite's low latency comes from key-ordered storage), with a page
  directory for key lookups;
* queries arrive as SQL text and run through the shared parser and
  executor (:mod:`repro.databases.sql_parser`,
  :mod:`repro.databases.sql_executor`).

The on-disk layout is deliberately simple — a catalog file plus one
page file per table — but every byte goes through ``FileSystem`` calls.
"""

from __future__ import annotations

import bisect
import json
import struct
from typing import Iterator, Optional, Union

from repro.databases.common import (
    CorruptRecord,
    Database,
    DatabaseError,
    decode_varint,
    encode_varint,
    frame_record,
    read_frames,
)
from repro.databases.sql_executor import evaluate, run_select
from repro.databases.sql_parser import (
    Begin,
    BinaryOp,
    Column,
    Commit,
    CreateIndex,
    CreateTable,
    Delete,
    DropIndex,
    Insert,
    Literal,
    Rollback,
    Select,
    Statement,
    Update,
    parse,
)
from repro.fs.vfs import FileSystem

_PAGE_HEADER = struct.Struct("<I")  # row count

RowValue = Union[int, float, str, None]
Row = dict[str, RowValue]


class TableError(DatabaseError):
    """Schema or constraint violation."""


def _zigzag_encode(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_value(type_name: str, value: RowValue) -> bytes:
    if value is None:
        return b"\x00"
    if type_name == "INT":
        if not isinstance(value, int):
            raise TableError(f"expected INT, got {value!r}")
        return b"\x01" + encode_varint(_zigzag_encode(value))
    if type_name == "REAL":
        if not isinstance(value, (int, float)):
            raise TableError(f"expected REAL, got {value!r}")
        return b"\x01" + struct.pack("<d", float(value))
    if type_name == "TEXT":
        if not isinstance(value, str):
            raise TableError(f"expected TEXT, got {value!r}")
        raw = value.encode("utf-8")
        return b"\x01" + encode_varint(len(raw)) + raw
    raise TableError(f"unknown type {type_name}")


def _decode_value(type_name: str, data: bytes, offset: int) -> tuple[RowValue, int]:
    flag = data[offset]
    offset += 1
    if flag == 0:
        return None, offset
    if type_name == "INT":
        raw, offset = decode_varint(data, offset)
        return _zigzag_decode(raw), offset
    if type_name == "REAL":
        (value,) = struct.unpack_from("<d", data, offset)
        return value, offset + 8
    if type_name == "TEXT":
        length, offset = decode_varint(data, offset)
        return data[offset : offset + length].decode("utf-8"), offset + length
    raise CorruptRecord(f"unknown type {type_name}")


class TableSchema:
    """Column names/types and the primary key of one table."""

    def __init__(self, name: str, columns: list[tuple[str, str]], primary_key: str) -> None:
        self.name = name
        self.columns = columns
        self.primary_key = primary_key
        self.column_names = [column for column, __ in columns]
        if primary_key not in self.column_names:
            raise TableError(f"primary key {primary_key!r} is not a column")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "columns": self.columns,
            "primary_key": self.primary_key,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TableSchema":
        return cls(
            name=payload["name"],
            columns=[tuple(column) for column in payload["columns"]],
            primary_key=payload["primary_key"],
        )

    def encode_row(self, row: Row) -> bytes:
        parts = [
            _encode_value(type_name, row.get(column))
            for column, type_name in self.columns
        ]
        return b"".join(parts)

    def decode_row(self, data: bytes, offset: int) -> tuple[Row, int]:
        row: Row = {}
        for column, type_name in self.columns:
            row[column], offset = _decode_value(type_name, data, offset)
        return row, offset


class Table:
    """One clustered table: sorted pages + an in-memory page directory."""

    def __init__(
        self,
        fs: FileSystem,
        schema: TableSchema,
        path: str,
        page_size: int = 4096,
    ) -> None:
        self.fs = fs
        self.schema = schema
        self.path = path
        self.page_size = page_size
        # Directory: parallel lists of each page's first key (held as its
        # _sort_key, so lookups bisect it directly) and page number,
        # sorted by first key; pages partition the key space.
        self._first_keys: list[tuple] = []
        self._page_numbers: list[int] = []
        self._page_count = 0
        if fs.exists(path):
            self._load_directory()
        else:
            fs.write_file(path, b"")

    # -- page I/O --------------------------------------------------------
    def _read_page(self, page_no: int) -> list[Row]:
        raw = self.fs._pread(self.path, page_no * self.page_size, self.page_size)
        if len(raw) < _PAGE_HEADER.size:
            return []
        (count,) = _PAGE_HEADER.unpack_from(raw, 0)
        rows: list[Row] = []
        offset = _PAGE_HEADER.size
        for __ in range(count):
            row, offset = self.schema.decode_row(raw, offset)
            rows.append(row)
        return rows

    def _write_page(self, page_no: int, rows: list[Row]) -> None:
        body = b"".join(self.schema.encode_row(row) for row in rows)
        payload = _PAGE_HEADER.pack(len(rows)) + body
        if len(payload) > self.page_size:
            raise TableError(
                f"page overflow: {len(payload)} bytes > page size {self.page_size}"
            )
        payload += b"\x00" * (self.page_size - len(payload))
        self.fs._pwrite(self.path, page_no * self.page_size, payload)

    def _append_page(self, rows: list[Row]) -> int:
        page_no = self._page_count
        self._page_count += 1
        self._write_page(page_no, rows)
        return page_no

    def _load_directory(self) -> None:
        size = self.fs.stat(self.path).size
        self._page_count = size // self.page_size
        entries: list[tuple[tuple, int]] = []
        for page_no in range(self._page_count):
            rows = self._read_page(page_no)
            if rows:
                entries.append((_sort_key(rows[0][self.schema.primary_key]), page_no))
        entries.sort(key=lambda entry: entry[0])
        self._first_keys = [key for key, __ in entries]
        self._page_numbers = [page_no for __, page_no in entries]

    # -- key navigation ------------------------------------------------------
    def _directory_slot(self, key: RowValue) -> int:
        """Index of the directory page that should hold ``key``."""
        if not self._first_keys:
            return -1
        index = bisect.bisect_right(self._first_keys, _sort_key(key))
        return max(0, index - 1)

    # -- operations ------------------------------------------------------------
    def insert(self, row: Row) -> None:
        key = row.get(self.schema.primary_key)
        if key is None:
            raise TableError("primary key must not be NULL")
        if not self._first_keys:
            page_no = self._append_page([row])
            self._first_keys.append(_sort_key(key))
            self._page_numbers.append(page_no)
            return
        slot = self._directory_slot(key)
        page_no = self._page_numbers[slot]
        rows = self._read_page(page_no)
        keys = [_sort_key(r[self.schema.primary_key]) for r in rows]
        position = bisect.bisect_left(keys, _sort_key(key))
        if position < len(rows) and rows[position][self.schema.primary_key] == key:
            raise TableError(f"duplicate primary key {key!r}")
        rows.insert(position, row)
        self._store_rows(slot, page_no, rows)

    def _store_rows(self, slot: int, page_no: int, rows: list[Row]) -> None:
        """Write rows back, splitting the page if it overflows."""
        body_size = _PAGE_HEADER.size + sum(
            len(self.schema.encode_row(row)) for row in rows
        )
        if body_size <= self.page_size:
            self._write_page(page_no, rows)
            self._first_keys[slot] = _sort_key(rows[0][self.schema.primary_key])
            return
        half = len(rows) // 2
        left, right = rows[:half], rows[half:]
        if not left or not right:
            raise TableError("row larger than a page")
        self._write_page(page_no, left)
        new_page = self._append_page(right)
        self._first_keys[slot] = _sort_key(left[0][self.schema.primary_key])
        self._first_keys.insert(slot + 1, _sort_key(right[0][self.schema.primary_key]))
        self._page_numbers.insert(slot + 1, new_page)

    def get(self, key: RowValue) -> Optional[Row]:
        slot = self._directory_slot(key)
        if slot < 0:
            return None
        for row in self._read_page(self._page_numbers[slot]):
            if row[self.schema.primary_key] == key:
                return row
        return None

    def update_by_key(self, key: RowValue, changes: Row) -> bool:
        slot = self._directory_slot(key)
        if slot < 0:
            return False
        page_no = self._page_numbers[slot]
        rows = self._read_page(page_no)
        for index, row in enumerate(rows):
            if row[self.schema.primary_key] == key:
                updated = dict(row)
                for column, value in changes.items():
                    if column == self.schema.primary_key and value != key:
                        raise TableError("updating the primary key is unsupported")
                    updated[column] = value
                rows[index] = updated
                self._store_rows(slot, page_no, rows)
                return True
        return False

    def delete_by_key(self, key: RowValue) -> bool:
        slot = self._directory_slot(key)
        if slot < 0:
            return False
        page_no = self._page_numbers[slot]
        rows = self._read_page(page_no)
        remaining = [row for row in rows if row[self.schema.primary_key] != key]
        if len(remaining) == len(rows):
            return False
        self._write_page(page_no, remaining)
        if remaining:
            self._first_keys[slot] = _sort_key(remaining[0][self.schema.primary_key])
        else:
            del self._first_keys[slot]
            del self._page_numbers[slot]
        return True

    def scan(self) -> Iterator[Row]:
        """All rows in primary-key order."""
        for page_no in self._page_numbers:
            yield from self._read_page(page_no)

    def scan_range(
        self, low: Optional[RowValue] = None, high: Optional[RowValue] = None
    ) -> Iterator[Row]:
        """Rows with low <= pk <= high, reading only the covering pages."""
        start_slot = self._directory_slot(low) if low is not None else 0
        start_slot = max(0, start_slot)
        low_key = _sort_key(low) if low is not None else None
        high_key = _sort_key(high) if high is not None else None
        for slot in range(start_slot, len(self._page_numbers)):
            rows = self._read_page(self._page_numbers[slot])
            if not rows:
                continue
            first = rows[0][self.schema.primary_key]
            if high_key is not None and _sort_key(first) > high_key:
                break
            if low_key is None and high_key is None:
                yield from rows
                continue
            for row in rows:
                key = _sort_key(row[self.schema.primary_key])
                if low_key is not None and key < low_key:
                    continue
                if high_key is not None and key > high_key:
                    return
                yield row

    def row_count(self) -> int:
        return sum(1 for __ in self.scan())


def _sort_key(value: RowValue):
    """Total order over mixed key types (NULL < numbers < strings)."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


class SecondaryIndex:
    """A non-unique index: column value -> primary keys.

    Persisted as an append-only log of add/remove records (replayed on
    open), with an in-memory value map.  NULL values are not indexed —
    SQL comparisons with NULL never match, so the index never has to
    answer for them.
    """

    def __init__(self, fs: FileSystem, path: str, name: str, table: str, column: str) -> None:
        self.fs = fs
        self.path = path
        self.name = name
        self.table = table
        self.column = column
        self._entries: dict[RowValue, set[RowValue]] = {}
        if fs.exists(path):
            self._replay()
        else:
            fs.write_file(path, b"")

    def _replay(self) -> None:
        for frame in read_frames(self.fs.read_file(self.path)):
            record = json.loads(frame[1:].decode("utf-8"))
            value, key = record
            if frame[0] == 0:
                self._entries.setdefault(value, set()).add(key)
            else:
                keys = self._entries.get(value)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del self._entries[value]

    def _log(self, flag: int, value: RowValue, key: RowValue) -> None:
        payload = bytes([flag]) + json.dumps([value, key]).encode("utf-8")
        self.fs.append_file(self.path, frame_record(payload))

    # -- maintenance ---------------------------------------------------------
    def add(self, value: RowValue, key: RowValue) -> None:
        if value is None:
            return
        self._entries.setdefault(value, set()).add(key)
        self._log(0, value, key)

    def remove(self, value: RowValue, key: RowValue) -> None:
        if value is None:
            return
        keys = self._entries.get(value)
        if keys is None or key not in keys:
            return
        keys.discard(key)
        if not keys:
            del self._entries[value]
        self._log(1, value, key)

    def compact(self) -> None:
        """Rewrite the log with only the live entries."""
        self.fs.write_file(self.path, b"")
        for value, keys in self._entries.items():
            for key in keys:
                self._log(0, value, key)

    # -- lookups -----------------------------------------------------------------
    def lookup(self, value: RowValue) -> list[RowValue]:
        return sorted(self._entries.get(value, ()), key=_sort_key)

    @property
    def entry_count(self) -> int:
        return sum(len(keys) for keys in self._entries.values())


class MiniSQL(Database):
    """The SQL front end over :class:`Table` storage."""

    name = "minisql"

    def __init__(
        self,
        fs: FileSystem,
        directory: str = "/minisql",
        page_size: int = 4096,
    ) -> None:
        super().__init__(fs)
        self.directory = directory.rstrip("/")
        self.page_size = page_size
        self._catalog_path = f"{self.directory}/catalog.json"
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, SecondaryIndex] = {}
        # Transaction state: a logical undo log (SQLite-journal style,
        # simplified to statement-level undo actions in memory).
        self._in_transaction = False
        self._undo_log: list = []
        if fs.exists(self._catalog_path):
            self._load_catalog()

    # -- catalog -----------------------------------------------------------
    def _load_catalog(self) -> None:
        raw = self.fs.read_file(self._catalog_path)
        try:
            payload = json.loads(raw.decode("utf-8"))
            schemas = [TableSchema.from_json(entry) for entry in payload["tables"]]
            indexes = [
                (entry["name"], entry["table"], entry["column"])
                for entry in payload.get("indexes", [])
            ]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptRecord(f"{self._catalog_path}: malformed: {exc}") from exc
        for schema in schemas:
            self._tables[schema.name] = Table(
                self.fs,
                schema,
                path=f"{self.directory}/{schema.name}.tbl",
                page_size=self.page_size,
            )
        for name, table, column in indexes:
            self._indexes[name] = SecondaryIndex(
                self.fs,
                path=f"{self.directory}/{name}.idx",
                name=name,
                table=table,
                column=column,
            )

    def _save_catalog(self) -> None:
        """Publish the schema: written aside, then renamed over the old
        catalog, so a reopen finds the old one or the new one, never a
        truncated file."""
        payload = {
            "tables": [table.schema.to_json() for table in self._tables.values()],
            "indexes": [
                {"name": index.name, "table": index.table, "column": index.column}
                for index in self._indexes.values()
            ],
        }
        staged = self._catalog_path + ".tmp"
        self.fs.write_file(staged, json.dumps(payload).encode("utf-8"))
        self.fs.rename(staged, self._catalog_path)

    def _indexes_on(self, table: str) -> list[SecondaryIndex]:
        return [index for index in self._indexes.values() if index.table == table]

    def _index_for(self, table: str, column: str) -> Optional[SecondaryIndex]:
        for index in self._indexes.values():
            if index.table == table and index.column == column:
                return index
        return None

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"no such table {name!r}") from None

    # -- SQL execution ------------------------------------------------------------
    def execute(self, sql: str) -> list[dict[str, object]]:
        """Run one SQL statement; SELECTs return rows, others []."""
        return self.execute_statement(parse(sql))

    def execute_statement(self, statement: Statement) -> list[dict[str, object]]:
        if isinstance(statement, Begin):
            return self._execute_begin()
        if isinstance(statement, Commit):
            return self._execute_commit()
        if isinstance(statement, Rollback):
            return self._execute_rollback()
        if isinstance(statement, (CreateTable, CreateIndex, DropIndex)):
            if self._in_transaction:
                raise TableError("DDL inside a transaction is unsupported")
        if isinstance(statement, CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Select):
            return self._execute_select(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        raise DatabaseError(f"unsupported statement {statement!r}")

    def _execute_create(self, statement: CreateTable) -> list:
        if statement.table in self._tables:
            raise TableError(f"table {statement.table!r} already exists")
        primary = [column.name for column in statement.columns if column.primary_key]
        if len(primary) > 1:
            raise TableError("at most one PRIMARY KEY column is supported")
        primary_key = primary[0] if primary else statement.columns[0].name
        schema = TableSchema(
            name=statement.table,
            columns=[(column.name, column.type_name) for column in statement.columns],
            primary_key=primary_key,
        )
        self._tables[statement.table] = Table(
            self.fs,
            schema,
            path=f"{self.directory}/{statement.table}.tbl",
            page_size=self.page_size,
        )
        self._save_catalog()
        return []

    # -- transactions ---------------------------------------------------------
    def _execute_begin(self) -> list:
        if self._in_transaction:
            raise TableError("a transaction is already open")
        self._in_transaction = True
        self._undo_log = []
        return []

    def _execute_commit(self) -> list:
        if not self._in_transaction:
            raise TableError("no open transaction")
        self._in_transaction = False
        self._undo_log = []
        return []

    def _execute_rollback(self) -> list:
        if not self._in_transaction:
            raise TableError("no open transaction")
        # Undo actions run newest-first, outside the transaction so
        # they are not themselves recorded.
        self._in_transaction = False
        while self._undo_log:
            self._undo_log.pop()()
        return []

    def _record_undo(self, action) -> None:
        if self._in_transaction:
            self._undo_log.append(action)

    def _undo_insert(self, table_name: str, key: RowValue, row: Row):
        def action(table_name=table_name, key=key, row=dict(row)) -> None:
            table = self.table(table_name)
            table.delete_by_key(key)
            for index in self._indexes_on(table_name):
                index.remove(row.get(index.column), key)

        return action

    def _undo_delete(self, table_name: str, row: Row):
        def action(table_name=table_name, row=dict(row)) -> None:
            table = self.table(table_name)
            table.insert(row)
            key = row[table.schema.primary_key]
            for index in self._indexes_on(table_name):
                index.add(row.get(index.column), key)

        return action

    def _undo_update(self, table_name: str, old_row: Row, changes: Row):
        restore = {column: old_row.get(column) for column in changes}

        def action(table_name=table_name, old_row=dict(old_row), restore=restore) -> None:
            table = self.table(table_name)
            key = old_row[table.schema.primary_key]
            for index in self._indexes_on(table_name):
                if index.column in restore:
                    current = table.get(key)
                    if current is not None:
                        index.remove(current.get(index.column), key)
                    index.add(old_row.get(index.column), key)
            table.update_by_key(key, restore)

        return action

    def _execute_create_index(self, statement: CreateIndex) -> list:
        if statement.name in self._indexes:
            raise TableError(f"index {statement.name!r} already exists")
        table = self.table(statement.table)
        if statement.column not in table.schema.column_names:
            raise TableError(
                f"no column {statement.column!r} in table {statement.table!r}"
            )
        index = SecondaryIndex(
            self.fs,
            path=f"{self.directory}/{statement.name}.idx",
            name=statement.name,
            table=statement.table,
            column=statement.column,
        )
        # Backfill from the existing rows.
        for row in table.scan():
            index.add(row.get(statement.column), row[table.schema.primary_key])
        self._indexes[statement.name] = index
        self._save_catalog()
        return []

    def _execute_drop_index(self, statement: DropIndex) -> list:
        index = self._indexes.pop(statement.name, None)
        if index is None:
            raise TableError(f"no such index {statement.name!r}")
        self.fs.unlink(index.path)
        self._save_catalog()
        return []

    def _execute_insert(self, statement: Insert) -> list:
        table = self.table(statement.table)
        columns = list(statement.columns) or table.schema.column_names
        indexes = self._indexes_on(statement.table)
        for values in statement.rows:
            if len(values) != len(columns):
                raise TableError("value count does not match column count")
            row: Row = {column: literal.value for column, literal in zip(columns, values)}
            table.insert(row)
            key = row[table.schema.primary_key]
            for index in indexes:
                index.add(row.get(index.column), key)
            self._record_undo(self._undo_insert(statement.table, key, row))
        return []

    def _execute_select(self, statement: Select) -> list[dict[str, object]]:
        if statement.join is not None:
            return run_select(statement, self._join_rows(statement))
        table = self.table(statement.table)
        rows = self._candidate_rows(table, statement.where)
        return run_select(statement, rows)

    def _join_rows(self, statement: Select) -> Iterator[Row]:
        """Inner hash equi-join of the FROM table with the JOIN table.

        The smaller-side choice is left simple: the right table is the
        build side.  Joined rows expose qualified names
        (``table.column``) for every column and unqualified names where
        they are unambiguous.
        """
        join = statement.join
        assert join is not None
        left_table = self.table(statement.table)
        right_table = self.table(join.right_table)

        def resolve(qualified: str, expected: str, fallback: str) -> tuple[str, str]:
            if "." in qualified:
                table_name, column = qualified.split(".", 1)
                return table_name, column
            return fallback, qualified

        left_owner, left_column = resolve(join.left_column, statement.table, statement.table)
        right_owner, right_column = resolve(join.right_column, join.right_table, join.right_table)
        if left_owner == join.right_table and right_owner == statement.table:
            # ON b.y = a.x written the other way round.
            left_owner, left_column, right_owner, right_column = (
                right_owner,
                right_column,
                left_owner,
                left_column,
            )
        if left_owner != statement.table or right_owner != join.right_table:
            raise TableError(
                f"join condition {join.left_column} = {join.right_column} does not "
                f"reference {statement.table} and {join.right_table}"
            )
        if left_column not in left_table.schema.column_names:
            raise TableError(f"no column {left_column!r} in {statement.table!r}")
        if right_column not in right_table.schema.column_names:
            raise TableError(f"no column {right_column!r} in {join.right_table!r}")

        build: dict[RowValue, list[Row]] = {}
        for row in right_table.scan():
            value = row.get(right_column)
            if value is not None:
                build.setdefault(value, []).append(row)
        left_names = set(left_table.schema.column_names)
        right_names = set(right_table.schema.column_names)
        for left_row in left_table.scan():
            value = left_row.get(left_column)
            if value is None:
                continue
            for right_row in build.get(value, ()):  # inner join
                merged: Row = {}
                for column, cell in left_row.items():
                    merged[f"{statement.table}.{column}"] = cell
                    if column not in right_names:
                        merged[column] = cell
                for column, cell in right_row.items():
                    merged[f"{join.right_table}.{column}"] = cell
                    if column not in left_names:
                        merged[column] = cell
                yield merged

    def _apply_update(self, table: Table, row: Row, changes: Row) -> None:
        key = row[table.schema.primary_key]
        self._record_undo(self._undo_update(table.schema.name, row, changes))
        for index in self._indexes_on(table.schema.name):
            if index.column in changes and changes[index.column] != row.get(index.column):
                index.remove(row.get(index.column), key)
                index.add(changes[index.column], key)
        table.update_by_key(key, changes)

    def _execute_update(self, statement: Update) -> list:
        table = self.table(statement.table)
        key = self._key_equality(table, statement.where)
        if key is not None:
            # Fast path: single-page key update.
            row = table.get(key)
            if row is not None:
                changes = {
                    column: evaluate(expr, row) for column, expr in statement.assignments
                }
                self._apply_update(table, row, changes)
            return []
        updated: list[tuple[Row, Row]] = []
        for row in self._candidate_rows(table, statement.where):
            if statement.where is None or evaluate(statement.where, row):
                changes = {
                    column: evaluate(expr, row) for column, expr in statement.assignments
                }
                updated.append((dict(row), changes))
        for row, changes in updated:
            self._apply_update(table, row, changes)
        return []

    def _execute_delete(self, statement: Delete) -> list:
        table = self.table(statement.table)
        doomed = [
            dict(row)
            for row in self._candidate_rows(table, statement.where)
            if statement.where is None or evaluate(statement.where, row)
        ]
        indexes = self._indexes_on(statement.table)
        for row in doomed:
            key = row[table.schema.primary_key]
            self._record_undo(self._undo_delete(statement.table, row))
            table.delete_by_key(key)
            for index in indexes:
                index.remove(row.get(index.column), key)
        return []

    # -- access-path selection ----------------------------------------------------
    def _key_equality(self, table: Table, where) -> Optional[RowValue]:
        """Detect ``WHERE pk = literal`` for the point-lookup fast path."""
        if (
            isinstance(where, BinaryOp)
            and where.op == "="
            and isinstance(where.left, Column)
            and where.left.name == table.schema.primary_key
            and isinstance(where.right, Literal)
        ):
            return where.right.value
        return None

    def _key_range(self, table: Table, where) -> Optional[tuple]:
        """Detect ``pk >= a AND pk <= b`` style ranges for page pruning."""
        bounds: dict[str, RowValue] = {}

        def visit(expr) -> bool:
            if isinstance(expr, BinaryOp) and expr.op == "AND":
                return visit(expr.left) and visit(expr.right)
            if (
                isinstance(expr, BinaryOp)
                and isinstance(expr.left, Column)
                and expr.left.name == table.schema.primary_key
                and isinstance(expr.right, Literal)
                and expr.op in (">=", "<=", ">", "<", "=")
            ):
                value = expr.right.value
                if expr.op in (">=", ">", "="):
                    bounds["low"] = value
                if expr.op in ("<=", "<", "="):
                    bounds["high"] = value
                return True
            return False

        if where is not None and visit(where) and bounds:
            return bounds.get("low"), bounds.get("high")
        return None

    def _index_equality(self, table: Table, where) -> Optional[tuple[SecondaryIndex, RowValue]]:
        """Detect ``WHERE indexed_col = literal`` for index lookups."""
        if (
            isinstance(where, BinaryOp)
            and where.op == "="
            and isinstance(where.left, Column)
            and isinstance(where.right, Literal)
        ):
            index = self._index_for(table.schema.name, where.left.name)
            if index is not None:
                return index, where.right.value
        return None

    def _candidate_rows(self, table: Table, where) -> Iterator[Row]:
        key = self._key_equality(table, where)
        if key is not None:
            row = table.get(key)
            return iter([row] if row is not None else [])
        key_range = self._key_range(table, where)
        if key_range is not None:
            return table.scan_range(*key_range)
        indexed = self._index_equality(table, where)
        if indexed is not None:
            index, value = indexed
            rows = (table.get(pk) for pk in index.lookup(value))
            return (row for row in rows if row is not None)
        return table.scan()

    # -- benchmark interface --------------------------------------------------------
    BENCH_TABLE = "docs"

    def bench_setup(self) -> None:
        if self.BENCH_TABLE not in self._tables:
            self.execute(
                f"CREATE TABLE {self.BENCH_TABLE} (id INT PRIMARY KEY, body TEXT)"
            )

    def bench_read(self, key: str) -> object:
        rows = self.execute(
            f"SELECT body FROM {self.BENCH_TABLE} WHERE id = {int(key)}"
        )
        return rows[0]["body"] if rows else None

    def bench_write(self, key: str, value: str) -> None:
        escaped = value.replace("'", "''")
        table = self.table(self.BENCH_TABLE)
        if table.get(int(key)) is None:
            self.execute(
                f"INSERT INTO {self.BENCH_TABLE} VALUES ({int(key)}, '{escaped}')"
            )
        else:
            self.execute(
                f"UPDATE {self.BENCH_TABLE} SET body = '{escaped}' WHERE id = {int(key)}"
            )
