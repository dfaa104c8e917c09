"""MiniColumn: a column-oriented SQL engine (the ClickHouse stand-in).

Each table stores its data **per column** as a sequence of *blocks*,
one per insert batch, described by a fixed-width block directory
(``<column>.seg``).  A block is written in the cheapest of four
formats, chosen per batch by a stats-driven picker
(:mod:`repro.databases.colcodec`):

* ``PLAIN``  — fixed-width cells (8 bytes per INT/REAL value; TEXT is
  a heap file plus (start, length) offset pairs);
* ``RLE``    — run-length encoded values;
* ``DELTA``  — first value + bit-packed frame-of-reference deltas;
* ``DICT``   — per-block string dictionary + bit-packed codes (TEXT).

Scans are *encoding-aware*: surviving blocks (zone maps prune per-batch
min/max first) are handed to the vectorized executor as encoded column
vectors, so an RLE run is accepted or rejected once and a dictionary
predicate tests each distinct string once
(:mod:`repro.databases.vector_executor`); :meth:`ColumnTable.scan` is
the row view of the same block scan.

Writes follow ClickHouse's spirit: INSERTs append encoded blocks;
UPDATE *demotes* the covering block to the plain format (appending the
re-encoded payload and patching its directory entry — the old bytes
become garbage until :meth:`ColumnTable.optimize`); a later "morph"
step re-encodes demoted blocks once the operator mix is scan-heavy
again.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from typing import Iterator, NamedTuple, Optional, Sequence

from repro.databases import colcodec
from repro.databases.colcodec import (
    NULL_INT,
    NULL_LENGTH,
    NULL_REAL,
    PLAIN,
    ColumnVector,
    PlainVector,
)
from repro.databases.common import Database, DatabaseError
from repro.databases.sql_executor import evaluate
from repro.databases.sql_parser import (
    BinaryOp,
    Column,
    CreateTable,
    Delete,
    Expr,
    FuncCall,
    Insert,
    Literal,
    Select,
    Star,
    Statement,
    UnaryOp,
    Update,
    parse,
)
from repro.databases.vector_executor import matching_rows, run_select_vectorized
from repro.fs.vfs import FileSystem

_FIXED = struct.Struct("<q")  # INT cell
_REAL = struct.Struct("<d")  # REAL cell
_OFFSET = struct.Struct("<QQ")  # TEXT cell: (heap start, length)
_ZONE = struct.Struct("<QQddB")  # start row, row count, min, max, has-null
#: Block directory entry: start row, row count, byte offset, byte
#: length, encoding, flags.
_SEGMENT = struct.Struct("<QQQQBB")

#: Directory-entry flag: an in-place UPDATE forced this block to plain.
_SEG_DEMOTED = 1


class ColumnStoreError(DatabaseError):
    """Schema violation or unsupported operation."""


class _Segment(NamedTuple):
    """One block directory entry."""

    start: int
    count: int
    offset: int
    length: int
    encoding: int
    flags: int


class _ReadPlan(NamedTuple):
    """Row spans mapped onto one column's blocks (see ``plan_vectors``)."""

    spans: int
    segments: list[_Segment]
    parts: list[tuple[int, int, int, int, int]]
    requests: list[tuple[str, int, int]]


class _ColumnFile:
    """One column of one table: encoded blocks + block directory."""

    def __init__(
        self,
        fs: FileSystem,
        base: str,
        name: str,
        type_name: str,
        encode: bool = True,
    ) -> None:
        self.fs = fs
        self.name = name
        self.type_name = type_name
        self.encode = encode
        self.data_path = f"{base}/{name}.col"
        self.heap_path = f"{base}/{name}.heap"
        self.zmap_path = f"{base}/{name}.zmap"
        self.seg_path = f"{base}/{name}.seg"
        if not fs.exists(self.data_path):
            fs.write_file(self.data_path, b"")
        if not fs.exists(self.seg_path):
            fs.write_file(self.seg_path, b"")
        if type_name == "TEXT" and not fs.exists(self.heap_path):
            fs.write_file(self.heap_path, b"")
        if self.numeric and not fs.exists(self.zmap_path):
            fs.write_file(self.zmap_path, b"")

    @property
    def numeric(self) -> bool:
        return self.type_name in ("INT", "REAL")

    def paths(self) -> list[str]:
        """Every file this column owns."""
        paths = [self.data_path, self.seg_path]
        if self.type_name == "TEXT":
            paths.append(self.heap_path)
        if self.numeric:
            paths.append(self.zmap_path)
        return paths

    @property
    def cell_size(self) -> int:
        return _OFFSET.size if self.type_name == "TEXT" else 8

    # -- block directory ------------------------------------------------------
    def segments(self) -> list[_Segment]:
        """The block directory, checked: entries tile the rows from 0,
        no block holds more rows than an insert writes, and a plain
        block is exactly its cells."""
        raw = self.fs.read_file(self.seg_path)
        if len(raw) % _SEGMENT.size:
            raise ColumnStoreError(f"{self.seg_path}: truncated block directory")
        segments = [_Segment(*fields) for fields in _SEGMENT.iter_unpack(raw)]
        rows = 0
        for segment in segments:
            if (
                segment.start != rows
                or not 0 < segment.count <= ColumnTable.BLOCK_ROWS
                or (
                    segment.encoding == PLAIN
                    and segment.length != segment.count * self.cell_size
                )
            ):
                raise ColumnStoreError(f"{self.seg_path}: bad entry for row {rows}")
            rows += segment.count
        return segments

    def _patch_segment(self, index: int, segment: _Segment) -> None:
        self.fs._pwrite(
            self.seg_path, index * _SEGMENT.size, _SEGMENT.pack(*segment)
        )

    def _segment_covering(self, row: int) -> tuple[int, _Segment]:
        segments = self.segments()
        starts = [segment.start for segment in segments]
        index = bisect_right(starts, row) - 1
        if index < 0 or row >= segments[index].start + segments[index].count:
            raise ColumnStoreError(f"row {row} out of range")
        return index, segments[index]

    def row_count(self) -> int:
        """Logical rows (including rows marked deleted by the table)."""
        size = self.fs.stat(self.seg_path).size
        if size == 0:
            return 0
        entries, torn = divmod(size, _SEGMENT.size)
        if torn:
            raise ColumnStoreError(f"{self.seg_path}: truncated block directory")
        raw = self.fs._pread(self.seg_path, size - _SEGMENT.size, _SEGMENT.size)
        last = _Segment(*_SEGMENT.unpack(raw))
        if last.start + last.count > entries * ColumnTable.BLOCK_ROWS:
            raise ColumnStoreError(f"{self.seg_path}: bad entry for row {last.start}")
        return last.start + last.count

    # -- zone map (sparse min/max index, one entry per insert batch) -----------
    def _append_zone(self, start_row: int, values: Sequence[object]) -> None:
        if not self.numeric or not values:
            return
        numbers = [value for value in values if value is not None]
        has_null = len(numbers) < len(values)
        low = float(min(numbers)) if numbers else 0.0
        high = float(max(numbers)) if numbers else 0.0
        self.fs.append_file(
            self.zmap_path,
            _ZONE.pack(start_row, len(values), low, high, 1 if has_null else 0),
        )

    def zone_entries(self) -> list[tuple[int, int, float, float, bool]]:
        """(start row, count, min, max, has-null) per insert batch."""
        if not self.numeric:
            return []
        raw = self.fs.read_file(self.zmap_path)
        if len(raw) % _ZONE.size:
            raise ColumnStoreError(f"{self.zmap_path}: truncated zone map")
        return [
            (start, count, low, high, bool(flag))
            for start, count, low, high, flag in _ZONE.iter_unpack(raw)
        ]

    def _widen_zone(self, row: int, value: object) -> None:
        """Grow the covering zone entry after an in-place update.

        Zone entries are sorted by start row and contiguous, so the
        covering entry is found by binary search with positioned reads
        and patched with one positioned write — the rest of the
        ``.zmap`` file is never touched.
        """
        if not self.numeric:
            return
        total = self.fs.stat(self.zmap_path).size // _ZONE.size
        lo, hi = 0, total - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            raw = self.fs._pread(self.zmap_path, mid * _ZONE.size, _ZONE.size)
            start, count, low, high, flag = _ZONE.unpack(raw)
            if row < start:
                hi = mid - 1
            elif row >= start + count:
                lo = mid + 1
            else:
                if value is None:
                    flag = 1
                else:
                    low = min(low, float(value))  # type: ignore[arg-type]
                    high = max(high, float(value))  # type: ignore[arg-type]
                self.fs._pwrite(
                    self.zmap_path,
                    mid * _ZONE.size,
                    _ZONE.pack(start, count, low, high, flag),
                )
                return

    # -- encode / append ------------------------------------------------------
    def _validate_text(self, values: Sequence[object]) -> None:
        for value in values:
            if value is not None and not isinstance(value, str):
                raise ColumnStoreError(f"expected TEXT, got {value!r}")

    def _encode_payload(self, values: Sequence[object], encoding: int) -> bytes:
        """Block payload bytes; plain TEXT appends its strings to the heap."""
        if self.type_name == "TEXT":
            self._validate_text(values)
            if encoding == PLAIN:
                heap_end = self.fs.stat(self.heap_path).size
                heap = bytearray()
                offsets = bytearray()
                for value in values:
                    if value is None:
                        offsets += _OFFSET.pack(0, NULL_LENGTH)
                    else:
                        raw = value.encode("utf-8")  # type: ignore[union-attr]
                        offsets += _OFFSET.pack(heap_end + len(heap), len(raw))
                        heap += raw
                if heap:
                    self.fs.append_file(self.heap_path, bytes(heap))
                return bytes(offsets)
            return colcodec.encode_block("TEXT", encoding, values)  # type: ignore[arg-type]
        return colcodec.encode_block(self.type_name, encoding, values)  # type: ignore[arg-type]

    def _choose_encoding(self, values: Sequence[object]) -> int:
        if not self.encode:
            return PLAIN
        if self.type_name == "TEXT":
            self._validate_text(values)
        return colcodec.choose_encoding(self.type_name, values)  # type: ignore[arg-type]

    def append_values(self, values: Sequence[object]) -> None:
        values = list(values)
        if not values:
            return
        start = self.row_count()
        self._append_zone(start, values)
        encoding = self._choose_encoding(values)
        payload = self._encode_payload(values, encoding)
        block_offset = self.fs.stat(self.data_path).size
        self.fs.append_file(self.data_path, payload)
        self.fs.append_file(
            self.seg_path,
            _SEGMENT.pack(start, len(values), block_offset, len(payload), encoding, 0),
        )

    # -- read -------------------------------------------------------------------
    def read_range(self, start: int, count: int) -> list[object]:
        """Values of rows [start, start+count)."""
        return self.read_ranges([(start, count)])[0]

    def read_one(self, row: int) -> object:
        return self.read_range(row, 1)[0]

    def plan_vectors(self, spans: Sequence[tuple[int, int]]) -> _ReadPlan:
        """The plan step of :meth:`read_vectors`: map row spans onto blocks.

        Each part is ``(span index, segment index, lo row, hi row,
        request index)``; each request a ``(path, offset, size)`` read of
        the data file.  Plain blocks read only the covering cell window;
        encoded blocks read their whole payload (once, even if several
        spans touch the same block).
        """
        segments = self.segments()
        starts = [segment.start for segment in segments]
        parts: list[tuple[int, int, int, int, int]] = []
        requests: list[tuple[str, int, int]] = []
        payload_request: dict[int, int] = {}
        for span_index, (start, count) in enumerate(spans):
            if count <= 0:
                continue
            end = start + count
            index = max(bisect_right(starts, start) - 1, 0)
            while index < len(segments) and segments[index].start < end:
                segment = segments[index]
                lo = max(start, segment.start)
                hi = min(end, segment.start + segment.count)
                if lo < hi:
                    if segment.encoding == PLAIN:
                        requests.append(
                            (
                                self.data_path,
                                segment.offset + (lo - segment.start) * self.cell_size,
                                (hi - lo) * self.cell_size,
                            )
                        )
                        request = len(requests) - 1
                    else:
                        request = payload_request.get(index, -1)
                        if request < 0:
                            requests.append((self.data_path, segment.offset, segment.length))
                            request = len(requests) - 1
                            payload_request[index] = request
                    parts.append((span_index, index, lo, hi, request))
                index += 1
        return _ReadPlan(len(spans), segments, parts, requests)

    def read_ranges(self, spans: Sequence[tuple[int, int]]) -> list[list[object]]:
        """Values for several (start row, count) ranges."""
        return [vector.materialize() for vector in self.read_vectors(spans)]

    def read_vectors(self, spans: Sequence[tuple[int, int]]) -> list[ColumnVector]:
        """One :class:`ColumnVector` per (start, count) span: the block
        payloads of every span go through one ``preadv``."""
        plan = self.plan_vectors(spans)
        return self.decode_vectors(plan, self.fs._preadv(plan.requests) if plan.requests else [])

    def decode_vectors(self, plan: _ReadPlan, raws: Sequence[bytes]) -> list[ColumnVector]:
        """The decode step: ``raws`` answer the requests of
        :meth:`plan_vectors` (for TEXT columns the heap windows of all
        plain blocks go through a second ``preadv``) — so a pruned scan
        touching k surviving batches costs two vectored requests, not 2k
        positional reads.  A span that exactly covers one encoded block
        keeps its encoded form (RLE runs, dictionary codes); everything
        else — plain blocks, straddling spans — materialises into a
        plain vector.
        """
        span_count, segments, parts, requests = plan
        for (__, __, size), raw in zip(requests, raws):
            if len(raw) != size:
                raise ColumnStoreError(f"{self.data_path}: block payload past end of file")
        plain_raws = [raws[part[4]] for part in parts if segments[part[1]].encoding == PLAIN]
        if self.type_name == "TEXT":
            plain_values = iter(self._decode_plain_text(plain_raws))
        else:
            plain_values = (
                colcodec.decode_plain(self.type_name, raw) for raw in plain_raws
            )
        pieces: list[list[ColumnVector]] = [[] for __ in range(span_count)]
        decoded: dict[int, ColumnVector] = {}
        for span_index, seg_index, lo, hi, request in parts:
            segment = segments[seg_index]
            if segment.encoding == PLAIN:
                pieces[span_index].append(PlainVector(next(plain_values)))
                continue
            vector = decoded.get(seg_index)
            if vector is None:
                vector = decoded[seg_index] = colcodec.decode_vector(
                    self.type_name, segment.encoding, raws[request], segment.count
                )
            if hi - lo < segment.count:
                vector = PlainVector(
                    vector.materialize()[lo - segment.start : hi - segment.start]
                )
            pieces[span_index].append(vector)
        return [
            found[0]
            if len(found) == 1
            else PlainVector([value for piece in found for value in piece.materialize()])
            for found in pieces
        ]

    def _decode_plain_text(self, raws: Sequence[bytes]) -> list[list[object]]:
        """Strings of several plain TEXT cell windows: every window's
        heap extent is fetched in one vectored read."""
        entry_lists = [list(_OFFSET.iter_unpack(raw)) for raw in raws]
        extents: list[tuple[str, int, int]] = []
        for entries in entry_lists:
            live = [(s, n) for s, n in entries if n != NULL_LENGTH]
            low = min((s for s, __ in live), default=0)
            high = max((s + n for s, n in live), default=0)
            extents.append((self.heap_path, low, high - low))
        heaps = self.fs._preadv(extents) if extents else []
        try:
            return [
                [
                    None
                    if length == NULL_LENGTH
                    else heap[cell_start - low : cell_start - low + length].decode("utf-8")
                    for cell_start, length in entries
                ]
                for entries, (__, low, __), heap in zip(entry_lists, extents, heaps)
            ]
        except UnicodeDecodeError as exc:
            raise ColumnStoreError(f"{self.heap_path}: {exc}") from None

    # -- update / morph ---------------------------------------------------------
    def update_cell(self, row: int, value: object) -> None:
        self._widen_zone(row, value)
        index, segment = self._segment_covering(row)
        if segment.encoding != PLAIN:
            # Processing-friendly formats are immutable: decode the
            # block, apply the change, and demote it to plain (append
            # the new payload, patch the directory entry in place).
            values = self.read_range(segment.start, segment.count)
            values[row - segment.start] = value
            self._rewrite_block(index, segment, values, PLAIN, _SEG_DEMOTED)
            return
        cell_offset = segment.offset + (row - segment.start) * self.cell_size
        if self.type_name == "INT":
            cell = _FIXED.pack(NULL_INT if value is None else int(value))  # type: ignore[arg-type]
            self.fs._pwrite(self.data_path, cell_offset, cell)
            return
        if self.type_name == "REAL":
            cell = _REAL.pack(NULL_REAL if value is None else float(value))  # type: ignore[arg-type]
            self.fs._pwrite(self.data_path, cell_offset, cell)
            return
        # TEXT mutation: append the new string to the heap and point the
        # (start, length) entry at it; the old bytes become garbage
        # until a rewrite, like a real columnar mutation.
        if value is None:
            self.fs._pwrite(self.data_path, cell_offset, _OFFSET.pack(0, NULL_LENGTH))
            return
        if not isinstance(value, str):
            raise ColumnStoreError(f"expected TEXT, got {value!r}")
        raw = value.encode("utf-8")
        heap_end = self.fs.stat(self.heap_path).size
        self.fs.append_file(self.heap_path, raw)
        self.fs._pwrite(self.data_path, cell_offset, _OFFSET.pack(heap_end, len(raw)))

    def _rewrite_block(
        self,
        index: int,
        segment: _Segment,
        values: Sequence[object],
        encoding: int,
        flags: int,
    ) -> None:
        """Append a re-encoded payload and repoint the directory entry."""
        payload = self._encode_payload(values, encoding)
        block_offset = self.fs.stat(self.data_path).size
        self.fs.append_file(self.data_path, payload)
        self._patch_segment(
            index,
            _Segment(
                segment.start, segment.count, block_offset, len(payload), encoding, flags
            ),
        )

    def morph_block(self, index: int, encoding: Optional[int] = None) -> int:
        """Re-encode block ``index`` (picker choice unless forced).

        Returns the block's encoding afterwards.  A no-op when the
        block already has the target encoding and no demotion flag.
        """
        segment = self.segments()[index]
        values = self.read_range(segment.start, segment.count)
        if encoding is None:
            encoding = self._choose_encoding(values)
        if encoding == segment.encoding:
            if segment.flags:
                self._patch_segment(index, segment._replace(flags=0))
            return encoding
        self._rewrite_block(index, segment, values, encoding, 0)
        return encoding

    def morph(self, encoding: Optional[int] = None, demoted_only: bool = False) -> int:
        """Re-encode blocks; returns how many changed format."""
        changed = 0
        for index, segment in enumerate(self.segments()):
            if demoted_only and not segment.flags & _SEG_DEMOTED:
                continue
            if self.morph_block(index, encoding) != segment.encoding:
                changed += 1
        return changed

    def encodings(self) -> list[int]:
        """Per-block encoding ids, in row order."""
        return [segment.encoding for segment in self.segments()]


class ColumnTable:
    """One columnar table: schema + per-column files + deletion mask.

    Deletes are *lightweight* (ClickHouse-style): a sidecar mask marks
    rows dead and scans skip them; :meth:`optimize` rewrites the column
    files without the dead rows and rebuilds the zone maps (re-running
    the encoding picker — compaction doubles as a morph pass).
    """

    #: Insert batches fetched per vectored column read during a scan.
    SCAN_PREFETCH_BATCHES = 16
    #: Rows per block: large insert batches split so a point UPDATE
    #: never decodes (and a morph never re-encodes) more than this.
    BLOCK_ROWS = 1024
    #: Vectorized scans observed before demoted blocks are re-encoded.
    MORPH_AFTER_SCANS = 3

    def __init__(
        self,
        fs: FileSystem,
        base: str,
        name: str,
        columns: list[tuple[str, str]],
        encodings: bool = True,
    ) -> None:
        self.fs = fs
        self.base = base
        self.name = name
        self.columns = columns
        self.encodings = encodings
        self.column_names = [column for column, __ in columns]
        self._files = {
            column: _ColumnFile(fs, base, column, type_name, encode=encodings)
            for column, type_name in columns
        }
        self._mask_path = f"{base}/_deleted.bm"
        #: Vectorized scans since the last UPDATE, and the columns seen
        #: carrying update-demoted blocks — the morph trigger state.
        self._scans_since_update = 0
        self._demoted_columns: set[str] = set()
        #: Set when a failed insert could not be rolled back: the column
        #: files may disagree, so :meth:`MiniColumn.table` refuses it.
        self.torn = False
        if not fs.exists(self._mask_path):
            fs.write_file(self._mask_path, b"")

    def row_count(self) -> int:
        """Physical rows, including rows marked deleted."""
        first = self.column_names[0]
        return self._files[first].row_count()

    # -- deletion mask -----------------------------------------------------
    def _mask(self) -> bytes:
        mask = self.fs.read_file(self._mask_path)
        total = self.row_count()
        if len(mask) < total:
            mask = mask + b"\x00" * (total - len(mask))
        return mask[:total]

    def deleted_count(self) -> int:
        return self._mask().count(1)

    def mark_deleted(self, rows: Sequence[int]) -> int:
        """Mark rows dead; returns how many were newly marked."""
        if not rows:
            return 0
        mask = bytearray(self._mask())
        marked = 0
        for row in rows:
            if not 0 <= row < len(mask):
                raise ColumnStoreError(f"row {row} out of range")
            if not mask[row]:
                mask[row] = 1
                marked += 1
        self.fs.write_file(self._mask_path, bytes(mask))
        return marked

    def optimize(self) -> int:
        """Rewrite the table without dead rows; returns rows removed."""
        mask = self._mask()
        removed = mask.count(1)
        if removed == 0:
            return 0
        live_rows = [
            row
            for __, row in self.scan_with_index(columns=self.column_names)
        ]
        for column, type_name in self.columns:
            old = self._files[column]
            self.fs.write_file(old.data_path, b"")
            self.fs.write_file(old.seg_path, b"")
            if type_name == "TEXT":
                self.fs.write_file(old.heap_path, b"")
            if old.numeric:
                self.fs.write_file(old.zmap_path, b"")
            self._files[column] = _ColumnFile(
                self.fs, self.base, column, type_name, encode=self.encodings
            )
        self.fs.write_file(self._mask_path, b"")
        self._demoted_columns.clear()
        if live_rows:
            self.insert_rows(live_rows)
        return removed

    def insert_rows(self, rows: Sequence[dict[str, object]]) -> None:
        """Append a batch of rows column by column, one block (and one
        zone-map entry) per :data:`BLOCK_ROWS` slice of the batch.

        All or nothing: every column file's size is recorded first and
        a failed write truncates them all back before the error
        propagates.  A rollback that fails itself leaves the table
        :attr:`torn`, and it refuses every further statement.
        """
        sizes = {
            path: self.fs.stat(path).size
            for column in self._files.values()
            for path in column.paths()
        }
        try:
            for position in range(0, len(rows), self.BLOCK_ROWS):
                chunk = rows[position : position + self.BLOCK_ROWS]
                for column in self.column_names:
                    self._files[column].append_values([row.get(column) for row in chunk])
        except BaseException:
            try:
                for path, size in sizes.items():
                    self.fs.truncate(path, size)
            except Exception as exc:
                self.torn = True
                raise ColumnStoreError(
                    f"table {self.name!r}: insert rollback failed, table is torn"
                ) from exc
            raise

    # -- morphing ----------------------------------------------------------
    def morph(self, column: Optional[str] = None, encoding: Optional[int] = None) -> int:
        """Re-encode blocks of one column (or all); returns blocks changed."""
        names = [column] if column is not None else self.column_names
        changed = 0
        for name in names:
            if name not in self._files:
                raise ColumnStoreError(f"unknown column {name!r}")
            changed += self._files[name].morph(encoding)
        return changed

    def note_update(self, columns: Sequence[str]) -> None:
        """Record an UPDATE for the morph heuristic."""
        self._scans_since_update = 0
        for name in columns:
            self._demoted_columns.add(name)

    def maybe_morph(self) -> int:
        """Re-encode update-demoted blocks once the mix is scan-heavy.

        Called after each vectorized scan: when :data:`MORPH_AFTER_SCANS`
        scans have run without an intervening UPDATE, every column that
        was demoted re-runs the picker on its demoted blocks.  Returns
        blocks re-encoded.
        """
        self._scans_since_update += 1
        if not self._demoted_columns:
            return 0
        if self._scans_since_update < self.MORPH_AFTER_SCANS:
            return 0
        changed = 0
        for name in sorted(self._demoted_columns):
            changed += self._files[name].morph(demoted_only=True)
        self._demoted_columns.clear()
        return changed

    # -- scans -------------------------------------------------------------
    def scan(
        self,
        columns: Optional[Sequence[str]] = None,
        ranges: Optional[dict[str, tuple[Optional[float], Optional[float]]]] = None,
    ) -> Iterator[dict[str, object]]:
        """Yield row dicts containing only the requested columns.

        ``ranges`` maps column names to (low, high) bounds extracted
        from an AND-conjunctive WHERE clause; insert batches whose zone
        maps prove no row can satisfy a bound are skipped without
        reading any column data (the sparse-index behaviour of the
        column store the paper evaluates).
        """
        for __, row in self.scan_with_index(columns, ranges):
            yield row

    def scan_with_index(
        self,
        columns: Optional[Sequence[str]] = None,
        ranges: Optional[dict[str, tuple[Optional[float], Optional[float]]]] = None,
    ) -> Iterator[tuple[int, dict[str, object]]]:
        """Like :meth:`scan` but yields (physical row number, row): the
        row view of :meth:`scan_vector_blocks` — every block
        materialised, lightweight-deleted rows dropped."""
        names = self._check_columns(columns)
        for start, __, mask, vectors in self.scan_vector_blocks(names, ranges):
            values = [vectors[name].materialize() for name in names]
            for i, dead in enumerate(mask):
                if not dead:
                    yield start + i, {
                        name: column[i] for name, column in zip(names, values)
                    }

    def _check_columns(self, columns: Optional[Sequence[str]]) -> list[str]:
        names = list(columns) if columns is not None else self.column_names
        for name in names:
            if name not in self._files:
                raise ColumnStoreError(f"unknown column {name!r}")
        return names

    def _scan_spans(
        self,
        names: Sequence[str],
        ranges: Optional[dict[str, tuple[Optional[float], Optional[float]]]],
    ) -> tuple[list[tuple[int, int]], int]:
        """Surviving (start, count) block spans for a scan, and how many
        batches the table holds."""
        pruned = self._prunable_batches(ranges)
        if pruned is not None:
            surviving, total = pruned
            return [(start, count) for start, count in surviving if count > 0], total
        spans = [
            (segment.start, segment.count)
            for segment in self._files[names[0]].segments()
        ]
        return spans, len(spans)

    def scan_vector_blocks(
        self,
        columns: Optional[Sequence[str]] = None,
        ranges: Optional[dict[str, tuple[Optional[float], Optional[float]]]] = None,
    ) -> Iterator[tuple[int, int, bytes, dict[str, ColumnVector]]]:
        """The scan: yield (start, count, deletion-mask slice, column
        vectors) per surviving block, keeping encoded forms.

        This is the compressed-domain path: the vectors may still be
        RLE runs or dictionary codes, and the caller (the vectorized
        executor) evaluates predicates and aggregates on them directly.
        Surviving blocks are prefetched in groups: every column of a
        group is planned first, then all their block payloads go through
        one vectored read instead of one positional read per (block,
        column) pair — the group size bounds memory while a long scan
        still pays one device transaction per group.

        The scan is one ``column.scan`` span on the file system's tracer:
        the table's batches, those the zone maps pruned, the prefetch
        groups and the data read requests issued so far.
        """
        names = self._check_columns(columns)
        mask = self._mask()
        batches, total = self._scan_spans(names, ranges)
        group_size = self.SCAN_PREFETCH_BATCHES
        with self.fs.obs.tracer.span(
            "column.scan",
            table=self.name,
            batches=total,
            pruned=total - len(batches),
            groups=-(-len(batches) // group_size),
            requests=0,
        ) as span:
            issued = 0
            for group_start in range(0, len(batches), group_size):
                group = batches[group_start : group_start + group_size]
                plans = {name: self._files[name].plan_vectors(group) for name in names}
                requests = [request for plan in plans.values() for request in plan.requests]
                raws = self.fs._preadv(requests) if requests else []
                issued += len(requests)
                span.set(requests=issued)
                vectors = {}
                for name, plan in plans.items():
                    taken = len(plan.requests)
                    vectors[name] = self._files[name].decode_vectors(plan, raws[:taken])
                    raws = raws[taken:]
                for position, (start, count) in enumerate(group):
                    block = {name: vectors[name][position] for name in names}
                    if any(len(vector) != count for vector in block.values()):
                        raise ColumnStoreError(
                            f"table {self.name!r}: columns disagree on block {start}+{count}"
                        )
                    yield start, count, mask[start : start + count], block

    def _prunable_batches(
        self, ranges: Optional[dict[str, tuple[Optional[float], Optional[float]]]]
    ) -> Optional[tuple[list[tuple[int, int]], int]]:
        """Surviving (start, count) batches under the zone maps and the
        batch count, or None when pruning does not apply (no usable
        numeric constraint)."""
        if not ranges:
            return None
        constrained = [
            name
            for name in ranges
            if name in self._files and self._files[name].numeric
        ]
        if not constrained:
            return None
        entries = {name: self._files[name].zone_entries() for name in constrained}
        batch_count = len(entries[constrained[0]])
        if batch_count == 0 or any(
            len(column_entries) != batch_count for column_entries in entries.values()
        ):
            return None  # inconsistent maps: fall back to a full scan
        surviving: list[tuple[int, int]] = []
        for index in range(batch_count):
            keep = True
            for name in constrained:
                start, count, low, high, __ = entries[name][index]
                bound_low, bound_high = ranges[name]
                if bound_low is not None and high < bound_low:
                    keep = False
                    break
                if bound_high is not None and low > bound_high:
                    keep = False
                    break
            if keep:
                start, count, __, __, __ = entries[constrained[0]][index]
                surviving.append((start, count))
        return surviving, batch_count

    def read_row(self, row: int, columns: Optional[Sequence[str]] = None) -> dict[str, object]:
        names = list(columns) if columns is not None else self.column_names
        return {name: self._files[name].read_one(row) for name in names}

    def update_row(self, row: int, changes: dict[str, object]) -> None:
        for column, value in changes.items():
            if column not in self._files:
                raise ColumnStoreError(f"unknown column {column!r}")
            self._files[column].update_cell(row, value)
        self.note_update(list(changes))

    def column_encodings(self) -> dict[str, list[int]]:
        """Per-column block encodings (observability / tests)."""
        return {name: self._files[name].encodings() for name in self.column_names}


class MiniColumn(Database):
    """SQL front end over columnar tables."""

    name = "minicolumn"

    def __init__(
        self,
        fs: FileSystem,
        directory: str = "/columndb",
        encodings: bool = True,
        vectorized: bool = True,
    ) -> None:
        super().__init__(fs)
        if not vectorized:
            # The keyword survives only because the frozen
            # benchmarks/e2e/workloads/scan_agg.py passes vectorized=True.
            raise ColumnStoreError("MiniColumn has no row executor: vectorized=False")
        self.directory = directory.rstrip("/")
        self.encodings = encodings
        self._catalog_path = f"{self.directory}/catalog.json"
        self._tables: dict[str, ColumnTable] = {}
        if fs.exists(self._catalog_path):
            payload = json.loads(fs.read_file(self._catalog_path).decode("utf-8"))
            for entry in payload["tables"]:
                self._tables[entry["name"]] = ColumnTable(
                    fs,
                    f"{self.directory}/{entry['name']}",
                    entry["name"],
                    [tuple(column) for column in entry["columns"]],
                    encodings=encodings,
                )

    def _save_catalog(self) -> None:
        payload = {
            "tables": [
                {"name": table.name, "columns": table.columns}
                for table in self._tables.values()
            ]
        }
        self.fs.write_file(self._catalog_path, json.dumps(payload).encode("utf-8"))

    def table(self, name: str) -> ColumnTable:
        try:
            table = self._tables[name]
        except KeyError:
            raise ColumnStoreError(f"no such table {name!r}") from None
        if table.torn:
            raise ColumnStoreError(f"table {name!r} is torn by a failed insert rollback")
        return table

    # -- SQL --------------------------------------------------------------------
    def execute(self, sql: str) -> list[dict[str, object]]:
        return self.execute_statement(parse(sql))

    def execute_statement(self, statement: Statement) -> list[dict[str, object]]:
        if isinstance(statement, CreateTable):
            if statement.table in self._tables:
                raise ColumnStoreError(f"table {statement.table!r} already exists")
            self._tables[statement.table] = ColumnTable(
                self.fs,
                f"{self.directory}/{statement.table}",
                statement.table,
                [(column.name, column.type_name) for column in statement.columns],
                encodings=self.encodings,
            )
            self._save_catalog()
            return []
        if isinstance(statement, Insert):
            table = self.table(statement.table)
            columns = list(statement.columns) or table.column_names
            rows = []
            for values in statement.rows:
                if len(values) != len(columns):
                    raise ColumnStoreError("value count does not match column count")
                rows.append({column: literal.value for column, literal in zip(columns, values)})
            table.insert_rows(rows)
            return []
        if isinstance(statement, Select):
            return self._execute_select(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        raise ColumnStoreError(f"unsupported statement {statement!r}")

    def _execute_delete(self, statement: Delete) -> list:
        """Lightweight delete: mark matching rows in the deletion mask."""
        table = self.table(statement.table)
        needed = sorted(_columns_of(statement.where)) or table.column_names[:1]
        table.mark_deleted(
            [row_no for row_no, __ in matching_rows(table, needed, statement.where)]
        )
        return []

    def _execute_select(self, statement: Select) -> list[dict[str, object]]:
        if statement.join is not None:
            raise ColumnStoreError("MiniColumn does not support JOIN")
        table = self.table(statement.table)
        answer = self._try_metadata_answer(statement, table)
        if answer is None:
            answer = run_select_vectorized(statement, table)
            table.maybe_morph()
        return answer

    def _try_metadata_answer(
        self, statement: Select, table: ColumnTable
    ) -> Optional[list[dict[str, object]]]:
        """Answer pure min/max/count(*) queries from zone maps alone.

        Applies only with no WHERE, no GROUP BY, and no deletion mask —
        then ``count(*)`` is the physical row count and ``min``/``max``
        of a numeric column fold over its zone entries, so the query
        reads metadata instead of column data.  Batches containing
        NULLs are handled (aggregates skip NULLs) unless a batch is
        NULL-only, in which case its placeholder bounds are unusable
        and we fall back to a scan.
        """
        if statement.where is not None or statement.group_by:
            return None
        if table.deleted_count() > 0:
            return None
        projected: dict[str, object] = {}
        for index, item in enumerate(statement.items):
            expr = item.expr
            if not isinstance(expr, FuncCall):
                return None
            if expr.name == "count" and isinstance(expr.argument, Star):
                value: object = table.row_count()
            elif expr.name in ("min", "max") and isinstance(expr.argument, Column):
                column = table._files.get(expr.argument.name)
                if column is None or not column.numeric:
                    return None
                entries = column.zone_entries()
                if not entries:
                    value = None
                else:
                    usable = []
                    for __, count, low, high, has_null in entries:
                        if has_null:
                            return None  # NULL-only batches poison the bounds
                        usable.append(low if expr.name == "min" else high)
                    value = min(usable) if expr.name == "min" else max(usable)
                    if column.type_name == "INT" and value is not None:
                        value = int(value)
            else:
                return None
            # Same output naming as the executor's projection.
            projected[item.alias or f"column{index}"] = value
        return [projected]

    def _execute_update(self, statement: Update) -> list:
        table = self.table(statement.table)
        needed: set[str] = _columns_of(statement.where)
        for __, expr in statement.assignments:
            needed |= _columns_of(expr)
        scan_columns = sorted(needed) or table.column_names[:1]
        # Decide every change before the first write moves a block.
        updates = [
            (row_no, {column: evaluate(expr, row) for column, expr in statement.assignments})
            for row_no, row in matching_rows(table, scan_columns, statement.where)
        ]
        for row_no, changes in updates:
            table.update_row(row_no, changes)
        return []

    # -- benchmark interface -----------------------------------------------------------
    BENCH_TABLE = "events"

    def bench_setup(self) -> None:
        if self.BENCH_TABLE not in self._tables:
            self.execute(
                f"CREATE TABLE {self.BENCH_TABLE} "
                "(id INT PRIMARY KEY, idx INT, cnt INT, dt TEXT, body TEXT)"
            )

    def bench_read(self, key: str) -> object:
        rows = self.execute(
            f"SELECT body FROM {self.BENCH_TABLE} WHERE id = {int(key)}"
        )
        return rows[0]["body"] if rows else None

    def bench_write(self, key: str, value: str) -> None:
        escaped = value.replace("'", "''")
        existing = self.execute(
            f"SELECT count(*) c FROM {self.BENCH_TABLE} WHERE id = {int(key)}"
        )
        if existing and existing[0]["c"]:
            self.execute(
                f"UPDATE {self.BENCH_TABLE} SET body = '{escaped}' WHERE id = {int(key)}"
            )
        else:
            key_int = int(key)
            self.execute(
                f"INSERT INTO {self.BENCH_TABLE} VALUES "
                f"({key_int}, {key_int % 10}, {key_int % 97}, 'd{key_int % 7}', '{escaped}')"
            )


def _range_constraints(
    where: Optional[Expr],
) -> Optional[dict[str, tuple[Optional[float], Optional[float]]]]:
    """Per-column (low, high) bounds from an AND-conjunctive WHERE.

    Only comparisons of the form ``column op numeric-literal`` under
    top-level ANDs contribute bounds; every other conjunct (OR trees,
    NOTs, text comparisons) is simply ignored, which is sound — extra
    conjuncts can only shrink the matching set, and surviving batches
    are still filtered exactly by the executor.
    """
    if where is None:
        return None
    bounds: dict[str, tuple[Optional[float], Optional[float]]] = {}

    def visit(expr: Expr) -> None:
        if isinstance(expr, BinaryOp) and expr.op == "AND":
            visit(expr.left)
            visit(expr.right)
            return
        if (
            isinstance(expr, BinaryOp)
            and isinstance(expr.left, Column)
            and isinstance(expr.right, Literal)
            and isinstance(expr.right.value, (int, float))
            and expr.op in ("=", "<", "<=", ">", ">=")
        ):
            name = expr.left.name
            value = float(expr.right.value)
            low, high = bounds.get(name, (None, None))
            if expr.op in (">", ">=", "="):
                low = value if low is None else max(low, value)
            if expr.op in ("<", "<=", "="):
                high = value if high is None else min(high, value)
            bounds[name] = (low, high)

    visit(where)
    return bounds or None


def _columns_of(expr: Optional[Expr]) -> set[str]:
    """Column names referenced anywhere in an expression tree."""
    if expr is None:
        return set()
    if isinstance(expr, Column):
        return {expr.name}
    if isinstance(expr, BinaryOp):
        return _columns_of(expr.left) | _columns_of(expr.right)
    if isinstance(expr, UnaryOp):
        return _columns_of(expr.operand)
    if isinstance(expr, FuncCall):
        if isinstance(expr.argument, Star):
            return set()
        return _columns_of(expr.argument)
    return set()


def _scanned_columns(
    select: Select, column_names: Sequence[str]
) -> tuple[list[str], set[str]]:
    """Projection pruning: ``(scanned, required)``.

    ``scanned`` is the table columns the query touches, in table order —
    all of them for ``*``, the cheapest (first) one when it touches none
    (``SELECT count(*)``).  ``required`` columns (projection, WHERE,
    GROUP BY) must exist in the table; ORDER BY references may instead
    be projection aliases (``ORDER BY avg_cnt``), which the shared
    ORDER BY code resolves against the output rows."""
    required = _columns_of(select.where)
    star = False
    for item in select.items:
        if isinstance(item.expr, Star):
            star = True
        else:
            required |= _columns_of(item.expr)
    required.update(column.name for column in select.group_by)
    if star:
        return list(column_names), required
    referenced = set(required)
    for order in select.order_by:
        referenced |= _columns_of(order.expr)
    scanned = [name for name in column_names if name in referenced]
    return scanned or list(column_names[:1]), required
