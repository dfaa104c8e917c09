"""MiniLevelDB: an LSM-tree key-value store (the LevelDB stand-in).

The pieces that matter for the evaluation are all here:

* a write-ahead log replayed on open (crash safety);
* an in-memory memtable flushed to level-0 SSTables;
* leveled compaction — L0 tables may overlap, deeper levels are
  sorted runs; when L0 fills up, everything is merged into L1 and
  tombstones are dropped at the bottom;
* optional per-block Snappy-style compression of SSTables, the knob
  toggled in the Section 6.5 "comparison with LSM method" experiment —
  that compression is orthogonal to CompressDB underneath, and the two
  can stack.

All persistence goes through the VFS, so the store runs unchanged on
the baseline file system or CompressFS.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterator, Optional

from repro.compression.lz import Codec, IdentityCodec
from repro.databases.common import (
    CorruptRecord,
    Database,
    decode_kv,
    encode_kv,
    frame_record,
    read_frames,
)
from repro.databases.sstable import SSTableReader, SSTableWriter
from repro.fs.vfs import FileSystem

#: In-memory tombstone marker inside the memtable.
_DELETED = object()


class MiniLevelDB(Database):
    """Get/Put/Delete/Scan over an LSM tree."""

    name = "minileveldb"

    def __init__(
        self,
        fs: FileSystem,
        directory: str = "/leveldb",
        codec: Optional[Codec] = None,
        memtable_limit: int = 64 * 1024,
        l0_limit: int = 4,
        block_target: int = 4096,
        align_records: object = "auto",
    ) -> None:
        super().__init__(fs)
        self.directory = directory.rstrip("/")
        self.codec = codec if codec is not None else IdentityCodec()
        self.memtable_limit = memtable_limit
        self.l0_limit = l0_limit
        self.block_target = block_target
        # Record alignment makes duplicate values dedup-friendly on a
        # CompressDB mount; it only applies without block compression.
        if align_records == "auto":
            self.align_records: Optional[int] = (
                fs.block_size if isinstance(self.codec, IdentityCodec) else None
            )
        else:
            self.align_records = align_records  # type: ignore[assignment]
        self._memtable: dict[bytes, object] = {}
        self._memtable_bytes = 0
        self._levels: list[list[str]] = [[], []]  # L0 (newest first), L1
        self._readers: dict[str, SSTableReader] = {}
        self._next_table = 0
        self._wal_path = f"{self.directory}/wal.log"
        self._manifest_path = f"{self.directory}/MANIFEST"
        self.compactions = 0
        if fs.exists(self._manifest_path):
            self._recover()
        else:
            fs.write_file(self._wal_path, b"")
            self._save_manifest(self._levels)

    # -- recovery / manifest ------------------------------------------------
    def _recover(self) -> None:
        raw = self.fs.read_file(self._manifest_path)
        try:
            manifest = json.loads(raw.decode("utf-8"))
            levels = [list(level) for level in manifest["levels"]]
            next_table = manifest["next_table"]
            if len(levels) != 2 or not isinstance(next_table, int) or not all(
                isinstance(path, str) for level in levels for path in level
            ):
                raise ValueError("unexpected shape")
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptRecord(f"{self._manifest_path}: malformed: {exc}") from exc
        self._levels = levels
        self._next_table = next_table
        if self.fs.exists(self._wal_path):
            for frame in read_frames(self.fs.read_file(self._wal_path)):
                flag = frame[0]
                key, value, __ = decode_kv(frame, 1)
                self._memtable_put(key, _DELETED if flag == 1 else value)
        else:
            self.fs.write_file(self._wal_path, b"")

    def _save_manifest(self, levels: list[list[str]]) -> None:
        """Publish ``levels`` as the table layout, then adopt it.

        The manifest is written aside and renamed over the old one, so
        a reopen finds the old layout or the new one, never a torn mix.
        Callers act on the new layout (empty the WAL, unlink compacted
        tables) only after this returns; if it raises, nothing changed.
        """
        payload = {"levels": levels, "next_table": self._next_table}
        staged = self._manifest_path + ".tmp"
        self.fs.write_file(staged, json.dumps(payload).encode("utf-8"))
        self.fs.rename(staged, self._manifest_path)
        self._levels = levels

    def _reader(self, path: str) -> SSTableReader:
        if path not in self._readers:
            self._readers[path] = SSTableReader(self.fs, path, codec=self.codec)
        return self._readers[path]

    # -- write path -----------------------------------------------------------
    def _wal_append(self, flag: int, key: bytes, value: bytes) -> None:
        frame = frame_record(bytes([flag]) + encode_kv(key, value))
        self.fs.append_file(self._wal_path, frame)

    def _memtable_put(self, key: bytes, value: object) -> None:
        old = self._memtable.get(key)
        if old not in (None, _DELETED):
            self._memtable_bytes -= len(old)  # type: ignore[arg-type]
        elif old is None and key not in self._memtable:
            self._memtable_bytes += len(key)
        self._memtable[key] = value
        if value is not _DELETED:
            self._memtable_bytes += len(value)  # type: ignore[arg-type]

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one key."""
        self._wal_append(0, key, value)
        self._memtable_put(key, value)
        if self._memtable_bytes >= self.memtable_limit:
            self.flush_memtable()

    def delete(self, key: bytes) -> None:
        """Delete a key (writes a tombstone)."""
        self._wal_append(1, key, b"")
        self._memtable_put(key, _DELETED)
        if self._memtable_bytes >= self.memtable_limit:
            self.flush_memtable()

    def flush_memtable(self) -> Optional[str]:
        """Write the memtable as a new L0 SSTable and clear the WAL."""
        if not self._memtable:
            return None
        path = f"{self.directory}/sst_{self._next_table:06d}.sst"
        self._next_table += 1
        writer = SSTableWriter(
            self.fs,
            path,
            codec=self.codec,
            block_target=self.block_target,
            align_records=self.align_records,
        )
        for key in sorted(self._memtable):
            value = self._memtable[key]
            writer.add(key, None if value is _DELETED else value)  # type: ignore[arg-type]
        writer.finish()
        self._save_manifest([[path] + self._levels[0], self._levels[1]])  # newest first
        self._memtable.clear()
        self._memtable_bytes = 0
        self.fs.write_file(self._wal_path, b"")
        if len(self._levels[0]) >= self.l0_limit:
            self.compact()
        return path

    # -- compaction ---------------------------------------------------------------
    def compact(self) -> None:
        """Merge all of L0 with L1 into a fresh sorted L1 run."""
        self.compactions += 1
        sources = list(self._levels[0]) + list(self._levels[1])
        if not sources:
            return
        merged = self._merge_tables(sources, drop_tombstones=True)
        new_tables: list[str] = []
        writer: Optional[SSTableWriter] = None
        written = 0
        target_size = self.block_target * 16
        for key, value, extent in merged:
            if writer is None:
                path = f"{self.directory}/sst_{self._next_table:06d}.sst"
                self._next_table += 1
                writer = SSTableWriter(
                    self.fs,
                    path,
                    codec=self.codec,
                    block_target=self.block_target,
                    align_records=self.align_records,
                )
                new_tables.append(path)
                written = 0
            writer.add(key, value, extent)
            written += len(key) + (len(value) if value is not None else 0)
            if written >= target_size:
                writer.finish()
                writer = None
        if writer is not None:
            writer.finish()
        self._save_manifest([[], new_tables])
        for path in sources:
            self._readers.pop(path, None)
            self.fs.unlink(path)

    def _merge_tables(
        self, paths: list[str], drop_tombstones: bool
    ) -> Iterator[tuple[bytes, Optional[bytes], Optional[tuple]]]:
        """K-way merge; earlier paths shadow later ones on key ties.  Each
        record comes with its shareable ``(path, offset, length)`` or None."""
        def tagged(path: str, priority: int):
            for key, value, extent in self._reader(path).iterate_extents(self.align_records):
                yield key, priority, value, extent and (path, *extent)

        merged = heapq.merge(
            *(tagged(path, priority) for priority, path in enumerate(paths))
        )
        last_key: Optional[bytes] = None
        for key, __, value, extent in merged:
            if key == last_key:
                continue  # an older version of a key we already emitted
            last_key = key
            if value is None and drop_tombstones:
                continue
            yield key, value, extent

    # -- read path --------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        """Look up one key: memtable, then L0 newest-first, then L1."""
        value = self._memtable.get(key)
        if value is _DELETED:
            return None
        if value is not None:
            return value  # type: ignore[return-value]
        for level in self._levels:
            for path in level:
                found, stored = self._reader(path).get(key)
                if found:
                    return stored
        return None

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Live entries in key order within [start, end)."""
        sources: list[Iterator[tuple[bytes, int, Optional[bytes]]]] = []
        mem_items = sorted(
            (key, value)
            for key, value in self._memtable.items()
            if (start is None or key >= start) and (end is None or key < end)
        )
        sources.append(
            (key, 0, None if value is _DELETED else value)  # type: ignore[misc]
            for key, value in mem_items
        )
        def tagged(path: str, priority: int):
            for key, value in self._reader(path).iterate(start, end):
                yield key, priority, value

        priority = 1
        for level in self._levels:
            for path in level:
                sources.append(tagged(path, priority))
                priority += 1
        last_key: Optional[bytes] = None
        for key, __, value in heapq.merge(*sources):
            if key == last_key:
                continue
            last_key = key
            if value is None:
                continue
            yield key, value

    # -- maintenance / stats --------------------------------------------------------------
    def close(self) -> None:
        self.flush_memtable()

    def table_count(self) -> int:
        return sum(len(level) for level in self._levels)

    def storage_bytes(self) -> int:
        total = 0
        for level in self._levels:
            for path in level:
                total += self.fs.stat(path).size
        return total

    # -- benchmark interface ------------------------------------------------------------------
    def bench_read(self, key: str) -> object:
        return self.get(key.encode("utf-8"))

    def bench_write(self, key: str, value: str) -> None:
        self.put(key.encode("utf-8"), value.encode("utf-8"))
