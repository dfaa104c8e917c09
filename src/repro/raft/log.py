"""The persistent Raft log: a snapshot plus a packed, CRC-chained record stream.

Raft needs two durable structures per node (§5.1 of the Raft paper):

* the **hard state** — ``(current_term, voted_for)`` — persisted
  *before* answering any RPC, so a restarted node can never vote twice
  in one term;
* the **log** — ``(term, command)`` entries — whose committed prefix
  must survive any crash.

Both live on one block device.  Block 0 holds the hard state as a
single CRC-tagged record; blocks 1.. are one byte stream of records
``crc32 | term | len | command`` packed back to back across block
boundaries, so an entry costs its bytes, not a block.  An entry's index
is its position in the stream; a zero term or a CRC mismatch ends the
log.  Each CRC is seeded with the CRC of the record before it, so a
record only validates after the exact prefix it was written after: the
blocks a longer, discarded suffix left beyond the tail are never
re-read as entries, whatever is appended later.  (After a byte-identical
prefix they could be — and would then be, by log matching, entries some
leader did append after exactly that prefix: an un-committed suffix like
any other.)

An append rewrites the tail block — the acked records in it byte for
byte, the new ones after them — plus the blocks it spills into, in one
``write_blocks``.  A crash there, torn or not, leaves every acked byte
as it was and at most a partial new record, which fails its CRC: the
un-acked suffix vanishes, which Raft explicitly tolerates (an entry is
only *committed* once replicated on a majority).  Truncation (the
AppendEntries conflict rule) cuts the stream at the entry's byte offset
and zeroes from there to the end of the block — and all of the cut
record's header, which the chain alone would accept again.

**Snapshots** (§7).  :meth:`RaftLog.compact` replaces entries
1..*index* by a snapshot — the state they produce — written to fresh
blocks with the entries after *index* re-packed behind it, the stream
now seeded with the snapshot's chain CRC.  A **manifest**, also on
fresh blocks, names the snapshot's blocks and the stream's, with the
snapshot's last index, last term, chain CRC, length and CRC; it spans
as many blocks as its list needs, each starting with the next one's
number (0 ends the chain), under one CRC.  Block 0's record then
carries the manifest's first block number, and is written last.  Only
then are the old blocks released with ``device.free()``: a crash
anywhere before leaves the previous snapshot and log whole.  From the
first snapshot on, block 1 holds :data:`LAYOUT_MARK` for good, so a
damaged block 0 is an error rather than a quietly empty log, and a
stream that grows past its blocks gets fresh ones and a new manifest.
Recovery reads only the blocks the manifest names and hands every
other block back to the device's free list — as they are, so every
write past the stream's end also zeroes the record header after it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import CounterGroup
from repro.storage.block_device import BlockDevice

#: Hard-state record: magic, current_term, length of the voted_for name,
#: then the name and a crc32 of everything before it.
_HARD = struct.Struct("<QQI")
_CRC = struct.Struct("<I")
HARD_MAGIC = 0x4554415444524148  # "HARDTATE"
#: Block 0 once the log has a snapshot: the hard-state record with the
#: manifest's block number between the name and the crc.
POINTER_MAGIC = 0x52544E494F504E53  # "SNPOINTR"
_BLOCK_NO = struct.Struct("<I")

#: Manifest: magic; the snapshot's last index and last term; the chain
#: crc that seeds the stream after it; the snapshot's length and crc32;
#: how many snapshot and stream block numbers follow.  A crc32 of
#: everything before it ends the record, which is cut into pieces that
#: each follow the number of the block holding the next piece.
_MANIFEST = struct.Struct("<QQQIIIII")
MANIFEST_MAGIC = 0x54534546494E414D  # "MANIFEST"
#: Block 1 of a log that has ever compacted.
LAYOUT_MARK = b"RAFT-LOG-SNAPSHOT-LAYOUT"

#: Log record header: crc32 of everything after it in the record, seeded
#: with the previous record's crc (0 before the first); term; command
#: length.  The command bytes follow.
_RECORD = struct.Struct("<IQI")

#: What a log reports, as ``<prefix>.<field>`` counters.
LOG_FIELDS = ("appends", "blocks_written", "truncations")


class RaftLogError(Exception):
    """Structural misuse of the log (oversized command, bad index), or
    an on-device snapshot, manifest or pointer that does not validate."""


@dataclass(frozen=True)
class LogEntry:
    """One replicated command: the term it was proposed in, its 1-based
    index, and the opaque state-machine command bytes."""

    term: int
    index: int
    command: bytes


class RaftLog:
    """Persistent log plus the node's hard state.

    The in-memory entry list is the read path; every mutation
    (append, truncate, compact, term/vote update) is made durable
    through the device before the caller proceeds — the Raft safety
    argument depends on persistence *preceding* the RPC reply.
    """

    def __init__(
        self, device: BlockDevice, stats: Optional[CounterGroup] = None
    ) -> None:
        self.device = device
        self.block_size = device.block_size
        if self.block_size <= _RECORD.size:
            raise RaftLogError(
                f"block size {self.block_size} too small for a log record"
            )
        if stats is None:
            stats = CounterGroup("raft.log", LOG_FIELDS)
        self.stats = stats
        self.current_term = 0
        self.voted_for: str | None = None
        #: The state entries 1..``snapshot_index`` produce (empty: none).
        self.snapshot = b""
        self.snapshot_index = 0
        self.snapshot_term = 0
        #: The entries after the snapshot.
        self._entries: list[LogEntry] = []
        #: ``_marks[i]``: where the stream ends after ``i`` entries, and
        #: the crc that seeds entry ``i + 1``.
        self._marks: list[tuple[int, int]] = [(0, 0)]
        #: The live bytes of the block the stream ends in.
        self._tail = b""
        #: The stream's device blocks in order, the snapshot's, and the
        #: manifest's naming both (none before the first snapshot, when
        #: the stream is blocks 1.. as the device hands them out).
        self._blocks: list[int] = []
        self._snapshot_blocks: list[int] = []
        self._manifest: list[int] = []
        self._recover()

    # -- hard state ---------------------------------------------------------
    def _ensure_blocks(self, last_block: int) -> None:
        """Grow the device so ``last_block`` is addressable (the device
        rejects writes past its allocation high-water mark)."""
        while self.device.total_blocks <= last_block:
            self.device.allocate()

    def set_hard_state(self, term: int, voted_for: str | None) -> None:
        """Persist ``(current_term, voted_for)`` before replying to RPCs."""
        self.current_term = term
        self.voted_for = voted_for
        self._write_hard_state()

    def _write_hard_state(self) -> None:
        name = (self.voted_for or "").encode("utf-8")
        magic, pointer = HARD_MAGIC, b""
        if self._manifest:
            magic, pointer = POINTER_MAGIC, _BLOCK_NO.pack(self._manifest[0])
        body = _HARD.pack(magic, self.current_term, len(name)) + name + pointer
        record = body + _CRC.pack(zlib.crc32(body))
        if len(record) > self.block_size:
            raise RaftLogError("voted_for name does not fit the hard-state block")
        self._ensure_blocks(0)
        self.device.write_blocks([(0, record)])

    def _load_hard_state(self) -> Optional[int]:
        """Adopt block 0's term and vote; return the manifest's first
        block number (None: no snapshot, or a torn or damaged record, which
        falls back to term 0, no vote)."""
        if not self.device.total_blocks:
            return None  # a device nothing was ever written to
        raw = self.device.read_block(0)
        try:
            magic, term, name_len = _HARD.unpack_from(raw, 0)
            pointer = _BLOCK_NO.size if magic == POINTER_MAGIC else 0
            end = _HARD.size + name_len + pointer
            (crc,) = _CRC.unpack_from(raw, end)
            name = raw[_HARD.size : _HARD.size + name_len].decode("utf-8")
        except (struct.error, UnicodeDecodeError):
            return None
        if magic not in (HARD_MAGIC, POINTER_MAGIC) or crc != zlib.crc32(raw[:end]):
            return None
        self.current_term = term
        self.voted_for = name or None
        return _BLOCK_NO.unpack_from(raw, end - pointer)[0] if pointer else None

    # -- log geometry -------------------------------------------------------
    @property
    def last_index(self) -> int:
        return self.snapshot_index + len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else self.snapshot_term

    @property
    def compaction_due(self) -> bool:
        """The policy, with no option: the record stream has outgrown
        both one block and the last snapshot."""
        return self._marks[-1][0] > max(len(self.snapshot), self.block_size)

    @property
    def live_blocks(self) -> int:
        """Blocks the log uses; exactly those are allocated on its device."""
        if not self._manifest:
            return self.device.total_blocks
        named = self._manifest + self._snapshot_blocks + self._blocks
        return 2 + len(named)  # and blocks 0 and 1

    def term_at(self, index: int) -> int:
        """Term of the entry at 1-based ``index`` (the snapshot's last
        index → its term; 0 → the sentinel term)."""
        if index == self.snapshot_index:
            return self.snapshot_term
        return self.entry(index).term

    def entry(self, index: int) -> LogEntry:
        if not self.snapshot_index < index <= self.last_index:
            raise RaftLogError(f"no entry at index {index}")
        return self._entries[index - self.snapshot_index - 1]

    def entries_from(self, index: int) -> list[LogEntry]:
        """Entries with index ≥ ``index`` (for AppendEntries payloads)."""
        if self.snapshot_index and index <= self.snapshot_index:
            raise RaftLogError(f"entry {index} is in the snapshot")
        return list(self._entries[max(index - self.snapshot_index, 1) - 1 :])

    # -- append / truncate --------------------------------------------------
    def append(self, term: int, commands: list[bytes]) -> list[LogEntry]:
        """Append fresh leader-proposed commands; one durable write."""
        entries = [
            LogEntry(term=term, index=self.last_index + 1 + i, command=cmd)
            for i, cmd in enumerate(commands)
        ]
        self._persist(entries)
        return entries

    def append_entries(self, entries: list[LogEntry]) -> None:
        """Append replicated entries verbatim (follower path)."""
        if not entries:
            return
        if entries[0].index != self.last_index + 1:
            raise RaftLogError(
                f"append at index {entries[0].index} but log ends at "
                f"{self.last_index}"
            )
        self._persist(entries)

    def truncate_from(self, index: int) -> None:
        """Discard every entry with index ≥ ``index`` (conflict rule)."""
        if index > self.last_index:
            return
        if index <= self.snapshot_index:
            raise RaftLogError(f"cannot truncate at {index}: it is in the snapshot")
        kept = index - self.snapshot_index - 1
        cut = self._marks[kept][0]
        first = cut // self.block_size
        tail = self.device.read_block(self._blocks[first])[: cut % self.block_size]
        # The cut record follows the same prefix, so the chain alone
        # would accept it again: its whole header goes to zero, in the
        # next block too when it straddles the boundary.
        self._write(first, tail + bytes(_RECORD.size))
        self._tail = tail
        del self._entries[kept:]
        del self._marks[kept + 1 :]
        self.stats.record("truncations")

    def _persist(self, entries: list[LogEntry]) -> None:
        """Encode ``entries`` after the tail and write the blocks they
        touch; memory changes only once the device has them."""
        end, crc = self._marks[-1]
        start = end - len(self._tail)
        stream = bytearray(self._tail)
        marks = self._encode(entries, crc, stream, start)
        data = bytes(stream)
        self._write(start // self.block_size, data)
        self._tail = data[len(data) - len(data) % self.block_size :]
        self._entries.extend(entries)
        self._marks.extend(marks)
        self.stats.record("appends")

    def _encode(
        self, entries: list[LogEntry], crc: int, stream: bytearray, start: int
    ) -> list[tuple[int, int]]:
        """Pack ``entries`` onto ``stream`` (which begins at byte
        ``start``) chained from ``crc``; return their marks."""
        marks = []
        for entry in entries:
            if entry.term < 1:
                raise RaftLogError("term 0 is the end-of-log marker")
            if _RECORD.size + len(entry.command) > self.block_size:
                raise RaftLogError(
                    f"command of {len(entry.command)} bytes does not fit a "
                    f"{self.block_size}-byte log block"
                )
            body = _RECORD.pack(0, entry.term, len(entry.command))[_CRC.size :]
            crc = zlib.crc32(body + entry.command, crc)
            stream += _CRC.pack(crc) + body + entry.command
            marks.append((start + len(stream), crc))
        return marks

    def _write(self, first: int, data: bytes) -> None:
        """One ``write_blocks`` of ``data`` (never empty) over the
        stream's blocks from the ``first``-th on, growing the stream
        into fresh blocks — which a new manifest then names — as needed.

        Past a snapshot the stream's blocks may have been handed back
        after a crash still holding an old stream, so when the record
        header after ``data`` reaches into a further block, that block
        is zeroed in the same write."""
        size = self.block_size
        count = first + -(-len(data) // size)
        grown = count - len(self._blocks)
        if grown > 0 and not self._manifest:
            self._ensure_blocks(count)
            self._blocks = list(range(1, count + 1))
        elif grown > 0:
            self._blocks += [self.device.allocate() for __ in range(grown)]
        blocks = [
            (self._blocks[first + at // size], data[at : at + size])
            for at in range(0, len(data), size)
        ]
        header_end = first + (len(data) + _RECORD.size - 1) // size
        if self._manifest and count == header_end < len(self._blocks):
            blocks.append((self._blocks[count], b""))
        self.device.write_blocks(blocks)
        self.stats.record("blocks_written", len(blocks))
        if grown > 0 and self._manifest:
            self._flip()

    # -- snapshots ------------------------------------------------------------
    def compact(self, index: int, term: int, snapshot: bytes) -> int:
        """Replace entries 1..``index`` by ``snapshot``, the state they
        produce; return how many blocks went back to the device.

        The entries after ``index`` stay when this log holds ``index``
        in ``term``; otherwise (a leader's snapshot installed past or
        across this log) the whole log goes, as §7 prescribes.
        """
        base = self.snapshot_index
        if index <= base:
            raise RaftLogError(f"snapshot at {index} is not past {base}")
        keep = index <= self.last_index and self.term_at(index) == term
        tail = self._entries[index - base :] if keep else []
        crc = self._marks[index - base][1] if keep else zlib.crc32(snapshot)
        stream = bytearray()
        marks = self._encode(tail, crc, stream, 0)
        size = self.block_size
        snapshot_blocks = -(-len(snapshot) // size)
        # Room for the stream to grow until the next compaction is due.
        stream_blocks = max(len(stream), len(snapshot), size) // size + 1
        first, old_manifest = not self._manifest, len(self._manifest)
        self._ensure_blocks(1)  # block 1 becomes the layout mark
        released = [b for b in self._snapshot_blocks + self._blocks if b != 1]
        fresh = [
            self.device.allocate() for __ in range(snapshot_blocks + stream_blocks)
        ]
        # Blocks past the one the next record header ends in are
        # written once the stream reaches them: until then the zeroed
        # header ends the walk before them.
        data = snapshot + bytes(snapshot_blocks * size - len(snapshot)) + stream
        written = (len(data) + _RECORD.size - 1) // size + 1
        self.device.write_blocks(
            [
                (block, data[i * size : (i + 1) * size])
                for i, block in enumerate(fresh[:written])
            ]
        )
        self.snapshot, self.snapshot_index, self.snapshot_term = snapshot, index, term
        self._snapshot_blocks = fresh[:snapshot_blocks]
        self._blocks = fresh[snapshot_blocks:]
        self._entries = tail
        self._marks = [(0, crc)] + marks
        self._tail = bytes(stream[len(stream) - len(stream) % size :])
        self._flip()
        if first:
            self.device.write_blocks([(1, LAYOUT_MARK)])
        for block in released:
            self.device.free(block)
        return len(released) + old_manifest

    def _flip(self) -> None:
        """Name the snapshot's and the stream's blocks in a manifest on
        fresh blocks, point block 0 at it — last — and release the
        manifest it replaces."""
        old = self._manifest
        numbers = self._snapshot_blocks + self._blocks
        body = _MANIFEST.pack(
            MANIFEST_MAGIC,
            self.snapshot_index,
            self.snapshot_term,
            self._marks[0][1],
            len(self.snapshot),
            zlib.crc32(self.snapshot),
            len(self._snapshot_blocks),
            len(self._blocks),
        ) + struct.pack(f"<{len(numbers)}I", *numbers)
        record = body + _CRC.pack(zlib.crc32(body))
        room = self.block_size - _BLOCK_NO.size
        pieces = [record[at : at + room] for at in range(0, len(record), room)]
        self._manifest = [self.device.allocate() for __ in pieces]
        links = self._manifest[1:] + [0]
        self.device.write_blocks(
            [
                (block, _BLOCK_NO.pack(link) + piece)
                for block, link, piece in zip(self._manifest, links, pieces)
            ]
        )
        self.device.barrier()
        self._write_hard_state()
        for block in old:
            self.device.free(block)

    # -- recovery -----------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the snapshot and the entries from the device."""
        manifest = self._load_hard_state()
        if manifest is None:
            blocks = list(range(1, self.device.total_blocks))
            stream = b"".join(self.device.read_blocks(blocks)) if blocks else b""
            if stream.startswith(LAYOUT_MARK):
                raise RaftLogError("block 0 is damaged and held the snapshot pointer")
            self._blocks = blocks
            self._walk(stream, 0)
            return
        raw, mark = self._read_named([manifest, 1])
        chain, record = [manifest], bytearray()
        while True:
            (link,) = _BLOCK_NO.unpack_from(raw)
            record += raw[_BLOCK_NO.size :]
            if not link:
                break
            if link in chain:
                raise RaftLogError(f"manifest chain loops back to block {link}")
            chain.append(link)
            (raw,) = self._read_named([link])
        try:
            magic, index, term, crc, length, snapshot_crc, n_snapshot, n_stream = (
                _MANIFEST.unpack_from(record, 0)
            )
            end = _MANIFEST.size + _BLOCK_NO.size * (n_snapshot + n_stream)
            (stored,) = _CRC.unpack_from(record, end)
        except struct.error:
            raise RaftLogError(f"manifest block {manifest} is damaged") from None
        pieces = -(-(end + _CRC.size) // (self.block_size - _BLOCK_NO.size))
        if (
            magic != MANIFEST_MAGIC
            or stored != zlib.crc32(record[:end])
            or len(chain) != pieces
        ):
            raise RaftLogError(f"manifest block {manifest} is damaged")
        numbers = list(
            struct.unpack_from(f"<{n_snapshot + n_stream}I", record, _MANIFEST.size)
        )
        data = b"".join(self._read_named(numbers))
        snapshot = data[:length]
        if length > n_snapshot * self.block_size or zlib.crc32(snapshot) != snapshot_crc:
            raise RaftLogError("the snapshot does not match its manifest")
        self.snapshot, self.snapshot_index, self.snapshot_term = snapshot, index, term
        self._manifest = chain
        self._snapshot_blocks = numbers[:n_snapshot]
        self._blocks = numbers[n_snapshot:]
        self._walk(data[n_snapshot * self.block_size :], crc)
        if not mark.startswith(LAYOUT_MARK):  # a crash before the first mark
            self.device.write_blocks([(1, LAYOUT_MARK)])
        self.device.rebuild_free_list(
            {0, 1, *chain, *self._snapshot_blocks, *self._blocks}
        )

    def _read_named(self, blocks: list[int]) -> list[bytes]:
        """Read blocks a validated record names, in one transaction."""
        if any(not 1 <= block < self.device.total_blocks for block in blocks):
            raise RaftLogError("a manifest names a block past the device's end")
        return self.device.read_blocks(blocks)

    def _walk(self, stream: bytes, crc: int) -> None:
        """Rebuild the entries from the record ``stream``, chained from
        ``crc``.

        The walk stops at the first record that is absent (zero term),
        cut short, or does not chain from the one before it — a torn
        append, or what a discarded suffix left behind.  Every record
        before it was acked durable, so they are the authoritative log
        prefix; the next append overwrites whatever follows them.
        """
        at = 0
        self._marks = [(0, crc)]
        while at + _RECORD.size <= len(stream):
            stored, term, length = _RECORD.unpack_from(stream, at)
            end = at + _RECORD.size + length
            if term == 0 or end - at > self.block_size or end > len(stream):
                break
            if zlib.crc32(stream[at + _CRC.size : end], crc) != stored:
                break
            command = stream[at + _RECORD.size : end]
            self._entries.append(LogEntry(term, self.last_index + 1, command))
            self._marks.append((end, stored))
            at, crc = end, stored
        self._tail = stream[at - at % self.block_size : at]
