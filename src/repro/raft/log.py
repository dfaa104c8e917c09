"""The persistent Raft log: a packed, CRC-chained record stream.

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

#: Log record header: crc32 of everything after it in the record, seeded
#: with the previous record's crc (0 before the first); term; command
#: length.  The command bytes follow.
_RECORD = struct.Struct("<IQI")

#: What a log reports, as ``<prefix>.<field>`` counters.
LOG_FIELDS = ("appends", "blocks_written", "truncations")


class RaftLogError(Exception):
    """Structural misuse of the log (oversized command, bad index)."""


@dataclass(frozen=True)
class LogEntry:
    """One replicated command: the term it was proposed in, its 1-based
    index, and the opaque state-machine command bytes."""

    term: int
    index: int
    command: bytes


class RaftLog:
    """Append-only persistent log plus the node's hard state.

    The in-memory entry list is the read path; every mutation
    (append, truncate, term/vote update) is made durable through the
    device before the caller proceeds — the Raft safety argument
    depends on persistence *preceding* the RPC reply.
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
        self._entries: list[LogEntry] = []
        #: ``_marks[i]``: where the stream ends after ``i`` entries, and
        #: the crc that seeds entry ``i + 1``.
        self._marks: list[tuple[int, int]] = [(0, 0)]
        #: The live bytes of the block the stream ends in.
        self._tail = b""
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
        name = (voted_for or "").encode("utf-8")
        body = _HARD.pack(HARD_MAGIC, term, len(name)) + name
        record = body + _CRC.pack(zlib.crc32(body))
        if len(record) > self.block_size:
            raise RaftLogError("voted_for name does not fit the hard-state block")
        self._ensure_blocks(0)
        self.device.write_blocks([(0, record)])

    def _load_hard_state(self) -> None:
        if not self.device.total_blocks:
            return  # a device nothing was ever written to
        raw = self.device.read_block(0)
        try:
            magic, term, name_len = _HARD.unpack_from(raw, 0)
        except struct.error:
            return
        if magic != HARD_MAGIC or _HARD.size + name_len + _CRC.size > len(raw):
            return
        body = raw[: _HARD.size + name_len]
        (crc,) = _CRC.unpack_from(raw, _HARD.size + name_len)
        if crc != zlib.crc32(body):
            return  # torn hard-state write: fall back to term 0, no vote
        self.current_term = term
        name = raw[_HARD.size : _HARD.size + name_len].decode("utf-8")
        self.voted_for = name or None

    # -- log geometry -------------------------------------------------------
    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    def term_at(self, index: int) -> int:
        """Term of the entry at 1-based ``index`` (0 → the sentinel term)."""
        if index == 0:
            return 0
        if not 1 <= index <= len(self._entries):
            raise RaftLogError(f"no entry at index {index}")
        return self._entries[index - 1].term

    def entry(self, index: int) -> LogEntry:
        if not 1 <= index <= len(self._entries):
            raise RaftLogError(f"no entry at index {index}")
        return self._entries[index - 1]

    def entries_from(self, index: int) -> list[LogEntry]:
        """Entries with index ≥ ``index`` (for AppendEntries payloads)."""
        return list(self._entries[max(index, 1) - 1 :])

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
        if index < 1:
            raise RaftLogError("cannot truncate the sentinel")
        cut = self._marks[index - 1][0]
        first = 1 + cut // self.block_size
        tail = self.device.read_block(first)[: cut % self.block_size]
        # The cut record follows the same prefix, so the chain alone
        # would accept it again: its whole header goes to zero, in the
        # next block too when it straddles the boundary.
        self._write(first, tail + bytes(_RECORD.size))
        self._tail = tail
        del self._entries[index - 1 :]
        del self._marks[index:]
        self.stats.record("truncations")

    def _persist(self, entries: list[LogEntry]) -> None:
        """Encode ``entries`` after the tail and write the blocks they
        touch; memory changes only once the device has them."""
        end, crc = self._marks[-1]
        start = end - len(self._tail)
        stream = bytearray(self._tail)
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
        data = bytes(stream)
        self._write(1 + start // self.block_size, data)
        self._tail = data[len(data) - len(data) % self.block_size :]
        self._entries.extend(entries)
        self._marks.extend(marks)
        self.stats.record("appends")

    def _write(self, first: int, data: bytes) -> None:
        """One ``write_blocks`` of ``data`` (never empty) over the
        blocks from ``first`` on."""
        blocks = [
            (first + at // self.block_size, data[at : at + self.block_size])
            for at in range(0, len(data), self.block_size)
        ]
        self._ensure_blocks(blocks[-1][0])
        self.device.write_blocks(blocks)
        self.stats.record("blocks_written", len(blocks))

    # -- recovery -----------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the entries by walking records from block 1.

        The walk stops at the first record that is absent (zero term),
        cut short, or does not chain from the one before it — a torn
        append, or what a discarded suffix left behind.  Every record
        before it was acked durable, so they are the authoritative log
        prefix; the next append overwrites whatever follows them.
        """
        self._load_hard_state()
        blocks = range(1, self.device.total_blocks)
        stream = b"".join(self.device.read_blocks(blocks)) if blocks else b""
        at = crc = 0
        while at + _RECORD.size <= len(stream):
            stored, term, length = _RECORD.unpack_from(stream, at)
            end = at + _RECORD.size + length
            if term == 0 or end - at > self.block_size or end > len(stream):
                break
            if zlib.crc32(stream[at + _CRC.size : end], crc) != stored:
                break
            command = stream[at + _RECORD.size : end]
            self._entries.append(LogEntry(term, len(self._entries) + 1, command))
            self._marks.append((end, stored))
            at, crc = end, stored
        self._tail = stream[at - at % self.block_size : at]
