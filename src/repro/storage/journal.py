"""Write-ahead journal: crash-atomic publication of staged block writes.

The engine persists several structures — superblock, metadata chain,
refcount partition, data blocks — as independent device writes, so a
crash between any two of them leaves the image inconsistent.  This
module closes that window with a jbd2-style journal:

* a fixed **journal region** of blocks reserved at format time (the
  superblock records its location);
* a :class:`Transaction` that stages every write in memory, classified
  as *fresh* (block allocated this epoch — nothing durable references
  it) or *overwrite* (block already part of the committed image);
* a 4-phase :meth:`JournalDevice.commit`:

  1. fresh blocks are written **directly** to their home locations in
     one batched write (ordered-mode journaling: they are unreachable
     until the metadata that references them commits, so a crash here
     is harmless);
  2. overwrites are appended to the journal region as one checksummed,
     LSN-stamped batch ending in a commit record, through the batched
     ``write_blocks`` path;
  3. after a write barrier, the overwrites are applied to their home
     locations;
  4. frees deferred during the epoch are released (blocks referenced by
     the previous image must survive until the new image is durable).

One batch is outstanding at a time: each commit rewrites the region
from its start, so recovery (:meth:`Journal.recover`) parses a single
batch — replaying it is idempotent, and a torn tail (bad magic, CRC or
LSN mismatch, truncated data run) discards the batch, leaving the
previous image intact.  Crashing at *any* device write therefore lands
on exactly the pre- or post-image of the interrupted commit.

Batch layout (all integers little-endian)::

    descriptor block:  magic(u64) lsn(u64) n_tags(u32)
                       then n_tags x [home_block(u64) crc32(u32)]
    data blocks:       n_tags blocks, verbatim
    ... more descriptor groups as needed, same lsn ...
    commit block:      magic(u64) lsn(u64) n_writes(u32) header_crc(u32)

:func:`encode_batch` and :func:`parse_batch` are the only code that
knows this layout.  The Raft log (:mod:`repro.raft.log`) persists its
entries through the same two functions — the tag is then a log index
and the LSN the index of the batch's first entry — so torn-tail
recovery is one rule on both logs.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Optional, Sequence

from repro.locks import tracked_lock
from repro.storage.block_device import BlockDevice, BlockDeviceError, DeviceWrapper

_DESC = struct.Struct("<QQI")  # magic, lsn, n_tags / n_writes
_TAG = struct.Struct("<QI")  # tag (here: home block number), crc32 of the data block
_CRC = struct.Struct("<I")

DESC_MAGIC = 0x435345444424A31  # "1JBDESC" + version nibble
COMMIT_MAGIC = 0x544D4D4344424A31  # "1JBDCMMT"


def tags_per_descriptor(block_size: int) -> int:
    """How many ``(tag, crc32)`` pairs one descriptor block holds."""
    return (block_size - _DESC.size) // _TAG.size


def encode_batch(
    position: int, lsn: int, tagged: Sequence[tuple[int, bytes]], block_size: int
) -> list[tuple[int, bytes]]:
    """Lay one batch of ``(tag, data)`` blocks out from block ``position``.

    Returns the ``(block_no, bytes)`` pairs of consecutive blocks —
    descriptor groups, each followed by its zero-padded data blocks,
    then the commit record — ready for one ``write_blocks``.
    """
    per_desc = tags_per_descriptor(block_size)
    padded = [
        (tag, data + b"\x00" * (block_size - len(data))) for tag, data in tagged
    ]
    out: list[tuple[int, bytes]] = []
    for first in range(0, len(padded), per_desc):
        group = padded[first : first + per_desc]
        header = _DESC.pack(DESC_MAGIC, lsn, len(group)) + b"".join(
            _TAG.pack(tag, zlib.crc32(data)) for tag, data in group
        )
        out.append((position, header))
        position += 1
        for __, data in group:
            out.append((position, data))
            position += 1
    commit = _DESC.pack(COMMIT_MAGIC, lsn, len(padded))
    out.append((position, commit + _CRC.pack(zlib.crc32(commit))))
    return out


def parse_batch(
    block_at: Callable[[int], Optional[bytes]], position: int
) -> Optional[tuple[int, list[tuple[int, bytes]], int]]:
    """Parse the batch starting at block ``position``; None if absent or torn.

    ``block_at(n)`` returns block ``n``, or ``None`` past the end of
    what may be read.  Returns ``(lsn, [(tag, data), ...], blocks
    consumed)`` only when the batch is intact end to end: every
    descriptor carries the same LSN, every data block matches its CRC,
    and the commit record confirms the full block count.  Anything
    else — no batch at all, a half-written one, a commit from a
    different epoch — is a torn tail.
    """
    start = position
    tagged: list[tuple[int, bytes]] = []
    lsn: Optional[int] = None
    while True:
        raw = block_at(position)
        if raw is None:
            return None
        magic, record_lsn, count = _DESC.unpack_from(raw, 0)
        if magic == COMMIT_MAGIC:
            (header_crc,) = _CRC.unpack_from(raw, _DESC.size)
            header = _DESC.pack(COMMIT_MAGIC, record_lsn, count)
            if (
                lsn is None
                or record_lsn != lsn
                or count != len(tagged)
                or header_crc != zlib.crc32(header)
            ):
                return None
            return lsn, tagged, position - start + 1
        if magic != DESC_MAGIC:
            return None
        if lsn is None:
            lsn = record_lsn
        elif record_lsn != lsn:
            return None
        if not 1 <= count <= tags_per_descriptor(len(raw)):
            return None
        offset = _DESC.size
        for index in range(count):
            tag, crc = _TAG.unpack_from(raw, offset)
            offset += _TAG.size
            data = block_at(position + 1 + index)
            if data is None or zlib.crc32(data) != crc:
                return None
            tagged.append((tag, data))
        position += 1 + count


class JournalError(Exception):
    """Invalid journal geometry or a batch that cannot fit the region."""


class Transaction:
    """Staged state of one commit epoch on a journaled device.

    There is one transaction in the program: whatever a
    :class:`JournalDevice` has staged between two :meth:`~JournalDevice.
    commit` calls.  A mutator never commits partway — durability happens
    only at a sync point (``fsync``/``flush``/``close``) — and the
    crash-point matrices (``tests/test_failure_injection.py``) check it
    at every device write.
    """

    def __init__(self) -> None:
        #: block number -> padded bytes staged for this epoch.
        self.staged: dict[int, bytes] = {}
        #: blocks allocated this epoch; safe to write directly.
        self.fresh: set[int] = set()
        #: frees deferred to after commit, in request order.
        self.deferred: list[int] = []
        self._deferred_set: set[int] = set()

    def is_empty(self) -> bool:
        return not (self.staged or self.deferred)

    def defer_free(self, block_no: int) -> None:
        if block_no in self._deferred_set:
            raise BlockDeviceError(f"double free of block {block_no}")
        self.deferred.append(block_no)
        self._deferred_set.add(block_no)


class Journal:
    """The on-device journal region: encoding, recovery, replay."""

    def __init__(self, start: int, length: int, block_size: int) -> None:
        if length < 0 or start < 0:
            raise JournalError("journal region must have non-negative geometry")
        if length and length < 3:
            raise JournalError("journal region needs at least 3 blocks")
        self.start = start
        self.length = length
        self.block_size = block_size
        self._tags_per_desc = tags_per_descriptor(block_size)
        if length and self._tags_per_desc < 1:
            raise JournalError(
                f"block size {block_size} too small for a journal descriptor"
            )

    def region_blocks(self) -> set[int]:
        """Every device block belonging to the journal region."""
        return set(range(self.start, self.start + self.length))

    def blocks_needed(self, n_writes: int) -> int:
        """Region blocks one batch of ``n_writes`` overwrites occupies."""
        groups = -(-n_writes // self._tags_per_desc)
        return n_writes + groups + 1

    def encode_batch(
        self, lsn: int, writes: Sequence[tuple[int, bytes]]
    ) -> list[tuple[int, bytes]]:
        """Lay one batch out over the region as (block_no, bytes) pairs."""
        if not writes:
            raise JournalError("refusing to encode an empty batch")
        if self.blocks_needed(len(writes)) > self.length:
            raise JournalError(
                f"batch of {len(writes)} overwrites needs "
                f"{self.blocks_needed(len(writes))} journal blocks, region "
                f"has {self.length} — format with a larger journal"
            )
        return encode_batch(self.start, lsn, writes, self.block_size)

    def append_batch(
        self, device: BlockDevice, lsn: int, writes: Sequence[tuple[int, bytes]]
    ) -> int:
        """Write one batch into the region as a single batched transfer."""
        encoded = self.encode_batch(lsn, writes)
        device.write_blocks(encoded)
        return len(encoded)

    def recover(
        self, device: BlockDevice
    ) -> Optional[tuple[int, list[tuple[int, bytes]]]]:
        """Parse the region's last batch; None if absent or torn.

        Returns ``(lsn, [(home_block, data), ...])`` only when
        :func:`parse_batch` finds the batch intact end to end inside the
        region; a torn tail is discarded.
        """
        if self.length == 0:
            return None
        region = device.read_blocks(
            list(range(self.start, self.start + self.length))
        )
        parsed = parse_batch(
            lambda position: region[position] if position < self.length else None, 0
        )
        return parsed[:2] if parsed else None

    def replay(self, device: BlockDevice) -> int:
        """Re-apply the last committed batch to its home locations.

        Idempotent: the batch holds the post-image bytes verbatim, so
        replaying it any number of times converges on the same device
        state.  Returns the number of blocks applied (0 when the region
        holds no intact batch).
        """
        recovered = self.recover(device)
        if recovered is None:
            return 0
        __, writes = recovered
        device.write_blocks(writes)
        return len(writes)

    def next_lsn(self, device: BlockDevice) -> int:
        recovered = self.recover(device)
        return recovered[0] + 1 if recovered else 1


class JournalDevice(DeviceWrapper):
    """A block device whose writes stage in an ambient transaction.

    Every ``write_blocks`` lands in the open :class:`Transaction`
    instead of the device; reads merge staged content over the inner
    device; frees of already-durable blocks are deferred.  Nothing
    reaches the platter until :meth:`commit` runs the 4-phase protocol,
    so a crash at any point leaves the previous committed image — and a
    crash after phase 2 completes is rolled forward by mount-time
    :meth:`Journal.replay`.
    """

    def __init__(self, inner: BlockDevice, journal: Journal) -> None:
        super().__init__(inner)
        self.journal = journal
        self.txn = Transaction()
        self.lsn = journal.next_lsn(inner)
        #: Serializes the 4-phase publish: two interleaved commits would
        #: splice their journal appends and tear both atomic units.
        #: Unranked — it nests freely under the cluster tier locks.
        self._commit_lock = tracked_lock("journal.commit.lock")
        registry = inner.obs.registry
        self._c_commits = registry.counter("journal.commits")
        self._c_journal_blocks = registry.counter("journal.blocks_written")
        self._c_fresh_blocks = registry.counter("journal.fresh_blocks")
        self._c_overwrite_blocks = registry.counter("journal.overwrite_blocks")
        self._c_deferred_frees = registry.counter("journal.deferred_frees")
        #: Group-commit durability callbacks: each waiter is called with
        #: the LSN of the last durable epoch after the next commit.
        self._ack_waiters: list = []

    def enqueue_ack(self, callback) -> None:
        """Register a durability callback for the next :meth:`commit`.

        The mechanism behind MVCC group commit: N committed sessions
        enqueue their tickets, one 4-phase commit sequence publishes
        all their staged mutations, and every callback receives the
        same shared LSN — durability acked per session, amortized over
        the batch.
        """
        with self._commit_lock:
            self._ack_waiters.append(callback)

    def can_overwrite_in_place(self, block_no: int) -> bool:
        return block_no in self.txn.fresh

    # -- allocation ---------------------------------------------------
    def allocate(self) -> int:
        block_no = self.inner.allocate()
        self.txn.fresh.add(block_no)
        return block_no

    def free(self, block_no: int) -> None:
        if block_no in self.txn.fresh:
            # Never durable: nothing references it, release immediately.
            self.txn.staged.pop(block_no, None)
            self.txn.fresh.discard(block_no)
            self.inner.free(block_no)
            return
        if 0 <= block_no - self.journal.start < self.journal.length:
            raise BlockDeviceError(f"freeing journal block {block_no}")
        self.txn.defer_free(block_no)

    # -- staged data access -------------------------------------------
    def read_blocks(self, block_nos: Sequence[int]) -> list[bytes]:
        staged = self.txn.staged
        misses = [no for no in dict.fromkeys(block_nos) if no not in staged]
        fetched = dict(zip(misses, self.inner.read_blocks(misses))) if misses else {}
        return [staged.get(no) or fetched[no] for no in block_nos]

    def write_blocks(self, pairs: Sequence[tuple[int, bytes]]) -> None:
        block_size = self.inner.block_size
        for block_no, data in pairs:
            self.inner._check_block_no(block_no)
            if len(data) > block_size:
                raise BlockDeviceError(
                    f"write of {len(data)} bytes exceeds block size {block_size}"
                )
            self.txn.staged[block_no] = data + b"\x00" * (block_size - len(data))

    # -- commit protocol ----------------------------------------------
    def commit(self) -> int:
        """Publish the epoch durably; returns journal blocks written.

        Phases: direct write of fresh blocks; journal append of
        overwrites (with barrier); in-place apply (with barrier);
        deferred frees.  See the module docstring for why each phase is
        individually crash-safe.
        """
        with self._commit_lock:
            written = self._commit_locked()
            if self._ack_waiters:
                # Everything staged before this point is now durable —
                # including the case of an empty transaction, where an
                # earlier commit already published it.  ``lsn`` is the
                # *next* epoch, so the durable one is its predecessor.
                waiters, self._ack_waiters = self._ack_waiters, []
                durable_lsn = self.lsn - 1
                for callback in waiters:
                    callback(durable_lsn)
            return written

    def _commit_locked(self) -> int:
        txn = self.txn
        if txn.is_empty():
            return 0
        direct = sorted(
            (no, data) for no, data in txn.staged.items() if no in txn.fresh
        )
        overwrites = sorted(
            (no, data) for no, data in txn.staged.items() if no not in txn.fresh
        )
        tracer = self.inner.obs.tracer
        journal_blocks = 0
        with tracer.span(
            "journal.commit",
            lsn=self.lsn,
            staged=len(txn.staged),
            frees=len(txn.deferred),
        ):
            if direct:
                with tracer.span("journal.phase.fresh", blocks=len(direct)):
                    self.inner.write_blocks(direct)
                    self.inner.barrier()
            if overwrites:
                with tracer.span("journal.phase.append", blocks=len(overwrites)):
                    journal_blocks = self.journal.append_batch(
                        self.inner, self.lsn, overwrites
                    )
                    self.inner.barrier()
                with tracer.span("journal.phase.apply", blocks=len(overwrites)):
                    self.inner.write_blocks(overwrites)
                    self.inner.barrier()
            if txn.deferred:
                with tracer.span("journal.phase.frees", blocks=len(txn.deferred)):
                    for block_no in txn.deferred:
                        self.inner.free(block_no)
        self._c_commits.inc()
        self._c_journal_blocks.inc(journal_blocks)
        self._c_fresh_blocks.inc(len(direct))
        self._c_overwrite_blocks.inc(len(overwrites))
        self._c_deferred_frees.inc(len(txn.deferred))
        self.lsn += 1
        self.txn = Transaction()
        return journal_blocks
