"""Write-ahead journal: an append log of crash-atomic sync points.

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
  2. one checksummed, LSN-stamped batch is appended at the **log
     head** through the batched ``write_blocks`` path.  It carries the
     epoch's *logical record* — an opaque payload describing what
     changed, inline in its first descriptor when it fits there, else
     as data blocks under :data:`LOGICAL_TAG`, a tag no home block can
     have — followed by the overwrites;
  3. after a write barrier, the overwrites are applied to their home
     locations;
  4. frees deferred during the epoch are released (blocks referenced by
     the previous image must survive until the new image is durable).

The region is a log: batch ``n + 1`` starts where batch ``n`` ended and
carries the next LSN.  Recovery (:func:`walk_batches`) walks batches
from the region start and stops at the first torn one (bad magic, CRC
or LSN mismatch, truncated data run) or the first whose LSN is not the
expected next — LSNs never repeat, so whatever an earlier trip round
the region left beyond the head is ignored.  Replaying an intact batch
is idempotent.  A commit with ``truncate=True`` (a checkpoint: the
overwrite it carries makes every earlier record redundant) sends the
head back to the region start.  Crashing at *any* device write lands on
exactly the pre- or post-image of the interrupted commit.

Batch layout (all integers little-endian)::

    descriptor block:  magic(u64) lsn(u64) n_tags(u32) inline_len(u32) last(u8)
                       then n_tags x [home_block(u64) crc32(u32)]
                       then the inline logical record (first group only)
                       then crc32(u32) of everything before it
    data blocks:       n_tags blocks, verbatim, each under its tag's crc32
    ... more descriptor groups as needed, same lsn, the final one last=1 ...

There is no commit block: the descriptor with ``last`` set seals the
batch.  A torn descriptor fails its own CRC, a torn data block its tag's,
and a missing later group — or a stale one an earlier trip round the
region left — fails the LSN chain.  A small fsync therefore writes one
block.  Batches written before this layout (``DESC_MAGIC`` groups with
no CRC of their own, then a ``COMMIT_MAGIC`` block) still parse: v3/v4
images and v5 logs from older writers carry them.  The reverse does not
hold — an older reader sees a sealed batch as a torn tail — so images do
not downgrade, and the superblock version stays 5.

:func:`encode_batch` and :func:`parse_batch` are the only code that
knows this layout.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from repro.locks import tracked_lock
from repro.storage.block_device import BlockDevice, BlockDeviceError, DeviceWrapper

_DESC = struct.Struct("<QQI")  # magic, lsn, n_tags: both layouts' prefix (legacy commit: n_writes)
_SEAL = struct.Struct("<QQIIB")  # magic, lsn, n_tags, inline_len, last
_TAG = struct.Struct("<QI")  # tag (here: home block number), crc32 of the data block
_CRC = struct.Struct("<I")

SEAL_MAGIC = 0x4C41455344424A31  # "1JBDSEAL"
DESC_MAGIC = 0x435345444424A31  # "1JBDESC" + version nibble (legacy)
COMMIT_MAGIC = 0x544D4D4344424A31  # "1JBDCMMT" (legacy)
#: Tag of the data blocks holding a batch's logical record.  Block
#: numbers are allocation indexes, so no home block can carry it.
LOGICAL_TAG = 0xFFFFFFFFFFFFFFFF


def batch_blocks(block_size: int, logical_len: int, n_overwrites: int) -> int:
    """Region blocks one batch occupies: descriptors plus data blocks."""
    room = block_size - _SEAL.size - _CRC.size
    inline = logical_len if logical_len <= room else 0
    tags = n_overwrites + -(-(logical_len - inline) // block_size)
    spill = max(0, tags - (room - inline) // _TAG.size)
    return 1 + tags + -(-spill // (room // _TAG.size))


def encode_batch(
    position: int,
    lsn: int,
    tagged: Sequence[tuple[int, bytes]],
    block_size: int,
    logical: bytes = b"",
) -> list[tuple[int, bytes]]:
    """Lay one batch of ``(tag, data)`` blocks out from block ``position``.

    ``logical`` rides inline in the first descriptor if it fits there,
    else whole, in data blocks under :data:`LOGICAL_TAG`.  Returns the
    ``(block_no, bytes)`` pairs of consecutive blocks — descriptor
    groups, each followed by its zero-padded data blocks — ready for one
    ``write_blocks``.
    """
    room = block_size - _SEAL.size - _CRC.size
    inline = logical if len(logical) <= room else b""
    chunks = range(len(inline), len(logical), block_size)
    padded = [
        (tag, data + b"\x00" * (block_size - len(data)))
        for tag, data in [(LOGICAL_TAG, logical[i : i + block_size]) for i in chunks] + list(tagged)
    ]
    out: list[tuple[int, bytes]] = []
    first, capacity = 0, (room - len(inline)) // _TAG.size
    while True:
        group = padded[first : first + capacity]
        first += capacity
        last = first >= len(padded)
        body = (
            _SEAL.pack(SEAL_MAGIC, lsn, len(group), len(inline), last)
            + b"".join(_TAG.pack(tag, zlib.crc32(data)) for tag, data in group)
            + inline
        )
        out.append((position, body + _CRC.pack(zlib.crc32(body))))
        out += [(position + 1 + i, data) for i, (__, data) in enumerate(group)]
        position += 1 + len(group)
        if last:
            return out
        inline, capacity = b"", room // _TAG.size


def parse_batch(
    block_at: Callable[[int], Optional[bytes]], position: int
) -> Optional[tuple[int, list[tuple[int, bytes]], int]]:
    """Parse the batch starting at block ``position``; None if absent or torn.

    ``block_at(n)`` returns block ``n``, or ``None`` past the end of
    what may be read.  Returns ``(lsn, [(tag, data), ...], blocks
    consumed)`` only when the batch is intact end to end: every
    descriptor carries the same magic and LSN and (sealed) its own
    valid CRC, every data block matches its CRC, and the batch is
    sealed — by a ``last`` descriptor, or a legacy commit record that
    confirms the full block count.  An inline logical record comes back
    as a :data:`LOGICAL_TAG` entry.  Anything else — no batch at all, a
    half-written one, a group or commit from a different epoch — is a
    torn tail.
    """
    start = position
    tagged: list[tuple[int, bytes]] = []
    kind = lsn = None
    while True:
        raw = block_at(position)
        if raw is None:
            return None
        magic, record_lsn, count = _DESC.unpack_from(raw, 0)
        if magic == COMMIT_MAGIC and kind == DESC_MAGIC:
            header, crc = raw[: _DESC.size], raw[_DESC.size : _DESC.size + _CRC.size]
            if (record_lsn, count, crc) != (lsn, len(tagged), _CRC.pack(zlib.crc32(header))):
                return None
            return lsn, tagged, position - start + 1
        if kind is None:
            kind, lsn = magic, record_lsn
        elif (magic, record_lsn) != (kind, lsn):
            return None
        last = False
        if magic == SEAL_MAGIC:
            inline_len, last = _SEAL.unpack_from(raw, 0)[3:]
            end = _SEAL.size + count * _TAG.size + inline_len
            if raw[end : end + _CRC.size] != _CRC.pack(zlib.crc32(raw[:end])):
                return None
            if inline_len:
                tagged.append((LOGICAL_TAG, raw[end - inline_len : end]))
            offset = _SEAL.size
        elif magic == DESC_MAGIC and 1 <= count <= (len(raw) - _DESC.size) // _TAG.size:
            offset = _DESC.size
        else:
            return None
        for index in range(count):
            tag, crc = _TAG.unpack_from(raw, offset)
            offset += _TAG.size
            data = block_at(position + 1 + index)
            if data is None or zlib.crc32(data) != crc:
                return None
            tagged.append((tag, data))
        position += 1 + count
        if last:
            return lsn, tagged, position - start


class Batch(NamedTuple):
    """One intact batch as :func:`walk_batches` found it."""

    lsn: int
    tagged: list[tuple[int, bytes]]
    #: Consecutive blocks the batch occupies, descriptors included.
    blocks: int

    @property
    def logical(self) -> bytes:
        """The logical record (b"" if none); zero-padded to whole blocks
        when it did not fit inline."""
        return b"".join(data for tag, data in self.tagged if tag == LOGICAL_TAG)

    @property
    def physical(self) -> list[tuple[int, bytes]]:
        """The ``(home_block, data)`` overwrites, in batch order."""
        return [(tag, data) for tag, data in self.tagged if tag != LOGICAL_TAG]


def walk_batches(
    block_at: Callable[[int], Optional[bytes]],
    position: int,
    first_lsn: Optional[int],
) -> Iterator[Batch]:
    """Yield the intact, LSN-consecutive batches starting at ``position``.

    The journal's recovery loop: parse a batch, stop if it is torn or
    does not carry the expected LSN (a stale batch from an earlier trip
    round the region), otherwise yield it and move to the block after
    it.  ``first_lsn=None`` accepts whatever LSN the first batch
    carries.  Lazy, so a caller that stops early reads no block it does
    not use.
    """
    expected = first_lsn
    while True:
        parsed = parse_batch(block_at, position)
        if parsed is None:
            return
        lsn, tagged, consumed = parsed
        if expected is not None and lsn != expected:
            return
        yield Batch(lsn, tagged, consumed)
        position += consumed
        expected = lsn + 1


class JournalError(Exception):
    """Invalid journal geometry, a batch that cannot fit the region, or
    an intact batch naming a home block the device does not have."""


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
        if length and length < 2:
            raise JournalError("journal region needs at least 2 blocks")
        self.start = start
        self.length = length
        self.block_size = block_size
        if length and block_size < _SEAL.size + _TAG.size + _CRC.size:
            raise JournalError(
                f"block size {block_size} too small for a journal descriptor"
            )

    def region_blocks(self) -> set[int]:
        """Every device block belonging to the journal region."""
        return set(range(self.start, self.start + self.length))

    def encode_batch(
        self, lsn: int, writes: Sequence[tuple[int, bytes]], position: int = 0, logical: bytes = b""
    ) -> list[tuple[int, bytes]]:
        """Lay one batch out as (block_no, bytes) pairs, ``position``
        blocks into the region."""
        if not (writes or logical):
            raise JournalError("refusing to encode an empty batch")
        needed = batch_blocks(self.block_size, len(logical), len(writes))
        if position + needed > self.length:
            raise JournalError(
                f"batch of {len(writes)} blocks and a {len(logical)}-byte "
                f"record needs {needed} journal blocks, region has "
                f"{self.length - position} of {self.length} left"
            )
        return encode_batch(self.start + position, lsn, writes, self.block_size, logical)

    def append_batch(
        self,
        device: BlockDevice,
        lsn: int,
        writes: Sequence[tuple[int, bytes]],
        position: int = 0,
        logical: bytes = b"",
    ) -> int:
        """Write one batch into the region as a single batched transfer.

        The log is only read back at mount, so its blocks give up their
        write-through places in the page cache at once.
        """
        encoded = self.encode_batch(lsn, writes, position, logical)
        device.write_blocks(encoded)
        device.drop_cached([block_no for block_no, __ in encoded])
        return len(encoded)

    def recover(
        self, device: BlockDevice, first_lsn: Optional[int] = None
    ) -> list[Batch]:
        """The log: every intact batch from the region start, in order.

        ``first_lsn`` is the LSN the batch at the region start must
        carry to be live (None: any).  A torn tail is discarded.
        """
        if self.length == 0:
            return []
        region_blocks = list(range(self.start, self.start + self.length))
        region = device.read_blocks(region_blocks)
        device.drop_cached(region_blocks)
        return list(
            walk_batches(
                lambda position: region[position] if position < self.length else None,
                0,
                first_lsn,
            )
        )

    def replay(self, device: BlockDevice, batches: Sequence[Batch]) -> int:
        """Re-apply the overwrites of ``batches`` to their home locations.

        Idempotent: a batch holds the post-image bytes verbatim, so
        replaying it any number of times converges on the same device
        state.  Returns the number of blocks applied.
        """
        writes: dict[int, bytes] = {}
        for batch in batches:
            for home, data in batch.physical:
                if (
                    not 0 <= home < device.total_blocks
                    or 0 <= home - self.start < self.length
                ):
                    raise JournalError(
                        f"batch {batch.lsn} names home block {home}, which "
                        "the device cannot hold"
                    )
                writes[home] = data
        if writes:
            device.write_blocks(sorted(writes.items()))
            device.barrier()
        return len(writes)


class JournalDevice(DeviceWrapper):
    """A block device whose writes stage in an ambient transaction.

    Every ``write_blocks`` lands in the open :class:`Transaction`
    instead of the device; reads merge staged content over the inner
    device; frees of already-durable blocks are deferred.  Nothing
    reaches the platter until :meth:`commit` runs the 4-phase protocol,
    so a crash at any point leaves the previous committed image — and a
    crash after phase 2 completes is rolled forward by mount-time
    recovery.  ``lsn`` and ``head`` are where the log continues: the
    next batch's LSN and its position in the region (1 and 0 on an
    empty log; the engine passes what its recovery found).
    """

    def __init__(
        self, inner: BlockDevice, journal: Journal, lsn: int = 1, head: int = 0
    ) -> None:
        super().__init__(inner)
        self.journal = journal
        self.txn = Transaction()
        self.lsn = lsn
        self.head = head
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
        self._g_log_used = registry.gauge("journal.log_used_blocks")
        self._g_log_used.set(head)
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
    def record_fits(self, logical_bytes: int) -> bool:
        """Whether the open epoch can be appended with a logical record
        of that size and still leave room for a checkpoint's batch.

        The reserve (one overwrite: the superblock flip) is what lets a
        full log always be truncated — the checkpoint's batch is
        appended like any other, because overwriting the log's start
        before the flip is durable could tear acknowledged records.
        """
        txn = self.txn
        overwrites = sum(1 for block_no in txn.staged if block_no not in txn.fresh)
        size = self.inner.block_size
        batch = batch_blocks(size, logical_bytes, overwrites) if logical_bytes or overwrites else 0
        return self.head + batch + batch_blocks(size, 0, 1) <= self.journal.length

    def commit(self, logical: bytes = b"", truncate: bool = False) -> int:
        """Publish the epoch durably; returns journal blocks written.

        Phases: direct write of fresh blocks; journal append of the
        ``logical`` record and the overwrites (with barrier); in-place
        apply (with barrier); deferred frees.  See the module docstring
        for why each phase is individually crash-safe.  ``truncate``
        declares that this epoch's overwrites supersede every record in
        the log (a checkpoint): the next batch starts the region over.
        """
        with self._commit_lock:
            written = self._commit_locked(logical, truncate)
            if self._ack_waiters:
                # Everything staged before this point is now durable —
                # including the case of an empty transaction, where an
                # earlier commit already published it.  ``lsn`` is the
                # *next* batch's, so the durable one is its predecessor.
                waiters, self._ack_waiters = self._ack_waiters, []
                durable_lsn = self.lsn - 1
                for callback in waiters:
                    callback(durable_lsn)
            return written

    def _commit_locked(self, logical: bytes, truncate: bool) -> int:
        txn = self.txn
        if txn.is_empty() and not logical:
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
            if overwrites or logical:
                with tracer.span("journal.phase.append") as span:
                    journal_blocks = self.journal.append_batch(
                        self.inner, self.lsn, overwrites, self.head, logical
                    )
                    span.set(blocks=journal_blocks)
                    self.inner.barrier()
                self.head += journal_blocks
                self.lsn += 1
            if overwrites:
                with tracer.span("journal.phase.apply", blocks=len(overwrites)):
                    self.inner.write_blocks(overwrites)
                    self.inner.barrier()
            if truncate:
                self.head = 0
            if txn.deferred:
                with tracer.span("journal.phase.frees", blocks=len(txn.deferred)):
                    for block_no in txn.deferred:
                        self.inner.free(block_no)
        self._c_commits.inc()
        self._c_journal_blocks.inc(journal_blocks)
        self._c_fresh_blocks.inc(len(direct))
        self._c_overwrite_blocks.inc(len(overwrites))
        self._c_deferred_frees.inc(len(txn.deferred))
        self._g_log_used.set(self.head)
        self.txn = Transaction()
        return journal_blocks
