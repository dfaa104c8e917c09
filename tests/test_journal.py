"""Unit tests for the write-ahead journal (repro.storage.journal).

Covers the record format round trip (the sealed layout, and the
legacy descriptor/commit layout older images carry), torn-tail
detection in :meth:`Journal.recover`, replay idempotency, the staged-transaction
semantics of :class:`JournalDevice`, the 4-phase commit's write
ordering, and the append log: batches land at the head with
consecutive LSNs, the shared walker stops at the first torn or stale
one, and a truncating commit starts the region over.
"""

import struct
import zlib

import pytest

from repro.storage.journal import (
    COMMIT_MAGIC,
    LOGICAL_TAG,
    Journal,
    JournalDevice,
    JournalError,
    batch_blocks,
)
from repro.storage.block_device import (
    BlockDeviceError,
    MemoryBlockDevice,
)

BLOCK = 128


def make_device(journal_len=8, data_blocks=16):
    """A device with a journal region at [1, 1+journal_len) and some data."""
    device = MemoryBlockDevice(block_size=BLOCK)
    for __ in range(1 + journal_len + data_blocks):
        device.allocate()
    journal = Journal(start=1, length=journal_len, block_size=BLOCK)
    return device, journal


def data_start(journal):
    return journal.start + journal.length


#: A batch as the descriptor/commit layout wrote it (64-byte blocks,
#: region at block 1): three tags fit a descriptor, so four writes spill
#: into a second group, then the commit block.  v3/v4 images and logs
#: from older v5 writers carry this layout.
LEGACY_WRITES = [(20, b"alpha"), (21, b"beta" * 4), (33, bytes(range(64))), (40, b"")]
LEGACY_BATCH = [
    (1, "314a4244543435040700000000000000030000001400000000000000554a1d0a"
        "1500000000000000dd5e76c621000000000000008cce0e10"),
    (2, b"alpha".hex() + "00" * 59),
    (3, (b"beta" * 4).hex() + "00" * 48),
    (4, bytes(range(64)).hex()),
    (5, "314a424454343504070000000000000001000000280000000000000036638d75"),
    (6, "00" * 64),
    (7, "314a4244434d4d540700000000000000040000008d1a4bc4"),
]


def legacy_device():
    """A 64-byte-block device holding :data:`LEGACY_BATCH` in its region."""
    device = MemoryBlockDevice(block_size=64)
    for __ in range(48):
        device.allocate()
    device.write_blocks([(no, bytes.fromhex(data)) for no, data in LEGACY_BATCH])
    return device, Journal(1, 16, 64)


class TestJournalFormat:
    def test_round_trip_single_write(self):
        device, journal = make_device()
        home = data_start(journal)
        journal.append_batch(device, lsn=1, writes=[(home, b"payload")])
        (batch,) = journal.recover(device)
        assert batch.lsn == 1 and batch.blocks == 2  # descriptor + data
        assert batch.tagged == [(home, b"payload" + b"\x00" * (BLOCK - 7))]
        assert batch.physical == batch.tagged and batch.logical == b""

    def test_round_trip_multiple_descriptor_groups(self):
        device, journal = make_device(journal_len=32, data_blocks=24)
        base = data_start(journal)
        batch = [(base + i, bytes([i]) * 10) for i in range(20)]
        journal.append_batch(device, lsn=7, writes=batch)
        ((lsn, writes, __),) = journal.recover(device)
        assert lsn == 7
        assert [home for home, __ in writes] == [base + i for i in range(20)]
        for (__, data), i in zip(writes, range(20)):
            assert data == bytes([i]) * 10 + b"\x00" * (BLOCK - 10)

    def test_batch_blocks_counts_descriptors_and_spilled_records(self):
        room = BLOCK - 25 - 4  # descriptor header and its CRC
        per_desc = room // 12
        assert batch_blocks(BLOCK, 0, 1) == 2  # a checkpoint's flip
        assert batch_blocks(BLOCK, 35, 0) == 1  # a small fsync's record
        assert batch_blocks(BLOCK, room, 0) == 1
        assert batch_blocks(BLOCK, room + 1, 0) == 1 + 1  # spills whole
        assert batch_blocks(BLOCK, 0, per_desc) == per_desc + 1
        assert batch_blocks(BLOCK, 0, per_desc + 1) == per_desc + 1 + 2
        assert batch_blocks(BLOCK, room, 1) == 1 + 1 + 1  # no tag room left

    def test_batch_blocks_is_exact(self):
        for logical_len in (0, 1, 35, 50, 98, 99, 100, 128, 129, 300):
            for n_writes in range(20):
                if not (logical_len or n_writes):
                    continue
                writes = [(1000 + i, b"w") for i in range(n_writes)]
                encoded = Journal(1, 64, BLOCK).encode_batch(
                    3, writes, logical=b"r" * logical_len
                )
                assert len(encoded) == batch_blocks(BLOCK, logical_len, n_writes)

    def test_oversized_batch_rejected(self):
        device, journal = make_device(journal_len=4)
        base = data_start(journal)
        writes = [(base + i, b"x") for i in range(10)]
        with pytest.raises(JournalError):
            journal.append_batch(device, 1, writes)

    def test_empty_batch_rejected(self):
        device, journal = make_device()
        with pytest.raises(JournalError):
            journal.append_batch(device, 1, [])

    def test_empty_region_recovers_nothing(self):
        device, journal = make_device()
        assert journal.recover(device) == []
        assert journal.replay(device, []) == 0

    def test_first_lsn_selects_the_live_log(self):
        """The batch at the region start is live only if it carries the
        expected LSN (None: any) — how a checkpoint retires the log."""
        device, journal = make_device()
        journal.append_batch(device, 5, [(data_start(journal), b"x")])
        assert [batch.lsn for batch in journal.recover(device)] == [5]
        assert [batch.lsn for batch in journal.recover(device, 5)] == [5]
        assert journal.recover(device, 6) == []

    def test_batch_bytes_are_frozen(self):
        """The sealed layout is persisted bytes.  A record alone is one
        block: header (n_tags 0, inline_len 5, last 1), the record, the
        CRC.  With overwrites, the record shares the first descriptor
        with two tags, and the third spills into a second group."""
        (only,) = Journal(1, 16, 64).encode_batch(7, [], logical=b"delta")
        assert only == (1, bytes.fromhex(
            "314a42445345414c07000000000000000000000005000000" "01"
            + b"delta".hex() + "71761bdd"
        ))
        writes = LEGACY_WRITES[:3]
        encoded = Journal(1, 16, 64).encode_batch(7, writes, logical=b"rec")
        assert [(no, data.hex()) for no, data in encoded] == [
            (1, "314a42445345414c0700000000000000020000000300000000"
                "1400000000000000554a1d0a1500000000000000dd5e76c6" "726563" "cfee5e56"),
            (2, b"alpha".hex() + "00" * 59),
            (3, (b"beta" * 4).hex() + "00" * 48),
            (4, "314a42445345414c0700000000000000010000000000000001"
                "21000000000000008cce0e10" "43e16eee"),
            (5, bytes(range(64)).hex()),
        ]

    def test_legacy_batch_bytes_still_parse(self):
        """Literals the descriptor/commit encoder wrote, read back."""
        device, journal = legacy_device()
        (batch,) = journal.recover(device)
        assert (batch.lsn, batch.blocks, batch.logical) == (7, 7, b"")
        assert batch.physical == [
            (home, data + b"\x00" * (64 - len(data))) for home, data in LEGACY_WRITES
        ]


class TestTornBatches:
    def _committed(self, journal_len=8):
        """One sealed batch: descriptor (two tags, a 12-byte inline
        record), then the two data blocks."""
        device, journal = make_device(journal_len=journal_len)
        base = data_start(journal)
        journal.append_batch(
            device, 3, [(base, b"aaa"), (base + 1, b"bbb")], logical=b"what changed"
        )
        return device, journal

    def test_missing_commit_block_discards_batch(self):
        device, journal = legacy_device()
        device.write_blocks([(LEGACY_BATCH[-1][0], b"\x00" * 64)])
        assert journal.recover(device) == []

    def test_corrupt_data_block_discards_batch(self):
        device, journal = self._committed()
        # The first data block of the batch sits right after the descriptor.
        corrupt = journal.start + 1
        device.write_blocks([(corrupt, b"garbage")])
        assert journal.recover(device) == []

    def test_corrupt_descriptor_discards_batch(self):
        device, journal = self._committed()
        device.write_blocks([(journal.start, b"\xff" * BLOCK)])
        assert journal.recover(device) == []

    @pytest.mark.parametrize("victim", ["descriptor", "data", "commit", "tag", "inline"])
    def test_one_flipped_byte_discards_batch(self, victim):
        """The descriptor's CRC covers its header (the LSN; ``last``,
        which stands in for the commit record), its tags and the inline
        record; a data block has its tag's CRC."""
        device, journal = self._committed()
        block, offset = {
            "descriptor": (0, 9),
            "data": (2, 9),
            "commit": (0, 24),
            "tag": (0, 30),
            "inline": (0, 52),
        }[victim]
        raw = bytearray(device.read_block(journal.start + block))
        raw[offset] ^= 0x01
        device.write_blocks([(journal.start + block, bytes(raw))])
        assert journal.recover(device) == []

    def test_commit_lsn_mismatch_discards_batch(self):
        device, journal = legacy_device()
        commit = struct.pack("<QQI", COMMIT_MAGIC, 9, 4)
        device.write_blocks([(7, commit + struct.pack("<I", zlib.crc32(commit)))])
        assert journal.recover(device) == []

    def test_two_group_batch_missing_its_last_group_discards_batch(self):
        device, journal = make_device(journal_len=16)
        writes = [(data_start(journal) + i, b"w%d" % i) for i in range(10)]
        encoded = journal.encode_batch(3, writes)
        assert len(encoded) == 1 + 8 + 1 + 2  # two groups
        device.write_blocks(encoded[:9])  # the first group only
        assert journal.recover(device) == []

    def test_stale_last_group_from_an_older_lsn_discards_batch(self):
        """A crash between the groups of batch 9 leaves batch 3's intact,
        sealed second group behind the first: the LSN chain rejects it."""
        device, journal = make_device(journal_len=16)
        writes = [(data_start(journal) + i, b"w%d" % i) for i in range(10)]
        device.write_blocks(journal.encode_batch(3, writes))
        newer = journal.encode_batch(9, [(home, b"new") for home, __ in writes])
        device.write_blocks(newer[:9])
        assert journal.recover(device) == []
        device.write_blocks(newer[9:])
        assert [batch.lsn for batch in journal.recover(device)] == [9]

    def test_replay_applies_committed_writes(self):
        device, journal = self._committed()
        base = data_start(journal)
        device.write_blocks([(base, b"stale"), (base + 1, b"stale")])
        assert journal.replay(device, journal.recover(device)) == 2
        assert device.read_block(base)[:3] == b"aaa"
        assert device.read_block(base + 1)[:3] == b"bbb"

    def test_replay_twice_is_a_noop(self):
        device, journal = self._committed()
        assert journal.replay(device, journal.recover(device)) == 2
        first = [device.read_block(i) for i in range(device.total_blocks)]
        assert journal.replay(device, journal.recover(device)) == 2
        second = [device.read_block(i) for i in range(device.total_blocks)]
        assert first == second


class TestJournalDevice:
    def _journaled(self):
        inner, journal = make_device()
        return JournalDevice(inner, journal), inner, journal

    def test_writes_stage_until_commit(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.write_blocks([(home, b"staged")])
        assert inner.read_block(home)[:6] != b"staged"
        assert dev.read_block(home)[:6] == b"staged"  # read-your-writes
        dev.commit()
        assert inner.read_block(home)[:6] == b"staged"

    def test_fresh_blocks_bypass_journal(self):
        dev, inner, journal = self._journaled()
        fresh = dev.allocate()
        assert dev.can_overwrite_in_place(fresh)
        dev.write_blocks([(fresh, b"direct")])
        dev.commit()
        # A fresh-only epoch writes no journal records.
        assert journal.recover(inner) == [] and dev.head == 0 and dev.lsn == 1
        assert inner.read_block(fresh)[:6] == b"direct"

    def test_overwrites_go_through_journal(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.write_blocks([(home, b"logged")])
        journal_blocks = dev.commit()
        assert journal_blocks == 2  # the sealed descriptor + data
        (batch,) = journal.recover(inner)
        assert batch.physical[0][0] == home

    def test_fresh_set_resets_at_commit(self):
        dev, __, __ = self._journaled()
        fresh = dev.allocate()
        dev.write_blocks([(fresh, b"v1")])
        dev.commit()
        # Same block in the next epoch is part of the committed image.
        assert not dev.can_overwrite_in_place(fresh)

    def test_free_of_fresh_block_is_immediate(self):
        dev, inner, __ = self._journaled()
        fresh = dev.allocate()
        dev.write_blocks([(fresh, b"temp")])
        dev.free(fresh)
        assert dev.txn.is_empty()
        assert inner.allocate() == fresh  # immediately reusable

    def test_free_of_durable_block_is_deferred(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.free(home)
        assert home in dev.txn.deferred
        with pytest.raises(BlockDeviceError):
            dev.free(home)  # double free caught while deferred

    def test_freeing_journal_region_rejected(self):
        dev, __, journal = self._journaled()
        with pytest.raises(BlockDeviceError):
            dev.free(journal.start)

    def test_read_blocks_merges_staged_and_device(self):
        dev, inner, journal = self._journaled()
        a, b = data_start(journal), data_start(journal) + 1
        inner.write_blocks([(a, b"old-a"), (b, b"old-b")])
        dev.write_blocks([(b, b"new-b")])
        got = dev.read_blocks([a, b, b, a])
        assert got[0][:5] == b"old-a"
        assert got[1][:5] == b"new-b"
        assert got[2][:5] == b"new-b"
        assert got[3][:5] == b"old-a"

    def test_oversized_write_rejected(self):
        dev, __, journal = self._journaled()
        with pytest.raises(BlockDeviceError):
            dev.write_blocks([(data_start(journal), b"x" * (BLOCK + 1))])

    def test_commit_of_empty_transaction_is_noop(self):
        dev, inner, __ = self._journaled()
        before = [inner.read_block(i) for i in range(inner.total_blocks)]
        assert dev.commit() == 0
        after = [inner.read_block(i) for i in range(inner.total_blocks)]
        assert before == after

    def test_lsn_advances_per_commit(self):
        dev, __, journal = self._journaled()
        home = data_start(journal)
        assert dev.lsn == 1
        dev.write_blocks([(home, b"one")])
        dev.commit()
        dev.write_blocks([(home, b"two")])
        dev.commit()
        assert dev.lsn == 3
        assert [batch.lsn for batch in journal.recover(dev.inner)] == [1, 2]


class TestAppendLog:
    """The region is a log: batches append at the head, LSN-consecutive."""

    def _journaled(self, journal_len=16):
        inner, journal = make_device(journal_len=journal_len)
        return JournalDevice(inner, journal), inner, journal

    def test_batches_append_at_the_head(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        for value in (b"one", b"two", b"three"):
            dev.write_blocks([(home, value)])
            assert dev.commit() == 2
        assert dev.head == 6 and dev.lsn == 4
        log = journal.recover(inner)
        assert [(batch.lsn, batch.blocks) for batch in log] == [(1, 2), (2, 2), (3, 2)]
        assert [batch.physical[0][1][:5].rstrip(b"\x00") for batch in log] == [
            b"one", b"two", b"three",
        ]
        assert inner.obs.registry.snapshot().gauge("journal.log_used_blocks") == 6

    def test_small_record_commits_as_one_block(self):
        """A small fsync's delta record rides inline: one journal block."""
        dev, inner, journal = self._journaled()
        record = bytes(range(35))
        assert dev.commit(logical=record) == 1 and dev.head == 1
        (batch,) = journal.recover(inner)
        assert batch.blocks == 1 and batch.logical == record
        assert batch.tagged == [(LOGICAL_TAG, record)] and batch.physical == []
        assert inner.obs.registry.snapshot().counter("journal.blocks_written") == 1

    def test_logical_record_rides_under_the_reserved_tag(self):
        dev, inner, journal = self._journaled()
        record = bytes(range(200))  # too big to inline: two 128-byte blocks
        assert dev.commit(logical=record) == 1 + 2
        (batch,) = journal.recover(inner)
        assert [tag for tag, __ in batch.tagged] == [LOGICAL_TAG, LOGICAL_TAG]
        assert batch.physical == []
        assert batch.logical == record + b"\x00" * (2 * BLOCK - len(record))
        # Nothing was applied anywhere: a logical record has no home.
        assert journal.replay(inner, [batch]) == 0

    def test_logical_and_physical_share_one_batch(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        dev.write_blocks([(home, b"image")])
        dev.commit(logical=b"what changed")
        (batch,) = journal.recover(inner)
        assert batch.logical.rstrip(b"\x00") == b"what changed"
        assert batch.physical == [(home, b"image" + b"\x00" * (BLOCK - 5))]
        assert inner.read_block(home)[:5] == b"image"

    def test_walk_stops_at_a_torn_batch_and_keeps_the_prefix(self):
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        for value in (b"a", b"b", b"c"):
            dev.write_blocks([(home, value)])
            dev.commit()
        # Tear the sealed descriptor of the second batch (region blocks 2..3).
        inner.write_blocks([(journal.start + 2, b"\xff" * BLOCK)])
        assert [batch.lsn for batch in journal.recover(inner)] == [1]

    def test_walk_stops_at_a_stale_batch(self):
        """A truncating commit restarts the region; what the previous
        trip left beyond the new head carries LSNs that never match."""
        dev, inner, journal = self._journaled()
        home = data_start(journal)
        for value in (b"a", b"b"):
            dev.write_blocks([(home, value)])
            dev.commit()
        dev.write_blocks([(home, b"flip")])
        dev.commit(truncate=True)  # LSN 3, appended at block 4, then head = 0
        assert dev.head == 0 and dev.lsn == 4
        assert [batch.lsn for batch in journal.recover(inner)] == [1, 2, 3]
        assert journal.recover(inner, first_lsn=4) == []
        dev.write_blocks([(home, b"next")])
        dev.commit()  # LSN 4 overwrites stale batch 1; stale 2 and 3 follow it
        assert [batch.lsn for batch in journal.recover(inner, first_lsn=4)] == [4]
        assert [batch.lsn for batch in journal.recover(inner)] == [4]

    def test_record_fits_keeps_room_for_a_checkpoint(self):
        dev, __, journal = self._journaled(journal_len=5)
        # head 0: a two-block record (3 blocks) + the reserve (2) fit 5.
        assert dev.record_fits(2 * BLOCK) and not dev.record_fits(2 * BLOCK + 1)
        dev.commit(logical=b"x")
        assert dev.head == 1 and dev.record_fits(1)
        dev.commit(logical=b"y")
        assert dev.head == 2 and dev.record_fits(1)
        dev.commit(logical=b"z")
        assert dev.head == 3 and not dev.record_fits(1)
        # ...but the reserve holds the checkpoint's own batch.
        dev.write_blocks([(data_start(journal), b"superblock")])
        assert dev.commit(truncate=True) == 2 and dev.head == 0

    def test_minimum_region_never_fits_a_record(self):
        """Two blocks hold only the checkpoint's flip; a third holds one
        small record first."""
        dev, __, __ = self._journaled(journal_len=2)
        assert not dev.record_fits(1)
        dev, __, __ = self._journaled(journal_len=3)
        assert dev.record_fits(1)
        dev.commit(logical=b"x")
        assert not dev.record_fits(1)
        with pytest.raises(JournalError):
            Journal(start=1, length=1, block_size=BLOCK)

    def test_batch_beyond_the_region_end_is_rejected(self):
        dev, __, journal = self._journaled(journal_len=2)
        dev.commit(logical=b"x")  # 1 of 2 blocks used
        dev.write_blocks([(data_start(journal), b"late")])
        with pytest.raises(JournalError):
            dev.commit()

    def test_replay_rejects_an_impossible_home(self):
        device, journal = make_device()
        journal.append_batch(device, 1, [(journal.start + 2, b"into the region")])
        with pytest.raises(JournalError):
            journal.replay(device, journal.recover(device))
        device, journal = make_device()
        journal.append_batch(device, 1, [(10_000, b"past the device")])
        with pytest.raises(JournalError):
            journal.replay(device, journal.recover(device))
