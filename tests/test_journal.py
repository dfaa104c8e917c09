"""Unit tests for the write-ahead journal (repro.storage.journal).

Covers the record format round trip, torn-tail detection in
:meth:`Journal.recover`, replay idempotency, the staged-transaction
semantics of :class:`JournalDevice`, the 4-phase commit's write
ordering, and the append log: batches land at the head with
consecutive LSNs, the shared walker stops at the first torn or stale
one, and a truncating commit starts the region over.
"""

import pytest

from repro.storage.journal import (
    LOGICAL_TAG,
    Journal,
    JournalDevice,
    JournalError,
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


class TestJournalFormat:
    def test_round_trip_single_write(self):
        device, journal = make_device()
        home = data_start(journal)
        journal.append_batch(device, lsn=1, writes=[(home, b"payload")])
        (batch,) = journal.recover(device)
        assert batch.lsn == 1 and batch.blocks == 3
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

    def test_blocks_needed_accounts_for_descriptors_and_commit(self):
        __, journal = make_device()
        per_desc = (BLOCK - 20) // 12
        assert journal.blocks_needed(1) == 1 + 1 + 1
        assert journal.blocks_needed(per_desc) == per_desc + 1 + 1
        assert journal.blocks_needed(per_desc + 1) == per_desc + 1 + 2 + 1

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
        """The batch layout is persisted bytes (and the Raft log's too):
        three tags fit a 64-byte descriptor, so four writes spill into a
        second group.  Literals recorded from the commit before the
        journal and the Raft log shared one codec."""
        writes = [(20, b"alpha"), (21, b"beta" * 4), (33, bytes(range(64))), (40, b"")]
        encoded = Journal(1, 16, 64).encode_batch(7, writes)
        assert [(no, data.hex()) for no, data in encoded] == [
            (1, "314a4244543435040700000000000000030000001400000000000000554a1d0a"
                "1500000000000000dd5e76c621000000000000008cce0e10"),
            (2, b"alpha".hex() + "00" * 59),
            (3, (b"beta" * 4).hex() + "00" * 48),
            (4, bytes(range(64)).hex()),
            (5, "314a424454343504070000000000000001000000280000000000000036638d75"),
            (6, "00" * 64),
            (7, "314a4244434d4d540700000000000000040000008d1a4bc4"),
        ]


class TestTornBatches:
    def _committed(self, journal_len=8):
        device, journal = make_device(journal_len=journal_len)
        base = data_start(journal)
        journal.append_batch(device, 3, [(base, b"aaa"), (base + 1, b"bbb")])
        return device, journal

    def test_missing_commit_block_discards_batch(self):
        device, journal = self._committed()
        encoded = journal.encode_batch(3, [(data_start(journal), b"x")])
        # Rewrite the region with everything except the commit block.
        device.write_blocks(encoded[:-1])
        device.write_blocks(
            [(encoded[-1][0], b"\x00" * BLOCK)]
        )
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

    @pytest.mark.parametrize("victim", ["descriptor", "data", "commit"])
    def test_one_flipped_byte_discards_batch(self, victim):
        device, journal = self._committed()
        block_no = journal.start + {"descriptor": 0, "data": 2, "commit": 3}[victim]
        raw = bytearray(device.read_block(block_no))
        raw[9] ^= 0x01  # inside the LSN of a record, the payload of a data block
        device.write_blocks([(block_no, bytes(raw))])
        assert journal.recover(device) == []

    def test_commit_lsn_mismatch_discards_batch(self):
        device, journal = self._committed()
        # Append a new batch's descriptor+data over the old one but keep
        # the old commit block: the LSNs disagree, so nothing recovers.
        encoded = journal.encode_batch(9, [(data_start(journal), b"new")])
        device.write_blocks(encoded[:-1])
        assert journal.recover(device) == []

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
        assert journal_blocks == 3  # descriptor + data + commit
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
            assert dev.commit() == 3
        assert dev.head == 9 and dev.lsn == 4
        log = journal.recover(inner)
        assert [(batch.lsn, batch.blocks) for batch in log] == [(1, 3), (2, 3), (3, 3)]
        assert [batch.physical[0][1][:5].rstrip(b"\x00") for batch in log] == [
            b"one", b"two", b"three",
        ]
        assert inner.obs.registry.snapshot().gauge("journal.log_used_blocks") == 9

    def test_logical_record_rides_under_the_reserved_tag(self):
        dev, inner, journal = self._journaled()
        record = bytes(range(200))  # two 128-byte blocks
        assert dev.commit(logical=record) == 1 + 2 + 1
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
        # Tear the commit record of the second batch (region blocks 3..5).
        inner.write_blocks([(journal.start + 5, b"\xff" * BLOCK)])
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
        dev.commit(truncate=True)  # LSN 3, appended at block 6, then head = 0
        assert dev.head == 0 and dev.lsn == 4
        assert [batch.lsn for batch in journal.recover(inner)] == [1, 2, 3]
        assert journal.recover(inner, first_lsn=4) == []
        dev.write_blocks([(home, b"next")])
        dev.commit()  # LSN 4 overwrites stale batch 1; stale 2 and 3 follow it
        assert [batch.lsn for batch in journal.recover(inner, first_lsn=4)] == [4]
        assert [batch.lsn for batch in journal.recover(inner)] == [4]

    def test_record_fits_keeps_room_for_a_checkpoint(self):
        dev, __, journal = self._journaled(journal_len=9)
        # head 0: a four-block record (6 blocks) + the reserve (3) fit 9.
        assert dev.record_fits(4 * BLOCK) and not dev.record_fits(4 * BLOCK + 1)
        dev.commit(logical=b"x")
        assert dev.head == 3 and dev.record_fits(1)
        dev.commit(logical=b"y")
        assert dev.head == 6 and not dev.record_fits(1)
        # ...but the reserve holds the checkpoint's own batch.
        dev.write_blocks([(data_start(journal), b"superblock")])
        assert dev.commit(truncate=True) == 3 and dev.head == 0

    def test_minimum_region_never_fits_a_record(self):
        dev, __, __ = self._journaled(journal_len=3)
        assert not dev.record_fits(1)

    def test_batch_beyond_the_region_end_is_rejected(self):
        dev, __, journal = self._journaled(journal_len=4)
        dev.commit(logical=b"x")  # 3 of 4 blocks used
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
