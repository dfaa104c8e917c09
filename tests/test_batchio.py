"""Batched scatter-gather I/O: device, compressor, engine, and VFS layers.

Covers the vectored fast path end to end:

* ``BlockDevice.read_blocks`` / ``write_blocks`` semantics, stats, and
  the one-seek-per-batch cost model;
* the page-cache recency regression (a rewrite must move a cached
  block to MRU, not leave it in its old position);
* ``Compressor.store_many`` / ``commit_many`` intra-batch dedup;
* the engine's write-coalescing buffer and its flush triggers;
* a Hypothesis property: batched reads/writes are byte-identical to
  loops of single-block operations — including over hole-bearing
  blocks — with identical compression ratios and clean invariants.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import CompressDB
from repro.fs import fd as fdmod
from repro.storage.block_device import BlockDeviceError, MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM, SimClock


class TestReadBlocks:
    def test_preserves_request_order_and_duplicates(self, device):
        blocks = [device.allocate() for __ in range(3)]
        for index, block in enumerate(blocks):
            device.write_block(block, bytes([index]) * device.block_size)
        request = [blocks[2], blocks[0], blocks[2], blocks[1]]
        result = device.read_blocks(request)
        assert result == [
            b"\x02" * 64,
            b"\x00" * 64,
            b"\x02" * 64,
            b"\x01" * 64,
        ]

    def test_batch_counts_once_in_batched_stats(self, device):
        blocks = [device.allocate() for __ in range(4)]
        device.stats.reset()
        device.read_blocks(blocks)
        assert device.stats.snapshot().batched_reads == 1
        assert device.stats.snapshot().batched_blocks_read == 4
        assert device.stats.snapshot().block_reads == 4

    def test_single_block_read_is_not_batched(self, device):
        block = device.allocate()
        device.stats.reset()
        device.read_blocks([block])
        assert device.stats.snapshot().batched_reads == 0
        assert device.stats.snapshot().block_reads == 1

    def test_duplicate_misses_are_fetched_once(self, device):
        block = device.allocate()
        device.stats.reset()
        device.read_blocks([block, block, block])
        assert device.stats.snapshot().block_reads == 1

    def test_invalid_block_in_batch_raises(self, device):
        block = device.allocate()
        device.stats.reset()
        with pytest.raises(BlockDeviceError):
            device.read_blocks([block, block + 7])
        assert device.stats.snapshot().block_reads == 0  # validated before any transfer

    def test_batch_pays_one_seek(self):
        clock = SimClock()
        device = MemoryBlockDevice(
            block_size=1024, profile=HDD_5400RPM, clock=clock
        )
        blocks = [device.allocate() for __ in range(16)]
        before = clock.now
        device.read_blocks(blocks)
        batched = clock.now - before
        expected = HDD_5400RPM.read_cost(16 * 1024)
        assert batched == pytest.approx(expected)
        # The equivalent loop pays ~16 seeks, an order of magnitude more.
        before = clock.now
        for block in blocks:
            device.read_block(block)
        looped = clock.now - before
        assert looped > 10 * batched


class TestWriteBlocks:
    def test_roundtrip_and_padding(self, device):
        blocks = [device.allocate() for __ in range(2)]
        device.write_blocks([(blocks[0], b"ab"), (blocks[1], b"c" * 64)])
        assert device.read_block(blocks[0]) == b"ab" + b"\x00" * 62
        assert device.read_block(blocks[1]) == b"c" * 64

    def test_batch_counts_once_in_batched_stats(self, device):
        blocks = [device.allocate() for __ in range(3)]
        device.stats.reset()
        device.write_blocks([(block, b"x") for block in blocks])
        assert device.stats.snapshot().batched_writes == 1
        assert device.stats.snapshot().batched_blocks_written == 3
        assert device.stats.snapshot().block_writes == 3

    def test_oversized_write_rejected_before_any_byte_lands(self, device):
        blocks = [device.allocate() for __ in range(2)]
        with pytest.raises(BlockDeviceError):
            device.write_blocks([(blocks[0], b"y"), (blocks[1], b"z" * 65)])
        assert device.read_block(blocks[0]) == b"\x00" * 64


class TestCachePutRecency:
    """Regression: rewriting a cached block must refresh its recency."""

    def _device(self) -> MemoryBlockDevice:
        return MemoryBlockDevice(block_size=64, cache_blocks=2)

    def test_rewrite_moves_block_to_mru(self):
        device = self._device()
        a, b, c = (device.allocate() for __ in range(3))
        device.write_block(a, b"a")  # cache: [a]
        device.write_block(b, b"b")  # cache: [a, b]
        device.write_block(a, b"A")  # rewrite must make order [b, a]
        device.write_block(c, b"c")  # evicts b (LRU), not a
        hits_before = device.cache_hits
        misses_before = device.cache_misses
        device.read_block(a)
        assert device.cache_hits == hits_before + 1
        device.read_block(b)
        assert device.cache_misses == misses_before + 1

    def test_rewrite_updates_cached_bytes(self):
        device = self._device()
        a = device.allocate()
        device.write_block(a, b"old")
        device.write_block(a, b"new")
        assert device.read_block(a).rstrip(b"\x00") == b"new"

    def test_batched_read_warms_cache_like_a_loop(self):
        device = self._device()
        blocks = [device.allocate() for __ in range(2)]
        device._cache.clear()
        device.read_blocks(blocks)
        hits_before = device.cache_hits
        device.read_blocks(blocks)
        assert device.cache_hits == hits_before + 2


class TestStoreMany:
    def test_intra_batch_duplicates_share_one_block(self, engine):
        slots = engine.compressor.store_many(
            [(b"same" * 16, 64), (b"same" * 16, 64), (b"diff" * 16, 64)]
        )
        assert slots[0].block_no == slots[1].block_no
        assert slots[2].block_no != slots[0].block_no
        assert engine.compressor.stats.snapshot()["dedup_hits"] == 1
        assert engine.compressor.stats.snapshot()["fresh_allocations"] == 2

    def test_batch_matches_existing_blocks(self, engine):
        engine.create("/f")
        engine.ops.append("/f", b"same" * 16)
        before = engine.physical_data_blocks()
        slots = engine.compressor.store_many([(b"same" * 16, 64)])
        assert engine.refcount.get(slots[0].block_no) == 2
        assert engine.physical_data_blocks() == before
        for slot in slots:
            engine.compressor.release(slot)

    def test_hashtable_consistent_after_batch(self, engine):
        engine.create("/f")
        engine.ops.append("/f", bytes(range(64)) * 4)
        engine.check_invariants()


class TestCommitMany:
    def test_mixed_batch_preserves_algorithm_one(self, engine):
        engine.create("/a")
        engine.create("/b")
        engine.ops.append("/a", b"x" * 128)  # two blocks
        engine.ops.append("/b", b"x" * 64)  # shares block content with /a
        inode = engine.inode("/a")
        # Slot 0 is shared (refcount 2) -> CoW; slot 1 -> in-place.
        engine.compressor.commit_many(
            inode, [(0, b"p" * 64, 64), (1, b"q" * 64, 64)]
        )
        assert engine.read("/a", 0, 128) == b"p" * 64 + b"q" * 64
        assert engine.read("/b", 0, 64) == b"x" * 64
        engine.check_invariants()

    def test_intra_batch_duplicates_converge(self, engine):
        engine.create("/f")
        engine.ops.append("/f", bytes(range(64)) + bytes(range(64, 128)))
        inode = engine.inode("/f")
        engine.compressor.commit_many(
            inode, [(0, b"z" * 64, 64), (1, b"z" * 64, 64)]
        )
        slots = list(inode.iter_slots())
        assert slots[0].block_no == slots[1].block_no
        assert engine.refcount.get(slots[0].block_no) == 2
        engine.check_invariants()


class TestWriteCoalescing:
    def _engine(self, **kwargs) -> CompressDB:
        return CompressDB(block_size=64, page_capacity=4, **kwargs)

    def test_sequential_appends_commit_as_one_batch(self):
        engine = self._engine(coalesce_blocks=4)
        engine.create("/f")
        engine.device.stats.reset()
        for i in range(4):
            engine.write("/f", i * 64, bytes([i]) * 64)
        # The fourth write crosses the 4-block threshold: one batch.
        assert engine.device.stats.snapshot().batched_writes == 1
        assert engine.device.stats.snapshot().batched_blocks_written == 4
        assert engine.read("/f", 0, 256) == b"".join(
            bytes([i]) * 64 for i in range(4)
        )

    def test_file_size_counts_pending_without_flushing(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"hello")
        writes_before = engine.device.stats.snapshot().block_writes
        assert engine.file_size("/f") == 5
        assert engine.device.stats.snapshot().block_writes == writes_before

    def test_read_observes_pending_appends(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"hello ")
        engine.write("/f", 6, b"world")
        assert engine.read("/f", 0, 11) == b"hello world"

    def test_backward_write_flushes_then_overwrites(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"aaaa")
        engine.write("/f", 0, b"bb")
        assert engine.read("/f", 0, 4) == b"bbaa"

    def test_gap_write_zero_fills(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"a")
        engine.write("/f", 5, b"b")
        assert engine.read("/f", 0, 6) == b"a\x00\x00\x00\x00b"

    def test_unlink_discards_pending(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"doomed")
        engine.unlink("/f")
        assert not engine.exists("/f")
        engine.check_invariants()

    def test_rename_carries_pending(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"moved")
        engine.rename("/f", "/g")
        assert engine.read("/g", 0, 5) == b"moved"

    def test_sync_commits_pending(self):
        engine = self._engine()
        engine.create("/f")
        engine.write("/f", 0, b"durable")
        engine.sync("/f")
        assert engine.inode("/f").size == 7

    def test_disabled_coalescing_writes_through(self):
        engine = self._engine(coalesce_writes=False)
        engine.create("/f")
        engine.write("/f", 0, b"direct")
        assert engine.inode("/f").size == 6


class TestVectoredVFS:
    def test_preadv_matches_pread_loop(self, compress_fs):
        compress_fs.write_file("/f", bytes(range(256)) * 3)
        spans = [(0, 10), (60, 70), (700, 200), (5, 0)]
        vectored = compress_fs._preadv("/f", spans)
        looped = [compress_fs._pread("/f", o, s) for o, s in spans]
        assert vectored == looped

    def test_descriptor_preadv_and_pwritev(self, compress_fs):
        fd = compress_fs.open("/f", fdmod.O_RDWR | fdmod.O_CREAT)
        compress_fs.pwritev(fd, [(0, b"abc"), (3, b"def")])
        assert compress_fs.preadv(fd, [(0, 6), (3, 3)]) == [b"abcdef", b"def"]
        compress_fs.close(fd)


# -- property: batched == per-block, holes included -------------------------

_spans = st.lists(
    st.tuples(st.integers(0, 600), st.integers(0, 300)), min_size=1, max_size=8
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 500), st.binary(min_size=1, max_size=180)),
        st.tuples(st.just("insert"), st.floats(0, 1), st.binary(min_size=1, max_size=100)),
        st.tuples(st.just("delete"), st.floats(0, 1), st.floats(0, 1)),
    ),
    min_size=1,
    max_size=12,
)


def _apply(engine: CompressDB, reference: bytearray, op) -> None:
    kind = op[0]
    if kind == "write":
        __, offset, data = op
        offset = min(offset, len(reference))
        engine.write("/f", offset, data)
        if offset > len(reference):
            reference.extend(b"\x00" * (offset - len(reference)))
        reference[offset : offset + len(data)] = data
    elif kind == "insert":
        __, position, data = op
        offset = int(position * len(reference))
        engine.ops.insert("/f", offset, data)
        reference[offset:offset] = data
    else:
        __, position, fraction = op
        offset = int(position * len(reference))
        length = int(fraction * (len(reference) - offset))
        engine.ops.delete("/f", offset, length)
        del reference[offset : offset + length]


@settings(max_examples=40, deadline=None)
@given(ops=_ops, spans=_spans)
def test_batched_reads_match_single_block_loop(ops, spans):
    """readv == loop of read over a hole-bearing file (inserts/deletes)."""
    engine = CompressDB(block_size=64, page_capacity=4)
    engine.create("/f")
    reference = bytearray()
    for op in ops:
        _apply(engine, reference, op)
    vectored = engine.readv("/f", spans)
    looped = [engine.read("/f", offset, size) for offset, size in spans]
    assert vectored == looped
    for (offset, size), data in zip(spans, vectored):
        expected = bytes(reference[offset : offset + size])
        assert data == expected
    engine.check_invariants()


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_coalesced_writes_match_write_through(ops):
    """The same op sequence with and without coalescing is byte-identical
    and compresses identically (same blocks, same dedup decisions)."""
    batched = CompressDB(block_size=64, page_capacity=4)
    direct = CompressDB(block_size=64, page_capacity=4, coalesce_writes=False)
    for engine in (batched, direct):
        engine.create("/f")
    reference = bytearray()
    for op in ops:
        shadow = bytearray(reference)
        _apply(batched, reference, op)
        _apply(direct, shadow, op)
        assert shadow == reference
    assert batched.read_file("/f") == direct.read_file("/f")
    assert batched.read_file("/f") == bytes(reference)
    assert batched.compression_ratio() == direct.compression_ratio()
    assert batched.physical_data_blocks() == direct.physical_data_blocks()
    for engine in (batched, direct):
        engine.check_invariants()
        report = engine.fsck()
        assert report["refcounts_fixed"] == 0
        assert report["blocks_reclaimed"] == 0
