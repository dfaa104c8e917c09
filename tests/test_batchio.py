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
from repro.databases.minicolumn import MiniColumn
from repro.distributed.chunkserver import ChunkServer
from repro.fs import CompressFS, fd as fdmod
from repro.fs.errors import FileNotFound
from repro.storage.block_device import BlockDeviceError, MemoryBlockDevice
from repro.storage.simclock import HDD_5400RPM, SimClock
from repro.storage.stats import IOStatsSnapshot

from .conftest import build_fs_stack


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
        vectored = compress_fs._preadv([("/f", o, s) for o, s in spans])
        looped = [compress_fs._pread("/f", o, s) for o, s in spans]
        assert vectored == looped

    def test_descriptor_preadv_and_pwritev(self, compress_fs):
        fd = compress_fs.open("/f", fdmod.O_RDWR | fdmod.O_CREAT)
        compress_fs.pwritev(fd, [(0, b"abc"), (3, b"def")])
        assert compress_fs.preadv(fd, [(0, 6), (3, 3)]) == [b"abcdef", b"def"]
        compress_fs.close(fd)

    @pytest.mark.parametrize("kind", ["passthrough", "compress", "session", "namespace"])
    def test_cross_file_preadv_matches_pread_loop(self, kind):
        fs = build_fs_stack(kind)
        shared = bytes(range(256)) * 2
        model = {"/a": shared, "/b": shared + b"b-tail", "/c": b"c" * 100 + b"pending"}
        fs.write_file("/a", model["/a"])
        fs.write_file("/b", model["/b"])  # dedups with /a block for block
        fs.write_file("/c", b"c" * 100)
        fs._pwrite("/c", 100, b"pending")  # an end-of-file append: coalesced
        if kind == "compress":
            assert "/c" in fs.engine._pending
        requests = [
            ("/a", 0, 70),
            ("/b", 60, 300),
            ("/c", 90, 40),
            ("/a", 500, 0),  # zero-length
            ("/b", 400, 1000),  # short read at end of file
            ("/c", 4096, 8),  # past end of file
            ("/a", 5, 3),
        ]
        vectored = fs._preadv(requests)
        assert vectored == [model[p][o : o + n] for p, o, n in requests]
        assert vectored == [fs._pread(p, o, n) for p, o, n in requests]

    def test_preadv_mixes_live_and_snapshot_paths(self, compress_fs):
        compress_fs.write_file("/f", b"old" * 50)
        compress_fs.engine.snapshots.create("s")
        compress_fs.write_file("/f", b"new" * 50)
        requests = [("/f", 0, 6), ("/.snap/s/f", 0, 6), ("/f", 147, 9), ("/.snap/s/f", 3, 0)]
        vectored = compress_fs._preadv(requests)
        assert vectored == [b"newnew", b"oldold", b"new", b""]
        assert vectored == [compress_fs._pread(p, o, n) for p, o, n in requests]
        with pytest.raises(FileNotFound):
            compress_fs._preadv([("/f", 0, 1), ("/.snap/missing/f", 0, 1)])

    def test_missing_file_raises_without_side_effects(self, compress_fs):
        compress_fs.write_file("/a", b"a" * 300)
        compress_fs._pwrite("/a", 300, b"pending")
        engine = compress_fs.engine
        engine.device.stats.reset()
        with pytest.raises(FileNotFound):
            compress_fs._preadv([("/a", 0, 10), ("/missing", 0, 10)])
        assert engine.device.stats.snapshot() == IOStatsSnapshot()
        assert bytes(engine._pending["/a"]) == b"pending"

    def test_four_column_scan_group_is_one_device_transaction(self):
        fs = CompressFS(MemoryBlockDevice(block_size=4096, cache_blocks=64))
        db = MiniColumn(fs)
        db.execute("CREATE TABLE t (ts INT, grp INT, val INT, fee INT)")
        names = ["ts", "grp", "val", "fee"]
        for start in range(0, 400, 100):
            db.table("t").insert_rows(
                [
                    {"ts": i, "grp": i % 7, "val": i * 3, "fee": i * 37 % 101}
                    for i in range(start, start + 100)
                ]
            )
        fs.engine.sync()  # commit the coalesced appends
        device = fs.engine.device
        device.drop_cached(range(device.total_blocks))
        # Warm the metadata (block directories, deletion mask) only.
        for name in names:
            fs.read_file(f"/columndb/t/{name}.seg")
        fs.read_file("/columndb/t/_deleted.bm")
        device.stats.reset()
        blocks = list(db.table("t").scan_vector_blocks(names))
        assert [(start, count) for start, count, __, __ in blocks] == [
            (start, 100) for start in range(0, 400, 100)
        ]
        stats = device.stats.snapshot()
        assert stats.batched_reads == 1
        assert stats.block_reads == stats.batched_blocks_read >= len(names)

    def test_chunkserver_readv_across_chunks_is_one_device_transaction(self):
        server = ChunkServer("n0", clock=SimClock(), block_size=64)
        contents = {"c1": bytes(range(200)), "c2": bytes(range(255, 55, -1))}
        for chunk_id, data in contents.items():
            server.create_chunk(chunk_id)
            server.write(chunk_id, 0, data)
        server.fs.engine.sync()  # commit the coalesced appends
        device = server.fs.device
        device.drop_cached(range(device.total_blocks))
        device.stats.reset()
        requests = [("c1", 10, 100), ("c2", 0, 150), ("c1", 150, 50)]
        assert server.readv(requests) == [contents[c][o : o + n] for c, o, n in requests]
        stats = device.stats.snapshot()
        assert stats.batched_reads == 1
        assert stats.block_reads == stats.batched_blocks_read


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
    vectored = engine.readv([("/f", offset, size) for offset, size in spans])
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
