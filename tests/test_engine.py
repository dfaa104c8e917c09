"""Unit tests for the CompressDB engine facade."""

import random

import pytest

from repro.core.engine import CompressDB
from repro.fs.errors import FileExists, FileNotFound
from repro.fs.sessionfs import SessionFS
from repro.storage.inode import Inode


class TestNamespace:
    def test_create_and_exists(self, engine):
        engine.create("/a")
        assert engine.exists("/a")
        assert not engine.exists("/b")

    def test_create_duplicate_raises(self, engine):
        engine.create("/a")
        with pytest.raises(FileExists):
            engine.create("/a")

    def test_unlink(self, engine):
        engine.create("/a")
        engine.unlink("/a")
        assert not engine.exists("/a")

    def test_unlink_missing_raises(self, engine):
        with pytest.raises(FileNotFound):
            engine.unlink("/missing")

    def test_unlink_releases_blocks(self, engine):
        engine.create("/a")
        engine.ops.append("/a", b"x" * 300)
        assert engine.physical_data_blocks() > 0
        engine.unlink("/a")
        assert engine.physical_data_blocks() == 0

    def test_rename(self, engine):
        engine.create("/a")
        engine.ops.append("/a", b"payload")
        engine.rename("/a", "/b")
        assert not engine.exists("/a")
        assert engine.read_file("/b") == b"payload"

    def test_rename_over_existing_replaces(self, engine):
        engine.write_file("/a", b"a" * 300)
        engine.write_file("/b", b"b" * 900)
        engine.write("/b", 900, b"buffered tail")  # dies with the target
        engine.rename("/a", "/b")
        assert engine.list_files() == ["/b"]
        assert engine.read_file("/b") == b"a" * 300
        engine.rename("/b", "/b")  # onto itself: nothing to do
        assert engine.read_file("/b") == b"a" * 300
        with pytest.raises(FileNotFound):
            engine.rename("/missing", "/missing")
        engine.check_invariants()
        engine.unlink("/b")
        assert engine.physical_data_blocks() == 0  # the target's blocks were released

    def test_list_files_with_prefix(self, engine):
        for path in ("/x/1", "/x/2", "/y/1"):
            engine.create(path)
        assert engine.list_files("/x/") == ["/x/1", "/x/2"]


class TestPosixReadWrite:
    def test_write_then_read(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"hello world")
        assert engine.read("/f", 0, 100) == b"hello world"

    def test_overwrite_middle(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"aaaaaaaaaa")
        engine.write("/f", 3, b"BBB")
        assert engine.read_file("/f") == b"aaaBBBaaaa"

    def test_write_past_end_extends(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"ab")
        engine.write("/f", 5, b"cd")
        assert engine.read_file("/f") == b"ab\x00\x00\x00cd"

    def test_read_past_end_is_short(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"abc")
        assert engine.read("/f", 2, 100) == b"c"
        assert engine.read("/f", 3, 100) == b""

    def test_write_spanning_many_blocks(self, engine):
        engine.create("/f")
        payload = bytes(range(256)) * 4  # 1024 bytes over 64-byte blocks
        engine.write("/f", 0, payload)
        assert engine.read_file("/f") == payload
        engine.check_invariants()

    def test_truncate_shrink(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"0123456789")
        engine.truncate("/f", 4)
        assert engine.read_file("/f") == b"0123"

    def test_truncate_grow_zero_fills(self, engine):
        engine.create("/f")
        engine.write("/f", 0, b"ab")
        engine.truncate("/f", 5)
        assert engine.read_file("/f") == b"ab\x00\x00\x00"

    def test_write_file_replaces(self, engine):
        engine.write_file("/f", b"first")
        engine.write_file("/f", b"second")
        assert engine.read_file("/f") == b"second"


class TestSpaceAccounting:
    def test_dedup_across_files(self, engine):
        block = b"R" * engine.block_size
        engine.write_file("/a", block * 4)
        engine.write_file("/b", block * 4)
        assert engine.physical_data_blocks() == 1
        assert engine.compression_ratio() == pytest.approx(8.0)

    def test_ratio_of_unique_data_is_about_one(self, engine):
        payload = bytes(range(256))[: engine.block_size]
        engine.write_file("/a", payload)
        assert engine.compression_ratio() == pytest.approx(1.0)

    def test_empty_engine_ratio_is_one(self, engine):
        assert engine.compression_ratio() == 1.0

    def test_memory_report_keys(self, engine):
        engine.write_file("/a", b"data" * 50)
        report = engine.memory_report()
        assert report["blockHashTable_bytes"] > 0
        assert report["total_bytes"] >= report["blockHole_bytes"]


class TestRemount:
    def test_remount_preserves_data(self, engine):
        engine.write_file("/a", b"survives remount " * 20)
        engine.ops.insert("/a", 5, b"HOLE!")  # create holes + shared blocks
        before = engine.read_file("/a")
        scanned = engine.remount()
        assert scanned == engine.physical_data_blocks()
        assert engine.read_file("/a") == before
        engine.check_invariants()

    def test_remount_rebuilds_dedup_lookup(self, engine):
        block = b"Z" * engine.block_size
        engine.write_file("/a", block)
        engine.remount()
        engine.write_file("/b", block)
        assert engine.physical_data_blocks() == 1

    def test_operations_work_after_remount(self, engine):
        engine.write_file("/a", b"before remount")
        engine.remount()
        engine.ops.append("/a", b" and after")
        assert engine.read_file("/a") == b"before remount and after"
        engine.check_invariants()


class TestInvariantChecker:
    def test_detects_refcount_corruption(self, engine):
        engine.write_file("/a", b"x" * 100)
        block = engine.inode("/a").slot_at(0).block_no
        engine.refcount.set(block, 99)
        with pytest.raises(AssertionError):
            engine.check_invariants()

    def test_clean_engine_passes(self, engine):
        for i in range(5):
            engine.write_file(f"/f{i}", b"common content " * 10)
        engine.check_invariants()


class TestReflinkCopy:
    def test_copy_shares_all_blocks(self, engine):
        engine.write_file("/src", bytes(range(256)))
        blocks_before = engine.physical_data_blocks()
        writes_before = engine.device.stats.snapshot().block_writes
        engine.copy_file("/src", "/dst")
        assert engine.read_file("/dst") == bytes(range(256))
        assert engine.physical_data_blocks() == blocks_before
        assert engine.device.stats.snapshot().block_writes == writes_before  # zero data I/O
        engine.check_invariants()

    def test_copies_diverge_on_write(self, engine):
        engine.write_file("/src", b"shared content " * 20)
        engine.copy_file("/src", "/dst")
        engine.ops.replace("/dst", 0, b"CHANGED")
        assert engine.read_file("/src").startswith(b"shared ")
        assert engine.read_file("/dst").startswith(b"CHANGED")
        engine.check_invariants()

    def test_copy_preserves_holes(self, engine):
        engine.write_file("/src", b"x" * 200)
        engine.ops.insert("/src", 10, b"hole-maker")
        engine.copy_file("/src", "/dst")
        assert engine.read_file("/dst") == engine.read_file("/src")
        assert engine.inode("/dst").hole_bytes == engine.inode("/src").hole_bytes

    def test_copy_over_existing_rejected(self, engine):
        engine.write_file("/src", b"a")
        engine.write_file("/dst", b"b")
        with pytest.raises(FileExists):
            engine.copy_file("/src", "/dst")

    def test_unlink_original_keeps_copy(self, engine):
        engine.write_file("/src", b"survives " * 30)
        engine.copy_file("/src", "/dst")
        engine.unlink("/src")
        assert engine.read_file("/dst") == b"survives " * 30
        engine.check_invariants()


def _image(engine):
    """Everything a clone may change: bytes, slot tables, refcounts and
    hash-table records."""
    engine.sync()
    return (
        {path: engine.read_file(path) for path in engine.list_files()},
        {
            path: [(slot.block_no, slot.used) for slot in engine.inode(path).iter_slots()]
            for path in engine.list_files()
        },
        dict(engine.refcount._counts),
        dict(engine.hashtable._block_hash),
    )


def _clean(engine):
    report = engine.fsck(repair=False)
    assert sum(n for key, n in report.items() if key != "index_entries") == 0
    engine.check_invariants()


class TestCloneRange:
    """The oracle: a clone is indistinguishable from writing the same
    bytes at the end of ``dst`` (every block a dedup hit)."""

    BLOCK = 64

    def _pair(self, source, prefix):
        engines = []
        for __ in range(2):
            engine = CompressDB(block_size=self.BLOCK, page_capacity=4)
            engine.write_file("/src", source)
            engine.write_file("/dst", prefix)
            engines.append(engine)
        return engines

    @pytest.mark.parametrize("seed", range(12))
    def test_clone_equals_write(self, seed):
        rng = random.Random(seed)
        blocks = rng.randrange(1, 12)
        # A two-letter alphabet repeats blocks within and across files.
        source = bytes(rng.choice(b"ab") for __ in range(blocks * self.BLOCK))
        source += b"t" * rng.randrange(0, self.BLOCK)
        prefix = bytes(rng.choice(b"ab") for __ in range(rng.randrange(0, 4) * self.BLOCK))
        cloned, written = self._pair(source, prefix)
        first = rng.randrange(blocks + 1) * self.BLOCK
        end = rng.choice([rng.randrange(first // self.BLOCK, blocks + 1) * self.BLOCK, len(source)])
        assert cloned.clone_range("/src", first, "/dst", len(prefix), end - first)
        written.write("/dst", len(prefix), source[first:end])
        assert cloned.read_file("/dst") == prefix + source[first:end]
        assert _image(cloned) == _image(written)
        _clean(cloned)

    def test_clone_reads_and_writes_no_data(self, engine):
        engine.write_file("/src", bytes(range(256)))
        engine.write_file("/dst", b"")
        before = engine.device.stats.snapshot()
        assert engine.clone_range("/src", 64, "/dst", 0, 128)
        after = engine.device.stats.snapshot()
        assert (after.block_reads, after.block_writes) == (before.block_reads, before.block_writes)
        counters = engine.metrics()
        assert counters.counter("engine.clone.blocks") == 2
        assert counters.counter("engine.clone.refused") == 0

    def test_clone_onto_itself(self, engine):
        engine.write_file("/f", b"x" * 64 + b"y" * 64)
        assert engine.clone_range("/f", 0, "/f", 128, 128)
        assert engine.read_file("/f") == (b"x" * 64 + b"y" * 64) * 2
        _clean(engine)

    @pytest.mark.parametrize(
        "src_off, dst_off_delta, length, dst",
        [
            (10, 0, 54, b"d" * 64),  # unaligned start
            (0, 0, 74, b"d" * 64),  # end mid-slot
            (0, -64, 64, b"d" * 128),  # dst_off before the end
            (0, 1, 64, b"d" * 64),  # dst_off past the end
            (0, 0, 64, b"d" * 100),  # dst's last slot is partial
            (64, 0, 512, b""),  # span past the end of src
            (64, 0, -64, b""),  # negative length
        ],
    )
    def test_refusals_change_nothing(self, engine, src_off, dst_off_delta, length, dst):
        engine.write_file("/src", bytes(range(256)))
        engine.write_file("/dst", dst)
        before = _image(engine)
        assert not engine.clone_range("/src", src_off, "/dst", len(dst) + dst_off_delta, length)
        assert _image(engine) == before
        assert engine.metrics().counter("engine.clone.refused") == 1
        _clean(engine)

    def test_snapshot_and_session_views_refuse(self, compress_fs):
        engine = compress_fs.engine
        compress_fs.write_file("/src", bytes(range(256)))
        compress_fs.write_file("/dst", b"")
        engine.snapshots.create("s1")
        before = _image(engine)
        assert not compress_fs._clone_range("/.snap/s1/src", 0, "/dst", 0, 64)
        assert not compress_fs._clone_range("/src", 0, "/.snap/s1/dst", 0, 64)
        view = SessionFS(compress_fs, engine.mvcc.begin())
        assert not view._clone_range("/src", 0, "/dst", 0, 64)
        assert _image(engine) == before
        assert compress_fs._clone_range("/src", 0, "/dst", 0, 64)

    def test_failed_clone_restores_dst_and_counts(self, engine, monkeypatch):
        engine.write_file("/src", bytes(range(256)))
        engine.write_file("/dst", b"d" * 64)
        before = _image(engine)
        original = engine.refcount.incref
        calls = []

        def flaky(block_no):
            calls.append(block_no)
            if len(calls) == 3:
                raise RuntimeError("simulated mid-clone failure")
            return original(block_no)

        monkeypatch.setattr(engine.refcount, "incref", flaky)
        with pytest.raises(RuntimeError):
            engine.clone_range("/src", 0, "/dst", 64, 256)
        monkeypatch.undo()
        assert _image(engine) == before
        _clean(engine)

    def test_failed_copy_file_leaks_nothing_and_publishes_no_dst(self, engine, monkeypatch):
        engine.write_file("/src", bytes(range(256)))
        before = _image(engine)
        original = Inode.append_slot

        def flaky(inode, slot):
            if inode.num_slots == 2:
                raise RuntimeError("simulated mid-copy failure")
            return original(inode, slot)

        monkeypatch.setattr(Inode, "append_slot", flaky)
        with pytest.raises(RuntimeError):
            engine.copy_file("/src", "/dst")
        monkeypatch.undo()
        assert not engine.exists("/dst")
        assert _image(engine) == before
        _clean(engine)


class TestDescribe:
    def test_describe_fields(self, engine):
        engine.write_file("/f", b"x" * 300)
        engine.ops.insert("/f", 10, b"hole")
        info = engine.describe("/f")
        assert info["size"] == 304
        assert info["depth"] == 2
        assert info["hole_slots"] >= 1
        assert info["slots"] >= info["distinct_blocks"]

    def test_describe_empty_file(self, engine):
        engine.create("/empty")
        info = engine.describe("/empty")
        assert info["size"] == 0 and info["slots"] == 0 and info["depth"] == 1
