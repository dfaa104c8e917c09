"""Edge-path tests across modules: corners the main suites skip."""

import pytest

from repro.core.engine import CompressDB
from repro.core.operations import OperationError
from repro.fs import CompressFS, FileNotFound, InvalidArgument, PassthroughFS
from repro.fs.overlay_lz4 import CompressedOverlayFS
from repro.storage.inode import Inode, Slot


class TestEngineEdges:
    def test_ops_on_missing_file_raise(self, engine):
        with pytest.raises(FileNotFound):
            engine.read("/missing", 0, 1)
        with pytest.raises(FileNotFound):
            engine.write("/missing", 0, b"x")
        with pytest.raises(FileNotFound):
            engine.ops.insert("/missing", 0, b"x")

    def test_write_negative_offset(self, engine):
        engine.create("/f")
        with pytest.raises(InvalidArgument):
            engine.write("/f", -1, b"x")

    def test_truncate_negative(self, engine):
        engine.create("/f")
        with pytest.raises(InvalidArgument):
            engine.truncate("/f", -1)

    def test_extract_zero_from_empty_file(self, engine):
        engine.create("/f")
        assert engine.ops.extract("/f", 0, 0) == b""
        assert engine.ops.extract("/f", 0, 10) == b""

    def test_search_empty_file(self, engine):
        engine.create("/f")
        assert engine.ops.search("/f", b"x") == []
        assert engine.ops.count("/f", b"x") == 0

    def test_replace_empty_data_is_noop(self, engine):
        engine.write_file("/f", b"abc")
        engine.ops.replace("/f", 1, b"")
        assert engine.read_file("/f") == b"abc"

    def test_delete_at_exact_eof_boundary(self, engine):
        engine.write_file("/f", b"x" * engine.block_size * 2)
        engine.ops.delete("/f", engine.block_size, engine.block_size)
        assert engine.file_size("/f") == engine.block_size
        engine.check_invariants()

    def test_insert_at_every_position_of_small_file(self, engine):
        base = b"ABCDEF"
        for position in range(len(base) + 1):
            path = f"/f{position}"
            engine.write_file(path, base)
            engine.ops.insert(path, position, b"++")
            expected = base[:position] + b"++" + base[position:]
            assert engine.read_file(path) == expected
        engine.check_invariants()

    def test_operation_error_is_not_engine_corruption(self, engine):
        engine.write_file("/f", b"data")
        with pytest.raises(OperationError):
            engine.ops.delete("/f", 2, 100)
        assert engine.read_file("/f") == b"data"
        engine.check_invariants()


class TestInodeEdges:
    def test_offset_of_last_slot_boundary(self):
        inode = Inode(block_size=16, page_capacity=2)
        inode.append_slot(Slot(block_no=0, used=5))
        assert inode.offset_of_slot(1) == 5  # one past the last slot

    def test_iter_from_beyond_end_is_empty(self):
        inode = Inode(block_size=16, page_capacity=2)
        inode.append_slot(Slot(block_no=0, used=5))
        assert list(inode.iter_slots(5)) == []


class TestOverlayEdges:
    def test_rename_through_default_path(self):
        overlay = CompressedOverlayFS(PassthroughFS(block_size=64), segment_bytes=128)
        overlay.write_file("/old", b"renamed content " * 20)
        overlay.rename("/old", "/new")
        assert not overlay.exists("/old")
        assert overlay.read_file("/new") == b"renamed content " * 20

    def test_read_missing_raises(self):
        overlay = CompressedOverlayFS(PassthroughFS(block_size=64))
        with pytest.raises(FileNotFound):
            overlay.read_file("/nope")

    def test_zero_length_file(self):
        overlay = CompressedOverlayFS(PassthroughFS(block_size=64))
        overlay.write_file("/empty", b"")
        assert overlay.read_file("/empty") == b""
        assert overlay.stat("/empty").size == 0


class TestFileSystemEdges:
    @pytest.mark.parametrize("cls", [PassthroughFS, CompressFS])
    def test_stat_block_counts(self, cls):
        fs = cls(block_size=64)
        fs.write_file("/f", b"x" * 65)
        assert fs.stat("/f").blocks == 2
        fs.write_file("/g", b"")
        assert fs.stat("/g").blocks == 0

    def test_write_file_shrinks_previous_content(self):
        fs = CompressFS(block_size=64)
        fs.write_file("/f", b"a much longer piece of content than the next")
        fs.write_file("/f", b"tiny")
        assert fs.read_file("/f") == b"tiny"
        fs.engine.check_invariants()

    def test_many_tiny_files(self):
        fs = CompressFS(block_size=64)
        for i in range(200):
            fs.write_file(f"/tiny/{i:03d}", b"%03d" % i)
        assert len(fs.listdir("/tiny/")) == 200
        assert fs.read_file("/tiny/123") == b"123"
        fs.engine.check_invariants()


class TestSuperblockEdges:
    def test_remount_empty_formatted_device(self):
        from repro.storage.block_device import MemoryBlockDevice

        device = MemoryBlockDevice(block_size=128)
        engine = CompressDB.mount(device)
        engine.flush()
        remounted = CompressDB.mount(device)
        assert remounted.list_files() == []

    def test_flush_without_format_only_persists_refcounts(self):
        engine = CompressDB(block_size=128)  # plain engine, not mounted
        engine.write_file("/f", b"x" * 300)
        engine.flush()  # must not raise even though no superblock exists
        assert engine.refcount.partition_block_count >= 1
