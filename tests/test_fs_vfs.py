"""POSIX-semantics tests, parametrized over every file-system stack.

The baseline, CompressFS and every wrapper over it (session, tenant
namespace, the wire) must be observationally identical through the
VFS: that is what lets unmodified databases run on any of them.
"""

import pytest

from repro.storage.block_device import BlockDevice
from tests.conftest import FS_STACKS, build_fs_stack

from repro.fs import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    InvalidArgument,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    PermissionDenied,
    SEEK_CUR,
    SEEK_END,
)


class TestOpenFlags:
    def test_open_missing_without_creat_raises(self, any_fs):
        with pytest.raises(FileNotFound):
            any_fs.open("/missing")

    def test_o_creat_creates(self, any_fs):
        fd = any_fs.open("/new", O_RDWR | O_CREAT)
        any_fs.close(fd)
        assert any_fs.exists("/new")

    def test_o_excl_on_existing_raises(self, any_fs):
        any_fs.write_file("/f", b"x")
        with pytest.raises(FileExists):
            any_fs.open("/f", O_RDWR | O_CREAT | O_EXCL)

    def test_o_trunc_clears_content(self, any_fs):
        any_fs.write_file("/f", b"old content")
        fd = any_fs.open("/f", O_WRONLY | O_TRUNC)
        any_fs.close(fd)
        assert any_fs.stat("/f").size == 0

    def test_read_on_wronly_fd_raises(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f", O_WRONLY)
        with pytest.raises(PermissionDenied):
            any_fs.read(fd, 1)

    def test_write_on_rdonly_fd_raises(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f", O_RDONLY)
        with pytest.raises(PermissionDenied):
            any_fs.write(fd, b"y")

    def test_o_append_writes_at_end(self, any_fs):
        any_fs.write_file("/f", b"head")
        fd = any_fs.open("/f", O_WRONLY | O_APPEND)
        any_fs.write(fd, b"-tail")
        any_fs.close(fd)
        assert any_fs.read_file("/f") == b"head-tail"


class TestDescriptors:
    def test_read_advances_position(self, any_fs):
        any_fs.write_file("/f", b"abcdef")
        fd = any_fs.open("/f")
        assert any_fs.read(fd, 3) == b"abc"
        assert any_fs.read(fd, 3) == b"def"
        assert any_fs.read(fd, 3) == b""

    def test_write_advances_position(self, any_fs):
        fd = any_fs.open("/f", O_RDWR | O_CREAT)
        any_fs.write(fd, b"ab")
        any_fs.write(fd, b"cd")
        any_fs.close(fd)
        assert any_fs.read_file("/f") == b"abcd"

    def test_lseek_set_and_cur(self, any_fs):
        any_fs.write_file("/f", b"0123456789")
        fd = any_fs.open("/f")
        any_fs.lseek(fd, 4)
        assert any_fs.read(fd, 2) == b"45"
        any_fs.lseek(fd, -2, SEEK_CUR)
        assert any_fs.read(fd, 2) == b"45"

    def test_lseek_end(self, any_fs):
        any_fs.write_file("/f", b"0123456789")
        fd = any_fs.open("/f")
        any_fs.lseek(fd, -3, SEEK_END)
        assert any_fs.read(fd, 10) == b"789"

    def test_negative_seek_rejected(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f")
        with pytest.raises(InvalidArgument):
            any_fs.lseek(fd, -5)

    def test_closed_fd_rejected(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f")
        any_fs.close(fd)
        with pytest.raises(BadFileDescriptor):
            any_fs.read(fd, 1)

    def test_pread_pwrite_do_not_move_position(self, any_fs):
        any_fs.write_file("/f", b"0123456789")
        fd = any_fs.open("/f", O_RDWR)
        assert any_fs.pread(fd, 3, 5) == b"567"
        any_fs.pwrite(fd, b"XX", 0)
        assert any_fs.read(fd, 4) == b"XX23"

    def test_fd_reuse_after_close(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f")
        any_fs.close(fd)
        assert any_fs.open("/f") == fd


class TestFileOps:
    def test_stat(self, any_fs):
        any_fs.write_file("/f", b"x" * 100)
        stat = any_fs.stat("/f")
        assert stat.size == 100
        assert stat.blocks == -(-100 // any_fs.block_size)

    def test_stat_missing_raises(self, any_fs):
        with pytest.raises(FileNotFound):
            any_fs.stat("/missing")

    def test_unlink(self, any_fs):
        any_fs.write_file("/f", b"x")
        any_fs.unlink("/f")
        assert not any_fs.exists("/f")

    def test_unlink_missing_raises(self, any_fs):
        with pytest.raises(FileNotFound):
            any_fs.unlink("/missing")

    def test_listdir_prefix(self, any_fs):
        for path in ("/a/1", "/a/2", "/b/1"):
            any_fs.write_file(path, b"")
        assert any_fs.listdir("/a/") == ["/a/1", "/a/2"]

    def test_rename(self, any_fs):
        any_fs.write_file("/old", b"content")
        any_fs.rename("/old", "/new")
        assert not any_fs.exists("/old")
        assert any_fs.read_file("/new") == b"content"

    def test_truncate_grow_and_shrink(self, any_fs):
        any_fs.write_file("/f", b"abcdef")
        any_fs.truncate("/f", 3)
        assert any_fs.read_file("/f") == b"abc"
        any_fs.truncate("/f", 6)
        assert any_fs.read_file("/f") == b"abc\x00\x00\x00"

    def test_truncate_then_grow_reads_zeros_midblock(self, any_fs):
        payload = b"q" * (any_fs.block_size + 10)
        any_fs.write_file("/f", payload)
        any_fs.truncate("/f", any_fs.block_size - 5)
        any_fs.append_file("/f", b"zz")
        data = any_fs.read_file("/f")
        assert data == payload[: any_fs.block_size - 5] + b"zz"

    def test_sparse_write(self, any_fs):
        fd = any_fs.open("/f", O_RDWR | O_CREAT)
        any_fs.pwrite(fd, b"end", any_fs.block_size * 2)
        data = any_fs.read_file("/f")
        assert data == b"\x00" * (any_fs.block_size * 2) + b"end"

    def test_fsync_validates_fd(self, any_fs):
        any_fs.write_file("/f", b"x")
        fd = any_fs.open("/f")
        any_fs.fsync(fd)
        any_fs.close(fd)
        with pytest.raises(BadFileDescriptor):
            any_fs.fsync(fd)


class TestAccounting:
    def test_logical_bytes(self, any_fs):
        any_fs.write_file("/a", b"x" * 10)
        any_fs.write_file("/b", b"y" * 20)
        assert any_fs.logical_bytes() == 30

    def test_compressfs_dedups_passthrough_does_not(
        self, compress_fs, passthrough_fs
    ):
        block = b"R" * 64
        for fs in (compress_fs, passthrough_fs):
            fs.write_file("/a", block * 8)
        assert compress_fs.physical_bytes() == 64
        assert passthrough_fs.physical_bytes() == 64 * 8


class TestWrappersHoldNoDevice:
    @pytest.mark.parametrize("kind", FS_STACKS[2:])
    def test_only_the_storage_owner_builds_a_device(self, kind, monkeypatch):
        built = []
        init = BlockDevice.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BlockDevice, "__init__", counting_init)
        fs = build_fs_stack(kind)
        assert len(built) == 1  # the CompressFS at the bottom, none per wrapper
        assert fs.block_size == built[0].block_size == 64


class TestUnlinkBusy:
    def test_unlink_with_open_descriptor_rejected(self, any_fs):
        from repro.fs import IsBusy

        any_fs.write_file("/f", b"held open")
        fd = any_fs.open("/f")
        with pytest.raises(IsBusy):
            any_fs.unlink("/f")
        any_fs.close(fd)
        any_fs.unlink("/f")
        assert not any_fs.exists("/f")

    def test_open_count_tracks_descriptors(self, any_fs):
        any_fs.write_file("/f", b"x")
        first = any_fs.open("/f")
        second = any_fs.open("/f")
        assert any_fs._fds.open_count("/f") == 2
        assert any_fs._fds.open_fds() == [first, second]
        any_fs.close(first)
        assert any_fs._fds.open_count("/f") == 1
        any_fs.close(second)


class TestZeroLengthWrites:
    def test_empty_pwrite_beyond_eof_is_noop(self, any_fs):
        """POSIX: write(fd, "", 0) changes nothing, even past EOF."""
        any_fs.write_file("/f", b"ab")
        fd = any_fs.open("/f", O_RDWR)
        assert any_fs.pwrite(fd, b"", 100) == 0
        assert any_fs.stat("/f").size == 2

    def test_empty_write_on_empty_file(self, any_fs):
        any_fs.write_file("/f", b"")
        fd = any_fs.open("/f", O_RDWR)
        any_fs.pwrite(fd, b"", 5)
        assert any_fs.read_file("/f") == b""
