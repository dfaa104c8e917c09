"""Tests for full on-device persistence (superblock + metadata chain)."""

import random

import pytest

from repro.core import superblock as sb
from repro.core.engine import CompressDB
from repro.storage.block_device import FileBlockDevice, MemoryBlockDevice
from tests.conftest import mutate


@pytest.fixture
def image_path(tmp_path):
    return str(tmp_path / "compressdb.img")


def fresh_engine(path, block_size=256):
    device = FileBlockDevice(path, block_size=block_size)
    return CompressDB.mount(device)


class TestChain:
    def test_roundtrip_small_payload(self):
        device = MemoryBlockDevice(block_size=64)
        head, written = sb.write_chain(device, b"tiny")
        payload, blocks = sb.read_chain(device, head)
        assert payload == b"tiny"
        assert blocks == written and len(blocks) == 1

    def test_roundtrip_multi_block_payload(self):
        device = MemoryBlockDevice(block_size=64)
        data = bytes(range(256)) * 4
        head, written = sb.write_chain(device, data)
        payload, blocks = sb.read_chain(device, head)
        assert payload == data
        assert blocks == written and len(blocks) > 1

    def test_empty_payload(self):
        device = MemoryBlockDevice(block_size=64)
        head, written = sb.write_chain(device, b"")
        payload, blocks = sb.read_chain(device, head)
        assert payload == b""
        assert blocks == written and len(blocks) == 1


class TestMetadataImage:
    def test_mutated_image_fails_only_with_persistence_error(self):
        """3,000 seeded flip/truncate/extend mutations of a real metadata
        image: each decodes or raises PersistenceError — no IndexError,
        UnicodeDecodeError or InodeError reaches mount()."""
        device = MemoryBlockDevice(block_size=256)
        engine = CompressDB.mount(device)
        for index in range(6):
            engine.write_file(f"/dir/fïle-{index}", bytes([index]) * (100 + 90 * index))
        engine.fsync()
        payload, __ = sb.read_chain(device, sb.read_layout(device).meta_head)
        inodes, partition = sb.deserialize_metadata(payload, 256, 8, device)
        assert sorted(inodes) == sorted(engine.list_files())
        rng = random.Random(20260928)
        rejected = 0
        for __ in range(3000):
            try:
                sb.deserialize_metadata(mutate(rng, payload), 256, 8, device)
            except sb.PersistenceError:
                rejected += 1
        assert rejected > 300  # the mutations do reach the failure paths


class TestSuperblock:
    def test_format_and_detect(self):
        device = MemoryBlockDevice(block_size=64)
        assert not sb.is_formatted(device)
        sb.format_device(device)
        assert sb.is_formatted(device)
        assert sb.read_superblock(device) == sb.NO_BLOCK

    def test_unformatted_device_rejected(self):
        device = MemoryBlockDevice(block_size=64)
        with pytest.raises(sb.PersistenceError):
            sb.read_superblock(device)

    def test_mount_refuses_foreign_data(self):
        device = MemoryBlockDevice(block_size=64)
        block = device.allocate()
        device.write_block(block, b"not a superblock")
        with pytest.raises(sb.PersistenceError):
            CompressDB.mount(device)


class TestMountCycle:
    def test_data_survives_process_boundary(self, image_path):
        engine = fresh_engine(image_path)
        engine.write_file("/doc", b"persistent content " * 30)
        engine.ops.insert("/doc", 5, b"[holes]")
        expected = engine.read_file("/doc")
        engine.flush()
        engine.device.close()  # type: ignore[attr-defined]

        reopened = fresh_engine(image_path)
        assert reopened.read_file("/doc") == expected
        reopened.check_invariants()

    def test_namespace_survives(self, image_path):
        engine = fresh_engine(image_path)
        for i in range(10):
            engine.write_file(f"/dir/file{i}", b"x" * i)
        engine.flush()
        engine.device.close()  # type: ignore[attr-defined]
        reopened = fresh_engine(image_path)
        assert reopened.list_files() == [f"/dir/file{i}" for i in range(10)]
        assert reopened.file_size("/dir/file7") == 7

    def test_dedup_survives(self, image_path):
        engine = fresh_engine(image_path)
        block = b"D" * 256
        engine.write_file("/a", block * 8)
        engine.flush()
        engine.device.close()  # type: ignore[attr-defined]
        reopened = fresh_engine(image_path)
        assert reopened.physical_data_blocks() == 1
        # New identical writes dedup against the restored index.
        reopened.write_file("/b", block * 8)
        assert reopened.physical_data_blocks() == 1
        reopened.check_invariants()

    def test_free_list_reconstruction(self, image_path):
        engine = fresh_engine(image_path)
        # Four *distinct* blocks (identical ones would dedup to one).
        engine.write_file("/a", b"".join(bytes([i]) * 256 for i in range(4)))
        engine.unlink("/a")  # frees data blocks
        engine.write_file("/keep", b"kept")
        engine.flush()
        high_water = engine.device.total_blocks
        engine.device.close()  # type: ignore[attr-defined]
        reopened = fresh_engine(image_path)
        # Freed blocks are reusable: new writes must not grow the device.
        reopened.write_file("/new", bytes(range(128)))
        assert reopened.device.total_blocks <= high_water
        assert reopened.read_file("/keep") == b"kept"
        reopened.check_invariants()

    def test_multiple_flush_cycles(self, image_path):
        engine = fresh_engine(image_path)
        for round_no in range(5):
            engine.write_file(f"/round{round_no}", b"payload %d " % round_no * 20)
            engine.flush()
        engine.device.close()  # type: ignore[attr-defined]
        reopened = fresh_engine(image_path)
        assert len(reopened.list_files()) == 5
        reopened.check_invariants()

    def test_unflushed_changes_are_lost(self, image_path):
        engine = fresh_engine(image_path)
        engine.write_file("/flushed", b"safe")
        engine.flush()
        engine.write_file("/unflushed", b"gone")
        engine.device.close()  # type: ignore[attr-defined]
        reopened = fresh_engine(image_path)
        assert reopened.exists("/flushed")
        assert not reopened.exists("/unflushed")

    def test_memory_device_mount_works_too(self):
        device = MemoryBlockDevice(block_size=128)
        engine = CompressDB.mount(device)
        engine.write_file("/f", b"in memory")
        engine.flush()
        remounted = CompressDB.mount(device)
        assert remounted.read_file("/f") == b"in memory"

    def test_operations_after_remount(self, image_path):
        engine = fresh_engine(image_path)
        engine.write_file("/f", b"searchable content searchable")
        engine.flush()
        engine.device.close()  # type: ignore[attr-defined]
        reopened = fresh_engine(image_path)
        assert reopened.ops.search("/f", b"searchable") == [0, 19]
        reopened.ops.delete("/f", 0, 11)
        assert reopened.read_file("/f") == b"content searchable"
        reopened.check_invariants()
