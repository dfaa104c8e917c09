"""Tests for repro.snap: CoW snapshots, clones, diff, and replication.

The tentpole invariants: a snapshot is O(metadata) to take, its
time-travel reads return the exact pre-image forever, every mutator is
crash-atomic (see test_failure_injection.py for the crash matrix), the
table survives a remount through the superblock-v4 chain, and the
block-level diff is sound enough to drive incremental replication.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import superblock as sb
from repro.core.engine import CompressDB
from repro.distributed.cluster import build_cluster
from repro.fs import fd as fdmod
from repro.fs.compressfs import CompressFS
from repro.fs.errors import FileNotFound, InvalidArgument, PermissionDenied
from repro.fs.vfs import PassthroughFS
from repro.snap import Extent, SnapshotError, SnapshotExists, SnapshotNotFound
from repro.snap.record import CorruptSnapshotTable, deserialize_snapshots
from repro.storage.block_device import MemoryBlockDevice
from tests.conftest import mutate


@pytest.fixture
def engine():
    return CompressDB(block_size=64, page_capacity=4)


def _mounted(block_size=256, journal_blocks=16):
    device = MemoryBlockDevice(block_size=block_size)
    return device, CompressDB.mount(device, journal_blocks=journal_blocks)


class TestLifecycle:
    def test_create_list_get_delete(self, engine):
        engine.write_file("/a", b"x" * 100)
        record = engine.snapshots.create("s1")
        assert record.name == "s1"
        assert "s1" in engine.snapshots
        assert engine.snapshots.names() == ["s1"]
        engine.snapshots.create("s2")
        assert engine.snapshots.names() == ["s1", "s2"]
        engine.snapshots.delete("s1")
        assert engine.snapshots.names() == ["s2"]
        engine.check_invariants()

    def test_create_duplicate_rejected(self, engine):
        engine.snapshots.create("s1")
        with pytest.raises(SnapshotExists):
            engine.snapshots.create("s1")

    def test_missing_snapshot_raises(self, engine):
        with pytest.raises(SnapshotNotFound):
            engine.snapshots.get("ghost")
        with pytest.raises(SnapshotNotFound):
            engine.snapshots.delete("ghost")
        with pytest.raises(SnapshotNotFound):
            engine.snapshots.rollback("ghost")

    @pytest.mark.parametrize("name", ["", "a/b", ".hidden"])
    def test_invalid_names_rejected(self, engine, name):
        with pytest.raises(SnapshotError):
            engine.snapshots.create(name)

    def test_delete_frees_unshared_blocks(self, engine):
        engine.write_file("/a", b"A" * 500)
        engine.snapshots.create("s1")
        engine.unlink("/a")
        held = engine.physical_bytes()
        assert held > 0  # the snapshot pins the data
        engine.snapshots.delete("s1")
        assert engine.physical_bytes() == 0
        engine.check_invariants()

    def test_create_is_metadata_only(self, engine):
        """Snapshot create writes no data blocks — only refcounts move."""
        engine.write_file("/big", bytes(range(256)) * 40)
        before = engine.metrics().counter("storage.device.block_writes")
        physical = engine.physical_bytes()
        engine.snapshots.create("s1")
        assert engine.metrics().counter("storage.device.block_writes") == before
        assert engine.physical_bytes() == physical


class TestTimeTravel:
    def test_read_returns_the_pre_image(self, engine):
        engine.write_file("/f", b"version one " * 20)
        engine.snapshots.create("s1")
        engine.write("/f", 0, b"VERSION TWO!")
        engine.ops.append("/f", b" plus a tail")
        assert engine.snapshots.read("s1", "/f") == b"version one " * 20
        assert engine.snapshots.read("s1", "/f", 8, 4) == b"one "

    def test_survives_truncate_and_unlink(self, engine):
        engine.write_file("/f", b"keep me around" * 10)
        engine.snapshots.create("s1")
        engine.truncate("/f", 3)
        assert engine.snapshots.read("s1", "/f") == b"keep me around" * 10
        engine.unlink("/f")
        assert engine.snapshots.read("s1", "/f") == b"keep me around" * 10
        engine.check_invariants()

    def test_missing_path_in_snapshot(self, engine):
        engine.write_file("/f", b"data")
        engine.snapshots.create("s1")
        engine.write_file("/later", b"created after")
        with pytest.raises(SnapshotNotFound):
            engine.snapshots.read("s1", "/later")


class TestRollback:
    def test_rollback_restores_the_namespace(self, engine):
        engine.write_file("/a", b"alpha " * 30)
        engine.write_file("/b", b"beta " * 30)
        engine.snapshots.create("s1")
        engine.write("/a", 0, b"MUTATED")
        engine.unlink("/b")
        engine.write_file("/c", b"new file")
        engine.snapshots.rollback("s1")
        assert engine.list_files() == ["/a", "/b"]
        assert engine.read_file("/a") == b"alpha " * 30
        assert engine.read_file("/b") == b"beta " * 30
        engine.check_invariants()

    def test_snapshot_survives_its_own_rollback(self, engine):
        engine.write_file("/a", b"original")
        engine.snapshots.create("s1")
        engine.write("/a", 0, b"changed!")
        engine.snapshots.rollback("s1")
        engine.write("/a", 0, b"again!!!")
        engine.snapshots.rollback("s1")
        assert engine.read_file("/a") == b"original"
        engine.check_invariants()

    def test_rollback_discards_pending_appends(self, engine):
        engine.write_file("/a", b"committed")
        engine.snapshots.create("s1")
        engine.ops.append("/a", b" buffered tail")
        engine.snapshots.rollback("s1")
        assert engine.read_file("/a") == b"committed"
        engine.check_invariants()


class TestClone:
    def test_clone_shares_every_block(self, engine):
        engine.write_file("/db/t1", b"table one " * 50)
        engine.write_file("/db/t2", b"table two " * 50)
        engine.snapshots.create("s1")
        physical = engine.physical_bytes()
        created = engine.snapshots.clone("s1", "/restore")
        assert sorted(created) == ["/restore/db/t1", "/restore/db/t2"]
        assert engine.physical_bytes() == physical  # zero data copied
        assert engine.read_file("/restore/db/t1") == b"table one " * 50
        engine.check_invariants()

    def test_clone_diverges_on_write(self, engine):
        engine.write_file("/f", b"shared " * 40)
        engine.snapshots.create("s1")
        engine.snapshots.clone("s1", "/clone")
        engine.write("/clone/f", 0, b"DIVERGED")
        assert engine.read_file("/f") == b"shared " * 40
        assert engine.read_file("/clone/f").startswith(b"DIVERGED")
        assert engine.snapshots.read("s1", "/f") == b"shared " * 40
        engine.check_invariants()

    def test_clone_collision_rolls_back_completely(self, engine):
        engine.write_file("/a", b"AAAA" * 30)
        engine.write_file("/z", b"ZZZZ" * 30)
        engine.snapshots.create("s1")
        # /restore/z exists, so the clone fails after /restore/a was
        # already built: nothing may survive and no refcount may leak.
        engine.write_file("/restore/z", b"in the way")
        files = sorted(engine.list_files())
        with pytest.raises(SnapshotExists):
            engine.snapshots.clone("s1", "/restore")
        assert sorted(engine.list_files()) == files
        engine.check_invariants()

    def test_clone_rejects_root_prefix(self, engine):
        engine.snapshots.create("s1")
        with pytest.raises(SnapshotError):
            engine.snapshots.clone("s1", "/")


class TestFaultInjection:
    """Satellite: a failure halfway through an incref loop must return
    every reference taken so far (same contract as copy_file)."""

    def _failing_incref(self, engine, fail_after):
        real = engine.refcount.incref
        calls = {"n": 0}

        def wrapped(block_no):
            calls["n"] += 1
            if calls["n"] > fail_after:
                raise RuntimeError("injected incref failure")
            return real(block_no)

        return wrapped

    def test_create_failure_leaks_nothing(self, engine, monkeypatch):
        engine.write_file("/a", b"A" * 300)
        engine.write_file("/b", b"B" * 300)
        monkeypatch.setattr(
            engine.refcount, "incref", self._failing_incref(engine, 3)
        )
        with pytest.raises(RuntimeError):
            engine.snapshots.create("s1")
        monkeypatch.undo()
        assert len(engine.snapshots) == 0
        engine.check_invariants()

    def test_rollback_failure_leaks_nothing(self, engine, monkeypatch):
        engine.write_file("/a", b"A" * 300)
        engine.write_file("/b", b"B" * 300)
        engine.snapshots.create("s1")
        engine.write("/a", 0, b"mutated!")
        before = {p: engine.read_file(p) for p in engine.list_files()}
        monkeypatch.setattr(
            engine.refcount, "incref", self._failing_incref(engine, 2)
        )
        with pytest.raises(RuntimeError):
            engine.snapshots.rollback("s1")
        monkeypatch.undo()
        assert {p: engine.read_file(p) for p in engine.list_files()} == before
        engine.check_invariants()

    def test_clone_failure_leaks_nothing(self, engine, monkeypatch):
        engine.write_file("/a", b"A" * 300)
        engine.write_file("/b", b"B" * 300)
        engine.snapshots.create("s1")
        monkeypatch.setattr(
            engine.refcount, "incref", self._failing_incref(engine, 2)
        )
        with pytest.raises(RuntimeError):
            engine.snapshots.clone("s1", "/restore")
        monkeypatch.undo()
        assert not [p for p in engine.list_files() if p.startswith("/restore")]
        engine.check_invariants()

    def test_copy_file_failure_leaks_nothing(self, engine, monkeypatch):
        """Regression guard for the audited reflink-cp path itself."""
        engine.write_file("/src", b"S" * 400)
        monkeypatch.setattr(
            engine.refcount, "incref", self._failing_incref(engine, 2)
        )
        with pytest.raises(RuntimeError):
            engine.copy_file("/src", "/dst")
        monkeypatch.undo()
        assert not engine.exists("/dst")
        engine.check_invariants()


class TestDiff:
    def test_unchanged_file_produces_no_entry(self, engine):
        engine.write_file("/f", b"stable " * 30)
        engine.snapshots.create("s1")
        assert engine.snapshots.diff("s1") == []

    def test_in_place_write_diffs_minimally(self, engine):
        engine.write_file("/f", b"\x01" * 64 * 8)  # 8 full blocks
        engine.snapshots.create("s1")
        engine.write("/f", 64 * 3, b"\x02" * 64)  # rewrite block 3 only
        (entry,) = engine.snapshots.diff("s1")
        assert entry.path == "/f"
        assert entry.change == "modified"
        assert entry.extents == [Extent(64 * 3, 64)]

    def test_added_and_deleted_files(self, engine):
        engine.write_file("/old", b"bye")
        engine.snapshots.create("s1")
        engine.unlink("/old")
        engine.write_file("/new", b"hi" * 50)
        entries = {e.path: e for e in engine.snapshots.diff("s1")}
        assert entries["/old"].change == "deleted"
        assert entries["/new"].change == "added"
        assert entries["/new"].extents == [Extent(0, 100)]

    def test_reverted_content_diffs_empty_via_dedup(self, engine):
        """Dedup re-shares the original block when content reverts, so
        slot equality correctly reports 'unchanged'."""
        original = b"\x07" * 64 * 4
        engine.write_file("/f", original)
        engine.snapshots.create("s1")
        engine.write("/f", 0, b"\x09" * 64)
        engine.write("/f", 0, original[:64])  # revert
        assert engine.snapshots.diff("s1") == []

    def test_snapshot_to_snapshot_diff(self, engine):
        engine.write_file("/f", b"\x01" * 64 * 4)
        engine.snapshots.create("s1")
        engine.write("/f", 64, b"\x02" * 64)
        engine.snapshots.create("s2")
        (entry,) = engine.snapshots.diff("s1", "s2")
        assert entry.extents == [Extent(64, 64)]
        # Symmetric direction exists too (extents in target coordinates).
        (entry,) = engine.snapshots.diff("s2", "s1")
        assert entry.extents == [Extent(64, 64)]

    def test_shrunk_file_reports_size_mismatch(self, engine):
        engine.write_file("/f", b"\x01" * 64 * 4)
        engine.snapshots.create("s1")
        engine.truncate("/f", 64)
        (entry,) = engine.snapshots.diff("s1")
        assert entry.change == "modified"
        assert entry.target_size == 64
        assert entry.extents == []  # receiver truncates, nothing ships

    def test_diff_inodes_positional_tail_shift_is_conservative(self, engine):
        # Distinct content per block, so dedup cannot re-align slots.
        engine.write_file("/f", bytes(range(256)))
        engine.snapshots.create("s1")
        engine.ops.insert("/f", 0, bytes(range(192, 256)))  # shifts every slot
        (entry,) = engine.snapshots.diff("s1")
        covered = sum(e.length for e in entry.extents)
        assert covered == engine.file_size("/f")  # everything marked


class TestPersistence:
    def test_mutated_snapshot_table_fails_only_with_typed_error(self):
        """3,000 seeded mutations of a real snapshot table: each decodes
        or raises CorruptSnapshotTable (a SnapshotError, so the CLI
        reports it) — never IndexError or UnicodeDecodeError."""
        __, engine = _mounted()
        for index in range(4):
            engine.write_file(f"/f{index}", bytes([65 + index]) * (200 + 300 * index))
            engine.snapshots.create(f"snäp-{index}")
        payload = engine.snapshots.serialize()
        assert [r.name for r in deserialize_snapshots(payload, 256)] == [
            f"snäp-{index}" for index in range(4)
        ]
        rng = random.Random(20260928)
        rejected = 0
        for __ in range(3000):
            try:
                deserialize_snapshots(mutate(rng, payload), 256)
            except CorruptSnapshotTable as exc:
                assert isinstance(exc, SnapshotError)
                rejected += 1
        assert rejected > 300

    def test_snapshots_survive_remount(self):
        device, engine = _mounted()
        engine.write_file("/f", b"persisted " * 40)
        engine.snapshots.create("s1")
        engine.write("/f", 0, b"CHANGED!!!")
        engine.fsync()
        remounted = CompressDB.mount(device)
        assert remounted.snapshots.names() == ["s1"]
        assert remounted.snapshots.read("s1", "/f") == b"persisted " * 40
        assert remounted.read_file("/f").startswith(b"CHANGED!!!")
        report = remounted.fsck(repair=False)
        assert report["refcounts_fixed"] == 0
        assert report["blocks_reclaimed"] == 0
        remounted.check_invariants()

    def test_snapshot_only_blocks_rejoin_dedup_after_remount(self):
        """blockHashTable is rebuilt from frozen inodes too: writing the
        frozen content again must dedup against the snapshot's block."""
        device, engine = _mounted()
        payload = b"\x0a" * 256 * 3
        engine.write_file("/f", payload)
        engine.snapshots.create("s1")
        engine.unlink("/f")  # the blocks now live only in the snapshot
        engine.fsync()
        remounted = CompressDB.mount(device)
        physical = remounted.physical_bytes()
        remounted.write_file("/again", payload)
        remounted._flush_pending()
        assert remounted.physical_bytes() == physical  # full dedup
        remounted.check_invariants()

    def test_deleting_last_snapshot_clears_the_chain(self):
        device, engine = _mounted()
        engine.write_file("/f", b"x" * 300)
        engine.snapshots.create("s1")
        engine.fsync()
        assert sb.read_layout(device).snap_head != sb.NO_BLOCK
        engine.snapshots.delete("s1")
        engine.fsync()
        assert sb.read_layout(device).snap_head == sb.NO_BLOCK
        remounted = CompressDB.mount(device)
        assert len(remounted.snapshots) == 0
        remounted.check_invariants()

    def test_v3_image_mounts_and_migrates_to_v5(self):
        """A pre-snapshot (v3) superblock reads with no snapshots; the
        first checkpoint rewrites it as v5.  Unjournaled, so no log
        batch carries a newer superblock to replay over the v3 one
        (``tests/test_delta_log.py`` mounts journaled v3/v4 literals)."""
        device, engine = _mounted(journal_blocks=0)
        engine.write_file("/f", b"legacy data " * 20)
        engine.fsync()
        layout = sb.read_layout(device)
        # Rewrite block 0 in the v3 layout (no snapshot head field).
        device.write_block(
            sb.SUPERBLOCK_NO,
            sb._SUPERBLOCK_V3.pack(
                sb._MAGIC,
                3,
                device.block_size,
                layout.meta_head,
                layout.journal_start,
                layout.journal_len,
            ),
        )
        remounted = CompressDB.mount(device)
        assert remounted.read_file("/f") == b"legacy data " * 20
        assert len(remounted.snapshots) == 0
        remounted.snapshots.create("s1")
        remounted.fsync()
        raw = device.read_block(sb.SUPERBLOCK_NO)
        __, version = sb._SUPERBLOCK_V3.unpack_from(raw, 0)[:2]
        assert version == 5
        again = CompressDB.mount(device)
        assert again.snapshots.names() == ["s1"]
        again.check_invariants()


class TestCompressFSView:
    @pytest.fixture
    def fs(self):
        fs = CompressFS(block_size=64, page_capacity=4)
        fs.write_file("/db/table", b"A" * 200)
        fs.engine.snapshots.create("s1")
        fs.write_file("/db/table", b"B" * 300)
        return fs

    def test_virtual_path_reads_the_frozen_image(self, fs):
        assert fs.read_file("/.snap/s1/db/table") == b"A" * 200
        assert fs.stat("/.snap/s1/db/table").size == 200

    def test_open_with_snapshot_kwarg(self, fs):
        fd = fs.open("/db/table", snapshot="s1")
        assert fs.read(fd, 999) == b"A" * 200
        fs.close(fd)

    def test_snapshot_open_rejects_write_flags(self, fs):
        with pytest.raises(PermissionDenied):
            fs.open("/db/table", fdmod.O_WRONLY, snapshot="s1")
        with pytest.raises(PermissionDenied):
            fs.open("/db/table", fdmod.O_RDWR, snapshot="s1")

    def test_snapshot_paths_reject_mutation(self, fs):
        with pytest.raises(PermissionDenied):
            fs.write_file("/.snap/s1/db/table", b"x")
        with pytest.raises(PermissionDenied):
            fs.truncate("/.snap/s1/db/table", 0)
        with pytest.raises(PermissionDenied):
            fs.unlink("/.snap/s1/db/table")
        with pytest.raises(PermissionDenied):
            fs.open("/.snap/s1/new", fdmod.O_CREAT | fdmod.O_WRONLY)

    def test_listdir_surfaces_snapshots_but_list_hides_them(self, fs):
        assert fs.listdir("/.snap") == ["/.snap/s1/db/table"]
        assert fs.listdir("/.snap/s1") == ["/.snap/s1/db/table"]
        assert "/.snap/s1/db/table" not in fs.listdir("")

    def test_missing_snapshot_or_path_raises_not_found(self, fs):
        with pytest.raises(FileNotFound):
            fs.read_file("/.snap/s1/nope")
        with pytest.raises(FileNotFound):
            fs.read_file("/.snap/ghost/db/table")

    def test_base_filesystem_rejects_snapshot_reads(self):
        fs = PassthroughFS(block_size=64)
        fs.write_file("/x", b"hi")
        with pytest.raises(InvalidArgument):
            fs.open("/x", snapshot="s1")


class TestCLI:
    def test_snap_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        image = str(tmp_path / "store.img")
        source = tmp_path / "data.bin"
        source.write_bytes(b"hello world " * 100)
        assert main(["init", image, "--block-size", "256",
                     "--journal-blocks", "16"]) == 0
        assert main(["put", image, str(source), "/data"]) == 0
        assert main(["snap", "create", image, "monday"]) == 0
        assert main(["replace", image, "/data", "0", "HELLO WORLD!"]) == 0
        assert main(["snap", "list", image]) == 0
        assert "monday" in capsys.readouterr().out
        assert main(["snap", "diff", image, "monday"]) == 0
        assert "modified" in capsys.readouterr().out
        assert main(["snap", "clone", image, "monday", "/restore"]) == 0
        assert main(["get", image, "/restore/data", "-o",
                     str(tmp_path / "out.bin")]) == 0
        assert (tmp_path / "out.bin").read_bytes() == b"hello world " * 100
        # Rollback resets the namespace to the snapshot — the clone,
        # created after it, disappears with the rest of the divergence.
        assert main(["snap", "rollback", image, "monday"]) == 0
        assert main(["snap", "delete", image, "monday"]) == 0
        assert main(["fsck", image]) == 0

    def test_snap_errors_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        image = str(tmp_path / "store.img")
        assert main(["init", image, "--block-size", "256"]) == 0
        assert main(["snap", "delete", image, "ghost"]) == 2
        assert main(["snap", "create", image, "bad/name"]) == 2
        capsys.readouterr()


class TestClusterReplication:
    def _changed_cluster(self):
        cluster = build_cluster(
            nodes=3, replication=2, chunk_capacity=4096, block_size=256
        )
        client = cluster.client
        data = bytes(range(256)) * 64  # 16 KiB across several chunks
        client.write_file("/db", data)
        client.snapshot("epoch0")
        cluster.servers["node0"].fail()
        client.write("/db", 1000, b"X" * 100)  # missed by node0
        cluster.servers["node0"].recover()
        expected = data[:1000] + b"X" * 100 + data[1100:]
        return cluster, client, expected

    def test_incremental_resync_repairs_the_replica(self):
        cluster, client, expected = self._changed_cluster()
        repaired, shipped = client.incremental_resync("node0", "epoch0")
        assert repaired == 1
        assert 0 < shipped < 1024  # two 256-byte blocks, not 16 KiB
        assert client.read_file("/db") == expected
        for chunk in client.master.chunks_on("node0"):
            replicas = {
                cluster.servers[s].read(chunk.chunk_id, 0, chunk.length)
                for s in chunk.servers
            }
            assert len(replicas) == 1

    def test_incremental_ships_fewer_bytes_than_full_copy(self):
        cluster, client, __ = self._changed_cluster()
        rpc_bytes = client.obs.registry.counter("cluster.rpc.bytes")
        before = rpc_bytes.value
        client.incremental_resync("node0", "epoch0")
        incremental_cost = rpc_bytes.value - before

        cluster2, client2, __ = self._changed_cluster()
        rpc_bytes2 = client2.obs.registry.counter("cluster.rpc.bytes")
        before2 = rpc_bytes2.value
        client2.resync("node0")
        full_cost = rpc_bytes2.value - before2
        assert incremental_cost < full_cost / 4

    def test_missing_snapshot_falls_back_to_full_copy(self):
        cluster, client, expected = self._changed_cluster()
        repaired, shipped = client.incremental_resync("node0", "no-such-epoch")
        assert repaired == 1
        assert shipped >= 4096  # whole-chunk copy
        assert client.read_file("/db") == expected

    def test_snapshot_refresh_replaces_the_old_epoch(self):
        cluster, client, __ = self._changed_cluster()
        took = client.snapshot("epoch0")  # refresh under the same name
        assert took  # every online compressed server re-froze
        # After the refresh nothing has changed since the epoch: resync
        # ships zero payload bytes.
        repaired, shipped = client.incremental_resync("node0", "epoch0")
        assert shipped == 0


class TestPropertyPreImage:
    """Hypothesis satellite: random ops, snapshot, more random ops —
    time-travel reads must equal the captured pre-image exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        before=st.lists(
            st.tuples(st.integers(0, 2), st.binary(min_size=1, max_size=120)),
            min_size=1,
            max_size=6,
        ),
        after=st.lists(
            st.tuples(st.integers(0, 3), st.binary(min_size=1, max_size=120)),
            max_size=6,
        ),
    )
    def test_snapshot_reads_equal_pre_image(self, before, after):
        engine = CompressDB(block_size=32, page_capacity=3)
        engine.create("/f")
        for kind, payload in before:
            self._apply(engine, kind, payload)
        pre_image = engine.read_file("/f")
        engine.snapshots.create("s")
        for kind, payload in after:
            self._apply(engine, kind, payload)
        assert engine.snapshots.read("s", "/f") == pre_image
        engine.check_invariants()

    @staticmethod
    def _apply(engine, kind, payload):
        size = engine.file_size("/f")
        offset = len(payload) % (size + 1)
        if kind == 0:
            engine.ops.append("/f", payload)
        elif kind == 1:
            engine.ops.insert("/f", offset, payload)
        elif kind == 2:
            engine.write("/f", offset, payload)
        else:
            length = min(len(payload), size - offset)
            if length:
                engine.ops.delete("/f", offset, length)
