"""The fsync path as a log: delta records, checkpoints, recovery.

A sync point appends *what changed* (``serialize_delta``) to the
journal's log and writes the full image only when it must.  Recovery is
the gate for that: crash sweeps at every device write across delta
commits, a checkpoint forced by the log filling up and the first commit
that overwrites a stale batch; a seeded property (delta replay == forced
checkpoint, inode by inode and count by count); v3/v4 images written by
the commit before this format; and a byte fuzzer over the log region,
a delta payload and a Raft-log device.
"""

import copy
import random

import pytest

from repro.core import superblock as sb
from repro.core.engine import CompressDB
from repro.obs import Observability
from repro.raft.log import RaftLog
from repro.storage.block_device import (
    BlockDeviceError,
    CrashPoint,
    CrashPointDevice,
    MemoryBlockDevice,
)
from repro.storage.inode import OP_APPEND, OP_REMOVE, OP_REPLACE, OP_SET_USED, Inode, Slot
from repro.storage.journal import LOGICAL_TAG, Journal, parse_batch

from .conftest import mutate

BLOCK = 256


def _mounted(journal_blocks=12, block_size=BLOCK, **kwargs):
    device = MemoryBlockDevice(block_size=block_size, **kwargs)
    return device, CompressDB.mount(device, journal_blocks=journal_blocks)


def _state(engine):
    return {path: engine.read_file(path) for path in engine.list_files()}


def _structure(engine):
    """Slot tables and durable counts: what a delta record must rebuild."""
    tables = {
        path: [(slot.block_no, slot.used) for slot in engine._inode_raw(path).iter_slots()]
        for path in engine.list_files()
    }
    return tables, dict(engine.refcount._counts)


def _violations(engine):
    report = engine.fsck(repair=False)
    return sum(count for key, count in report.items() if key != "index_entries")


def _assert_clean(engine):
    assert _violations(engine) == 0
    engine.check_invariants()


def _counter(engine, name):
    return engine.obs.registry.snapshot().counter(name)


def _device_writes(device):
    return device.stats.snapshot().block_writes


# ---------------------------------------------------------------------------
# What a sync point writes
# ---------------------------------------------------------------------------


class TestSyncPoint:
    def test_fsync_logs_a_record_not_the_image(self):
        device, engine = _mounted(journal_blocks=32)
        for index in range(40):
            engine.write_file(f"/f{index:02d}", bytes([index]) * 700)
        engine.fsync()  # nothing durable to be relative to: a checkpoint
        assert _counter(engine, "engine.checkpoints") == 1
        image_bytes = _counter(engine, "engine.checkpoint.image_bytes")
        assert image_bytes > 4 * BLOCK
        before = _device_writes(device)
        engine.ops.insert("/f07", 3, b"MID")
        engine.fsync()
        # Two data blocks (the split) + one descriptor, the record inline.
        assert _device_writes(device) - before == 2 + 1
        assert _counter(engine, "engine.checkpoints") == 1
        assert 0 < _counter(engine, "engine.delta.record_bytes") < 64
        assert engine.obs.registry.snapshot().gauge("journal.log_used_blocks") == 1
        remounted = CompressDB.mount(device)
        assert _state(remounted) == _state(engine)
        assert _structure(remounted) == _structure(engine)
        _assert_clean(remounted)

    def test_fsync_with_nothing_to_say_is_free(self):
        """Satellite bugfix: a second consecutive fsync (and fsync(path)
        of an untouched file) used to rewrite the whole image."""
        device, engine = _mounted()
        engine.write_file("/a", b"a" * 600)
        engine.write_file("/b", b"b" * 600)
        engine.fsync()
        writes, lsn = _device_writes(device), engine.device.lsn
        commits = _counter(engine, "engine.txn.commits")
        stamped = []
        engine.device.enqueue_ack(stamped.append)
        engine.fsync()
        engine.fsync("/b")
        assert _device_writes(device) == writes
        assert engine.device.lsn == lsn
        assert _counter(engine, "engine.txn.commits") == commits + 2
        assert stamped == [lsn - 1]  # the last durable LSN
        assert _counter(engine, "journal.commits") == 1

    def test_unjournaled_fsync_with_nothing_to_say_is_free_too(self):
        device = MemoryBlockDevice(block_size=BLOCK)
        engine = CompressDB.mount(device)
        engine.write_file("/a", b"a" * 600)
        engine.fsync()
        writes = _device_writes(device)
        engine.fsync()
        assert _device_writes(device) == writes
        engine.ops.append("/a", b"more")
        engine.fsync()  # no log: every sync point with news is a checkpoint
        assert _counter(engine, "engine.checkpoints") == 2
        assert CompressDB.mount(device).read_file("/a") == b"a" * 600 + b"more"

    def test_metrics_is_a_read(self):
        """Satellite bugfix: metrics() used to flush the coalescing
        buffers — a read that changed what the next fsync logs."""
        device, engine = _mounted()
        engine.create("/log")
        engine.write("/log", 0, b"x" * 100)
        pending = {path: bytes(data) for path, data in engine._pending.items()}
        assert pending  # the write is sitting in the buffer
        writes, staged = _device_writes(device), dict(engine.device.txn.staged)
        snap = engine.metrics()
        assert {p: bytes(d) for p, d in engine._pending.items()} == pending
        assert _device_writes(device) == writes
        assert engine.device.txn.staged == staged
        assert not engine._inode_raw("/log").num_slots
        engine.write("/log", 100, b"y" * 50)
        engine.sync()
        assert snap.gauge("engine.space.logical_bytes") == 100
        assert engine.metrics().gauge("engine.space.logical_bytes") == 150
        assert engine.logical_bytes() == 150

    def test_flush_span_and_counters_say_what_was_written(self):
        obs = Observability()
        obs.tracer.enabled = True
        device = MemoryBlockDevice(block_size=BLOCK, obs=obs)
        engine = CompressDB.mount(device, journal_blocks=12)
        engine.write_file("/a", b"a" * 600)
        engine.fsync()
        engine.ops.append("/a", b"tail")
        engine.fsync()
        engine.fsync()
        flushes = [s.attrs for s in obs.tracer.spans() if s.name == "engine.flush"]
        assert [(a["checkpoint"], a["record_bytes"] > 0) for a in flushes] == [
            (True, True), (False, True), (False, False),
        ]
        snap = engine.metrics()
        assert snap.counter("engine.checkpoints") == 1
        assert snap.counter("engine.delta.record_bytes") == flushes[1]["record_bytes"]
        assert snap.counter("engine.checkpoint.image_bytes") > BLOCK
        assert snap.gauge("journal.log_used_blocks") == 1


class TestCheckpointTriggers:
    """Every trigger is a condition the code observes; none is a knob."""

    def test_minimum_journal_checkpoints_at_every_fsync(self):
        """Two blocks hold only a checkpoint's flip batch."""
        device, engine = _mounted(journal_blocks=2)
        for index in range(5):
            engine.write_file(f"/f{index}", bytes([65 + index]) * 300)
            engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 5
        assert _counter(engine, "engine.delta.record_bytes") == 0
        remounted = CompressDB.mount(device)
        assert _state(remounted) == _state(engine)
        _assert_clean(remounted)

    def test_three_block_journal_logs_one_record_between_checkpoints(self):
        device, engine = _mounted(journal_blocks=3)
        heads = []
        for index in range(5):
            engine.write_file(f"/f{index}", bytes([65 + index]) * 300)
            engine.fsync()
            heads.append(engine.device.head)
        assert heads == [0, 1, 0, 1, 0]  # the first sync point has no image yet
        assert _counter(engine, "engine.checkpoints") == 3
        assert _counter(engine, "engine.delta.record_bytes") > 0
        remounted = CompressDB.mount(device)
        assert _state(remounted) == _state(engine)
        _assert_clean(remounted)

    def test_record_larger_than_the_empty_region_checkpoints(self):
        """Used to be JournalError("format with a larger journal")."""
        device, engine = _mounted(journal_blocks=6, block_size=128)
        engine.write_file("/seed", b"s" * 5000)  # an image worth many blocks
        engine.fsync()
        for index in range(30):
            engine.write_file(f"/a-rather-long-file-name-{index:04d}", bytes([index]) * 10)
        engine.fsync()  # ~1 KiB of record: more than 6 blocks could hold
        assert _counter(engine, "engine.checkpoints") == 2
        assert _counter(engine, "engine.delta.record_bytes") == 0
        assert _state(CompressDB.mount(device)) == _state(engine)

    def test_record_larger_than_the_image_checkpoints(self):
        device, engine = _mounted(journal_blocks=64)
        engine.write_file("/a", b"a" * 10)
        engine.fsync()
        for index in range(40):
            engine.write_file(f"/f{index:02d}", bytes([index]) * 300)
        engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 2

    def test_full_log_checkpoints_then_starts_the_region_over(self):
        device, engine = _mounted(journal_blocks=5)
        engine.write_file("/a", b"a" * 600)
        engine.fsync()
        heads = []
        for index in range(8):
            engine.ops.append("/a", bytes([index]) * 10)
            engine.fsync()
            heads.append(engine.device.head)
        # Three one-block records fit beside the two-block reserve; the
        # fourth sync point is the checkpoint, whose batch takes the reserve.
        assert heads == [1, 2, 3, 0, 1, 2, 3, 0]
        assert _counter(engine, "engine.checkpoints") == 3
        assert _counter(engine, "journal.commits") == 9
        assert sb.read_layout(device).checkpoint_lsn == 9
        assert _state(CompressDB.mount(device)) == _state(engine)

    def test_snapshot_table_change_checkpoints(self):
        device, engine = _mounted()
        engine.write_file("/a", b"a" * 600)
        engine.fsync()
        engine.snapshots.create("s1")
        engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 2
        engine.snapshots.rollback("s1")  # table unchanged: a delta record
        engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 2
        remounted = CompressDB.mount(device)
        assert remounted.snapshots.names() == ["s1"]
        _assert_clean(remounted)

    def test_rollback_unlinks_what_the_snapshot_lacks(self):
        device, engine = _mounted()
        engine.write_file("/old", b"o" * 300)
        engine.snapshots.create("s1")
        engine.fsync()
        engine.write_file("/new", b"n" * 300)
        engine.fsync()
        engine.snapshots.rollback("s1")
        engine.fsync()
        remounted = CompressDB.mount(device)
        assert remounted.list_files() == ["/old"]
        _assert_clean(remounted)

    def test_remount_and_fsck_repair_checkpoint(self):
        device, engine = _mounted()
        engine.write_file("/a", b"a" * 600)
        engine.fsync()
        engine.remount()  # rewrote the partition the image points at
        engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 2
        engine.refcount.incref(engine._inode_raw("/a").slot_at(0).block_no)
        assert engine.fsck(repair=True)["refcounts_fixed"] == 1
        engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 3
        remounted = CompressDB.mount(device)
        assert remounted.read_file("/a") == b"a" * 600
        _assert_clean(remounted)

    def test_device_exhaustion_mid_checkpoint_keeps_the_durable_state(self):
        """Run out of blocks before each fresh block a checkpoint needs
        (partition shadow, snapshot chain, metadata chain)."""

        class SmallDevice(MemoryBlockDevice):
            limit = None

            def allocate(self):
                if self.limit is not None and self.allocated_blocks >= self.limit:
                    raise BlockDeviceError("device full")
                return super().allocate()

        failures = 0
        for room in range(10):
            device = SmallDevice(block_size=BLOCK)
            engine = CompressDB.mount(device, journal_blocks=12)
            for index in range(12):
                engine.write_file(f"/f{index:02d}", bytes([index]) * 300)
            engine.fsync()
            engine.ops.append("/f03", b"logged")
            engine.fsync()
            durable = _state(engine)
            engine.write_file("/late", b"l" * 200)
            engine.snapshots.create("s1")  # the next sync point must checkpoint
            engine.sync()
            device.limit = device.allocated_blocks + room
            try:
                engine.fsync()
            except BlockDeviceError:
                failures += 1
                survivor = CompressDB.mount(copy.deepcopy(device))
                assert _state(survivor) == durable and len(survivor.snapshots) == 0
                _assert_clean(survivor)
                # With space back, the same engine's retry publishes it all.
                device.limit = None
                engine.fsync()
            assert _counter(engine, "engine.checkpoints") == 2
            remounted = CompressDB.mount(device)
            assert remounted.read_file("/late") == b"l" * 200
            assert remounted.snapshots.names() == ["s1"]
            _assert_clean(remounted)
            if device.limit is not None:
                break  # enough room: the sweep is over
        assert failures >= 4


# ---------------------------------------------------------------------------
# Crash sweeps: every device write, plain and torn
# ---------------------------------------------------------------------------


def _log_template():
    """One committed file on a 5-block journal: room for three one-block
    records beside the two-block checkpoint reserve, so the log fills up
    early."""
    device, engine = _mounted(journal_blocks=5)
    engine.write_file("/keep", b"pre-existing data " * 30)
    engine.fsync()
    return device


def _log_workload(engine):
    """Seven sync points: three delta records, the checkpoint the full
    log forces, then three records over the stale batches it left."""
    engine.create("/new")
    engine.write("/new", 0, b"abc" * 100)
    engine.fsync()
    yield
    engine.ops.insert("/keep", 7, b"MID")
    engine.fsync()
    yield
    engine.copy_file("/new", "/copy")
    engine.fsync()
    yield
    engine.truncate("/keep", 100)  # the log is full: a checkpoint
    engine.fsync()
    yield
    engine.rename("/new", "/moved")  # first batch over a stale one
    engine.fsync()
    yield
    engine.ops.delete("/copy", 10, 200)
    engine.fsync()
    yield
    engine.unlink("/moved")
    engine.fsync()
    yield


class TestLogCrashMatrix:
    def _observe(self, template):
        engine = CompressDB.mount(copy.deepcopy(template))
        snaps, checkpoints, lsns = [_state(engine)], [], []
        base = _counter(engine, "engine.checkpoints")  # the template's own
        for __ in _log_workload(engine):
            snaps.append(_state(engine))
            checkpoints.append(_counter(engine, "engine.checkpoints") - base)
            lsns.append(engine.device.lsn)
        return snaps, checkpoints, lsns

    def test_the_workload_is_three_records_a_checkpoint_three_records(self):
        __, checkpoints, lsns = self._observe(_log_template())
        assert checkpoints == [0, 0, 0, 1, 1, 1, 1]
        assert lsns == [3, 4, 5, 6, 7, 8, 9]  # one batch per sync point

    def _sweep(self, tear):
        template = _log_template()
        snaps, __, __ = self._observe(template)
        k = 1
        while True:
            device = copy.deepcopy(template)
            wrapped = CrashPointDevice(device, crash_after=k, tear=tear)
            completed = 0
            try:
                engine = CompressDB.mount(wrapped)
                for __ in _log_workload(engine):
                    completed += 1
                break
            except CrashPoint:
                pass
            recovered = CompressDB.mount(device)
            state = _state(recovered)
            _assert_clean(recovered)
            # The checkpoint + exactly the acknowledged prefix, or the
            # interrupted sync point as well: never less, never a blend.
            assert state in (snaps[completed], snaps[completed + 1]), (
                f"crash at write {k} (after sync point {completed})"
            )
            # What recovery leaves is a log the engine can append to.
            recovered.write_file("/after", b"recovered")
            recovered.fsync()
            assert CompressDB.mount(device).read_file("/after") == b"recovered"
            k += 1
        # Every write of the seven sync points (3, 3, 1, 6, 1, 2 and 1)
        # was a crash point; the 18th run finished the workload.
        assert k == 17 + 1

    def test_every_crash_point_recovers_the_acknowledged_prefix(self):
        self._sweep(tear=False)

    def test_every_torn_write_recovers_the_acknowledged_prefix(self):
        self._sweep(tear=True)

    def test_a_stale_batch_beyond_the_head_is_ignored(self):
        device = copy.deepcopy(_log_template())
        engine = CompressDB.mount(device)
        workload = _log_workload(engine)
        for __ in range(5):  # ... checkpoint (LSN 5), then one record
            next(workload)
        journal = Journal(1, 5, BLOCK)
        checkpoint_lsn = sb.read_layout(device).checkpoint_lsn
        assert checkpoint_lsn == 5
        # Block 1 of the region still holds the previous trip's second
        # record, intact — only its LSN says it is not part of the log.
        region = device.read_blocks(sorted(journal.region_blocks()))
        stale = parse_batch(lambda n: region[n] if n < 5 else None, 1)
        assert stale is not None and stale[0] == 3 <= checkpoint_lsn
        assert [b.lsn for b in journal.recover(device, checkpoint_lsn + 1)] == [6]
        assert _state(CompressDB.mount(device)) == _state(engine)

    def test_crash_during_recovery_replay_recovers_again(self):
        """The flip batch is durable, its home write is not; the redo at
        mount is itself torn; the next mount still lands on the image."""
        template = _log_template()
        snaps, __, __ = self._observe(template)
        counter = CrashPointDevice(copy.deepcopy(template))
        engine = CompressDB.mount(counter)
        workload = _log_workload(engine)
        for __ in range(3):
            next(workload)
        engine.truncate("/keep", 100)
        before = counter.writes_seen
        engine.fsync()
        flip_home_write = counter.writes_seen - before  # the last write
        device = copy.deepcopy(template)
        wrapped = CrashPointDevice(device)
        engine = CompressDB.mount(wrapped)
        workload = _log_workload(engine)
        for __ in range(3):
            next(workload)
        engine.truncate("/keep", 100)
        wrapped.crash_after = wrapped.writes_seen + flip_home_write
        with pytest.raises(CrashPoint):
            engine.fsync()
        assert sb.read_layout(device).checkpoint_lsn == 1  # not flipped yet
        with pytest.raises(CrashPoint):
            CompressDB.mount(CrashPointDevice(device, crash_after=1, tear=True))
        recovered = CompressDB.mount(device)
        assert sb.read_layout(device).checkpoint_lsn == 5
        assert recovered.device.head == 0 and recovered.device.lsn == 6
        assert _state(recovered) == snaps[4]
        _assert_clean(recovered)


# ---------------------------------------------------------------------------
# Seeded property: delta replay == forced checkpoint == model
# ---------------------------------------------------------------------------


class TestDeltaReplayProperty:
    OPS = (
        "create", "write", "insert", "delete", "truncate", "rename",
        "unlink", "copy_file", "clone_range", "fsync", "fsync",
    )

    def _step(self, rng, engine, model):
        op = rng.choice(self.OPS)
        paths = sorted(model)
        fresh = f"/f{rng.randrange(12)}"
        if op == "fsync":
            engine.fsync()
            return True
        if op == "create" or not paths:
            if fresh not in model:
                engine.create(fresh)
                model[fresh] = b""
            return False
        path = rng.choice(paths)
        data = model[path]
        chunk = bytes([rng.randrange(4)]) * rng.randrange(1, 300)
        if op == "write":
            offset = rng.randrange(len(data) + 40)
            engine.write(path, offset, chunk)
            grown = data.ljust(offset, b"\x00")
            model[path] = grown[:offset] + chunk + grown[offset + len(chunk):]
        elif op == "insert":
            offset = rng.randrange(len(data) + 1)
            engine.ops.insert(path, offset, chunk)
            model[path] = data[:offset] + chunk + data[offset:]
        elif op == "delete" and data:
            offset = rng.randrange(len(data))
            size = rng.randrange(1, len(data) - offset + 1)
            engine.ops.delete(path, offset, size)
            model[path] = data[:offset] + data[offset + size:]
        elif op == "truncate":
            size = rng.randrange(len(data) + 100)
            engine.truncate(path, size)
            model[path] = data[:size].ljust(size, b"\x00")
        elif op == "rename":
            engine.rename(path, fresh)
            model[fresh] = model.pop(path) if fresh != path else data
        elif op == "unlink":
            engine.unlink(path)
            del model[path]
        elif op == "copy_file" and fresh not in model:
            engine.copy_file(path, fresh)
            model[fresh] = data
        elif op == "clone_range":
            # Slot boundaries of the source, and now and then a byte past
            # one: accepted and refused clones both reach the log.
            inode = engine.inode(path)
            bounds = [inode.offset_of_slot(i) for i in range(inode.num_slots + 1)]
            start = rng.choice(bounds)
            end = rng.choice([b for b in bounds if b >= start]) + (rng.random() < 0.2)
            target = rng.choice(paths)
            if engine.clone_range(path, start, target, len(model[target]), end - start):
                model[target] += data[start:end]
        return False

    @pytest.mark.parametrize("seed", range(25))
    def test_log_replay_equals_checkpoint_and_model(self, seed):
        rng = random.Random(seed)
        device, engine = _mounted(
            journal_blocks=rng.choice((8, 12, 16)), block_size=128
        )
        model: dict[str, bytes] = {}
        durable: dict[str, bytes] = {}
        for __ in range(160):
            if self._step(rng, engine, model):
                durable = dict(model)
                # What the log says happened is what the engine holds.
                replayed = CompressDB.mount(copy.deepcopy(device))
                assert _state(replayed) == durable
                assert _structure(replayed) == _structure(engine)
                assert _violations(replayed) == 0  # counts == references
        # A fresh mount ignores everything after the last fsync ...
        replayed = CompressDB.mount(copy.deepcopy(device))
        assert _state(replayed) == durable
        # ... and equals, inode by inode and count by count, what a
        # forced checkpoint of that state mounts as.
        replayed.remount()
        replayed.fsync()
        assert replayed.device.head == 0
        checkpointed = CompressDB.mount(replayed.device.inner)
        assert _structure(checkpointed) == _structure(replayed)
        assert _state(checkpointed) == durable
        _assert_clean(checkpointed)
        assert _counter(engine, "engine.delta.record_bytes") > 0


# ---------------------------------------------------------------------------
# Images written by the commit before this format
# ---------------------------------------------------------------------------

_LEGACY = b"legacy " * 40
_LEGACY_BLOCKS = [_LEGACY[i : i + 128].hex() for i in range(0, len(_LEGACY), 128)]

# CompressDB.mount(MemoryBlockDevice(block_size=128), journal_blocks=9) at
# the parent commit: write_file /a, fsync, write_file /dir/ü, copy_file
# /a -> /b, snapshot "s1", fsync.  Block contents as hex, zeros stripped.
_V4_JOURNALED = [
    "00424452504d4f4304000000800000001200000000000000010000000900000011",
    "314a4244543435040200000000000000010000000000000000000000ce4fbf33",
    "00424452504d4f4304000000800000001200000000000000010000000900000011",
    "314a4244434d4d54020000000000000001000000af9d366b",
    "", "", "", "", "", "",
    *_LEGACY_BLOCKS,
    "", "",
    b"second file".hex(),
    "040000000a00000000000000040000000b00000000000000040000000c00000000000000"
    "040000000f0000000000000002",
    "ffffffffffffffff29000000010102733103022f61030a80010b80010c18022f62030a80"
    "010b80010c18072f6469722fc3bc010f0b",
    "ffffffffffffffff26000000011003022f61030a80010b80010c18022f62030a80010b80"
    "010c18072f6469722fc3bc010f0b",
]

# The same image after the parent appended "TAIL" to /a, unlinked /b and
# crashed in fsync between the journal append (LSN 3) and the in-place
# apply: block 0 still points at the old chain, the batch at the new one.
_V4_UNAPPLIED = [
    "00424452504d4f4304000000800000001200000000000000010000000900000011",
    "314a4244543435040300000000000000010000000000000000000000f17f4702",
    "00424452504d4f4304000000800000001300000000000000010000000900000011",
    "314a4244434d4d54030000000000000001000000c0d193f0",
    "", "", "", "", "", "",
    *_LEGACY_BLOCKS,
    "050000000a00000000000000030000000b00000000000000030000000c00000000000000"
    "020000000e00000000000000010000000f0000000000000002",
    (_LEGACY[256:] + b"TAIL").hex(),
    b"second file".hex(),
    "040000000a00000000000000040000000b00000000000000040000000c00000000000000"
    "040000000f0000000000000002",
    "ffffffffffffffff29000000010102733103022f61030a80010b80010c18022f62030a80"
    "010b80010c18072f6469722fc3bc010f0b",
    "ffffffffffffffff26000000011003022f61030a80010b80010c18022f62030a80010b80"
    "010c18072f6469722fc3bc010f0b",
    "ffffffffffffffff1a000000010d02022f61030a80010b80010e1c072f6469722fc3bc01"
    "0f0b",
]

# An unjournaled image of the same three files whose superblock the
# parent's own _SUPERBLOCK_V3 packed (the layout before snapshots).
_V3 = [
    "00424452504d4f43030000008000000006",
    *_LEGACY_BLOCKS,
    b"second file".hex(),
    "040000000100000000000000020000000200000000000000020000000300000000000000"
    "02000000040000000000000001",
    "ffffffffffffffff26000000010503022f61030180010280010318022f62030180010280"
    "010318072f6469722fc3bc01040b",
]


def _device_from(blocks):
    device = MemoryBlockDevice(block_size=128)
    for __ in blocks:
        device.allocate()
    device.write_blocks(
        [(no, bytes.fromhex(data)) for no, data in enumerate(blocks) if data]
    )
    return device


def _version(device):
    return sb._SUPERBLOCK_V3.unpack_from(device.read_block(0), 0)[1]


class TestLegacyImages:
    FILES = {"/a": _LEGACY, "/b": _LEGACY, "/dir/ü": b"second file"}

    def _roundtrip(self, device, files, snapshots):
        engine = CompressDB.mount(device)
        assert _state(engine) == files
        assert engine.snapshots.names() == snapshots
        _assert_clean(engine)
        engine.ops.append("/a", b" and on")
        engine.fsync()  # may be a record: the image stays its old version
        engine.snapshots.create("now")  # a checkpoint, whatever the log holds
        engine.fsync()
        assert _version(device) == 5
        assert sb.read_layout(device).checkpoint_lsn == (
            engine.device.lsn - 1 if engine.journaled else 0
        )
        again = CompressDB.mount(device)
        assert _state(again) == {**files, "/a": files["/a"] + b" and on"}
        assert again.snapshots.names() == snapshots + ["now"]
        _assert_clean(again)

    def test_v4_journaled_image_mounts_and_becomes_v5(self):
        device = _device_from(_V4_JOURNALED)
        assert _version(device) == 4
        self._roundtrip(device, self.FILES, ["s1"])

    def test_v4_first_fsync_may_log_onto_the_old_image(self):
        """checkpoint_lsn reads 0, so the log continues from whatever
        LSN the old writer's last batch carries."""
        device = _device_from(_V4_JOURNALED)
        engine = CompressDB.mount(device)
        assert (engine.device.lsn, engine.device.head) == (3, 3)
        engine.ops.append("/b", b"!")
        engine.fsync()
        assert _counter(engine, "engine.checkpoints") == 0 and _version(device) == 4
        again = CompressDB.mount(device)
        assert again.read_file("/b") == _LEGACY + b"!"
        assert (again.device.lsn, again.device.head) == (4, 4)  # 3 legacy + 1
        _assert_clean(again)

    def test_v4_unapplied_batch_is_replayed_whatever_its_lsn(self):
        device = _device_from(_V4_UNAPPLIED)
        files = {"/a": _LEGACY + b"TAIL", "/dir/ü": b"second file"}
        self._roundtrip(device, files, ["s1"])

    def test_v3_image_mounts_and_becomes_v5(self):
        device = _device_from(_V3)
        assert _version(device) == 3
        self._roundtrip(device, self.FILES, [])


class TestPinnedBytes:
    """On-disk bytes this format added, as literals."""

    def test_superblock_v5(self):
        device = MemoryBlockDevice(block_size=128)
        sb.format_device(device, journal_blocks=6)
        sb.write_superblock(device, sb.Layout(15, 1, 6, 14, 0x0102))
        assert device.read_block(0).rstrip(b"\x00").hex() == (
            "00424452504d4f4305000000800000000f0000000000000001000000060000000e"
            "000000000000000201"
        )
        assert sb.read_layout(device) == sb.Layout(15, 1, 6, 14, 0x0102)

    def test_delta_record(self):
        whole = Inode(block_size=128)
        whole.append_slot(Slot(7, 128))
        whole.append_slot(Slot(300, 5))
        edited = Inode(block_size=128)
        for block_no in (1, 2, 3, 4):
            edited.append_slot(Slot(block_no, 128))
        edited.mark_clean()
        edited.append_slot(Slot(9, 10))
        edited.insert_slot(1, Slot(8, 128))
        edited.set_used(5, 11)
        edited.replace_slot(0, Slot(200, 128))
        edited.remove_slot(2)
        payload = sb.serialize_delta(
            ["/gone", "/dir/ü"], {"/w": whole, "/e": edited}, {300: 1, 9: 0, 7: 2}
        )
        assert payload.hex() == (
            "02" "072f6469722fc3bc" "052f676f6e65"
            "02"
            "022f65" "01" "05" "00090a" "0101088001" "04050b" "0300c8018001" "0202"
            "022f77" "00" "02" "078001" "ac0205"
            "03" "0702" "0900" "ac0201"
        )
        assert [op[0] for op in edited.delta_ops()][2:] == [
            OP_SET_USED, OP_REPLACE, OP_REMOVE,
        ]
        assert edited.delta_ops()[0] == (OP_APPEND, 9, 10)
        # Applied to the durable predecessor it rebuilds the same tables.
        base = Inode(block_size=128)
        for block_no in (1, 2, 3, 4):
            base.append_slot(Slot(block_no, 128))
        inodes = {"/e": base, "/gone": Inode(block_size=128)}
        counts = {}
        sb.apply_delta(
            payload + b"\x00" * 20, inodes, counts.__setitem__,
            lambda: Inode(block_size=128),
        )
        assert sorted(inodes) == ["/e", "/w"]
        assert inodes["/e"].all_block_numbers() == edited.all_block_numbers()
        assert [s.used for s in inodes["/e"].iter_slots()] == [
            s.used for s in edited.iter_slots()
        ]
        assert inodes["/w"].all_block_numbers() == [7, 300]
        assert counts == {7: 2, 9: 0, 300: 1}

    def test_nothing_changed_is_no_record(self):
        assert sb.serialize_delta([], {}, {}) == b""

    def test_a_long_op_list_collapses_to_the_whole_inode(self):
        inode = Inode(block_size=128)
        inode.append_slot(Slot(1, 128))
        inode.mark_clean()
        inode.set_used(0, 5)
        assert inode.delta_ops() == [(OP_SET_USED, 0, 5)]
        inode.set_used(0, 6)  # two operations cost more than one slot
        assert inode.delta_ops() is None and inode.dirty
        inode.mark_clean()
        assert not inode.dirty

    def test_log_region_holds_the_record_under_the_reserved_tag(self):
        device, engine = _mounted(journal_blocks=6, block_size=128)
        engine.write_file("/a", b"a" * 100)
        engine.fsync()
        engine.ops.append("/a", b"b")
        engine.fsync()
        (batch,) = Journal(1, 6, 128).recover(device, 2)
        assert batch.tagged == [(LOGICAL_TAG, batch.logical)]
        # One inode, one replace_slot (the durable block is shadowed, not
        # rewritten); the count moves from block 7 to block 10.
        assert batch.logical.rstrip(b"\x00").hex() == (
            "00" "01" "022f61" "01" "01" "03000a65" "02" "0700" "0a01"
        )


# ---------------------------------------------------------------------------
# Only a typed error may escape a decoder of persistent bytes
# ---------------------------------------------------------------------------


def _damage(rng, device, blocks):
    """One seeded single-byte flip or truncation of one of ``blocks``."""
    block_no = rng.choice(blocks)
    raw = bytearray(device._read(block_no))
    position = rng.randrange(len(raw))
    if rng.randrange(2):
        raw[position] ^= 1 << rng.randrange(8)
    else:
        raw[position:] = bytes(len(raw) - position)
    device._write(block_no, bytes(raw))


class TestHostileBytes:
    def test_damaged_log_region_is_a_torn_tail_or_a_typed_error(self):
        device, engine = _mounted(journal_blocks=16, block_size=128)
        engine.write_file("/a", b"a" * 500)
        engine.write_file("/dir/ü", b"u" * 100)
        engine.fsync()
        prefixes = [_state(engine)]
        for index in range(4):
            engine.ops.insert("/a", 3 + index, b"ins")
            engine.write_file(f"/n{index}", bytes([index]) * 150)
            engine.fsync()
            prefixes.append(_state(engine))
        assert _counter(engine, "engine.checkpoints") == 1
        prefix_sizes = [{p: len(d) for p, d in state.items()} for state in prefixes]
        used = list(range(1, 1 + engine.device.head))
        rng = random.Random(20261003)
        outcomes = {"older": 0, "intact": 0, "rejected": 0}
        for __ in range(1500):
            damaged = copy.deepcopy(device)
            _damage(rng, damaged, used)
            try:
                recovered = CompressDB.mount(damaged)
            except sb.PersistenceError:
                outcomes["rejected"] += 1
                continue
            # An older state: the namespace and sizes of an acknowledged
            # prefix.  (Its *bytes* are only promised for a torn tail —
            # the sweeps above; damage inside the acknowledged log falls
            # back past commits whose frees were already applied.)
            sizes = {p: recovered.file_size(p) for p in recovered.list_files()}
            assert sizes in prefix_sizes
            outcomes["intact" if sizes == prefix_sizes[-1] else "older"] += 1
        # A flipped tag fails its descriptor's CRC: the damage is a torn
        # tail, never a batch naming an impossible home block.
        assert outcomes["older"] > 500 and outcomes["rejected"] == 0

    def test_intact_batch_naming_a_home_past_the_device_is_a_typed_error(self):
        device, engine = _mounted(journal_blocks=16, block_size=128)
        engine.write_file("/a", b"a" * 500)
        engine.fsync()
        journal = Journal(1, 16, 128)
        journal.append_batch(
            device, engine.device.lsn, [(device.total_blocks + 5, b"x")], engine.device.head
        )
        with pytest.raises(sb.PersistenceError, match="corrupt journal"):
            CompressDB.mount(device)

    def test_mutated_delta_record_fails_only_with_persistence_error(self):
        __, engine = _mounted(block_size=128)
        for index in range(5):
            engine.write_file(f"/dir/fïle-{index}", bytes([index]) * (100 + 90 * index))
        engine.fsync()
        engine.unlink("/dir/fïle-0")
        engine.ops.insert("/dir/fïle-3", 10, b"x" * 200)
        engine.truncate("/dir/fïle-4", 50)
        engine.write_file("/new", b"n" * 300)
        dirty = {p: i for p, i in engine._inodes.items() if i.dirty}
        payload = sb.serialize_delta(
            engine._unlinked, dirty, engine.refcount.dirty_counts()
        )
        durable = CompressDB.mount(copy.deepcopy(engine.device.inner))
        tables = _structure(durable)[0]

        def new_inode():
            return Inode(block_size=128, page_capacity=8)

        rng = random.Random(20261003)
        rejected = 0
        for __ in range(1500):
            inodes = {}
            for path, slots in tables.items():
                inodes[path] = new_inode()
                for block_no, used in slots:
                    inodes[path].append_slot(Slot(block_no, used))
                inodes[path].mark_clean()
            try:
                sb.apply_delta(
                    mutate(rng, payload), inodes, lambda block_no, count: None, new_inode
                )
            except sb.PersistenceError:
                rejected += 1
        assert rejected > 300  # the mutations do reach the failure paths

    def test_damaged_raft_log_recovers_a_prefix(self):
        device = MemoryBlockDevice(block_size=128)
        log = RaftLog(device)
        log.set_hard_state(2, "n1")
        for index in range(6):
            log.append(2, [b"cmd-%d-a" % index, b"cmd-%d-b" % index])
        commands = [entry.command for entry in log.entries_from(1)]
        used = list(range(device.total_blocks))
        rng = random.Random(20261003)
        shorter = 0
        for __ in range(500):
            damaged = copy.deepcopy(device)
            _damage(rng, damaged, used)
            recovered = [entry.command for entry in RaftLog(damaged).entries_from(1)]
            assert recovered == commands[: len(recovered)]
            shorter += len(recovered) < len(commands)
        assert shorter > 150
