"""Failure-injection tests: torn writes, corrupt records, crash points.

These exercise the recovery paths the paper's durability discussion
relies on (Section 4.2: the compressed data must survive remounts and
failures of the file system).
"""

import pytest

from repro.databases.common import CorruptRecord, frame_record, read_frames
from repro.databases.minileveldb import MiniLevelDB
from repro.databases.minimongo import MiniMongo
from repro.fs import CompressFS, PassthroughFS


class TestTornFrames:
    def test_torn_tail_frame_is_dropped(self):
        whole = frame_record(b"complete") + frame_record(b"also complete")
        torn = whole + frame_record(b"this one is torn")[:-5]
        assert read_frames(torn) == [b"complete", b"also complete"]

    def test_torn_header_is_dropped(self):
        whole = frame_record(b"complete")
        assert read_frames(whole + b"\x01\x02\x03") == [b"complete"]

    def test_corrupted_body_raises(self):
        frame = bytearray(frame_record(b"payload"))
        frame[-1] ^= 0xFF
        with pytest.raises(CorruptRecord):
            read_frames(bytes(frame))

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            frame_record(b"")

    def test_padding_between_frames_skipped(self):
        data = frame_record(b"a") + b"\x00" * 32 + frame_record(b"b")
        assert read_frames(data) == [b"a", b"b"]

    def test_padded_frame_whose_header_starts_with_zero_bytes(self):
        """Regression: the scanner skipped padding "to the next non-zero
        byte", eating the first header byte of a frame whose CRC32 low
        byte is 0x00 (1 in 256) and raising CorruptRecord."""
        import zlib

        align = 64
        zero_crc = next(
            payload
            for payload in (b"doc-%05d" % i for i in range(100_000))
            if zlib.crc32(payload) & 0xFF == 0
        )
        # Same, with a payload of 256 bytes: length's low byte is 0x00 too.
        zero_crc_and_length = next(
            payload
            for payload in (b"%0256d" % i for i in range(100_000))
            if zlib.crc32(payload) & 0xFF == 0
        )
        assert frame_record(zero_crc)[0] == 0
        assert frame_record(zero_crc_and_length)[0::4][:2] == b"\x00\x00"
        payloads = [b"head", zero_crc, b"plain", zero_crc_and_length, b"tail"]
        data = b""
        for payload in payloads:
            # MiniMongo's writer: pad to the boundary, never under a header.
            gap = -len(data) % align
            if 0 < gap < 8:
                gap += align
            data += b"\x00" * gap + frame_record(payload)
        assert read_frames(data, align) == payloads
        # A torn tail after padding is still dropped, not misparsed.
        assert read_frames(data[:-3], align)[-1] == zero_crc_and_length

    def test_stray_zero_run_cannot_stall_the_scanner(self):
        # Zeros off any boundary (corruption, or a reader told the wrong
        # alignment): the scan must advance, never loop in place.
        data = frame_record(b"a") + b"\x00" * 32 + frame_record(b"b")
        assert read_frames(data, 1024) == [b"a", b"b"]


class TestLSMCrashRecovery:
    def _crash_and_reopen(self, fs, **kwargs):
        """Simulate a crash by discarding the handle and reopening."""
        return MiniLevelDB(fs, **kwargs)

    def test_torn_wal_write_loses_only_last_record(self):
        fs = PassthroughFS(block_size=256)
        db = MiniLevelDB(fs, memtable_limit=1 << 20)
        db.put(b"safe-1", b"v1")
        db.put(b"safe-2", b"v2")
        # Tear the last WAL frame, as a crash mid-append would.
        wal = db._wal_path
        size = fs.stat(wal).size
        fs.truncate(wal, size - 3)
        recovered = self._crash_and_reopen(fs, memtable_limit=1 << 20)
        assert recovered.get(b"safe-1") == b"v1"
        assert recovered.get(b"safe-2") is None  # torn record dropped

    def test_crash_between_flush_and_manifest_is_detected(self):
        fs = PassthroughFS(block_size=256)
        db = MiniLevelDB(fs, memtable_limit=1 << 20)
        for i in range(30):
            db.put(b"k%02d" % i, b"v%02d" % i)
        db.flush_memtable()
        # Crash now: WAL already cleared, manifest written — recovery
        # must serve everything from the SSTable.
        recovered = self._crash_and_reopen(fs, memtable_limit=1 << 20)
        for i in range(30):
            assert recovered.get(b"k%02d" % i) == b"v%02d" % i

    def test_repeated_crash_reopen_cycles(self):
        fs = CompressFS(block_size=256)
        model = {}
        for cycle in range(5):
            db = MiniLevelDB(fs, memtable_limit=512, l0_limit=2)
            for i in range(20):
                key = b"key%02d" % ((cycle * 7 + i) % 40)
                value = b"cycle%d-%d" % (cycle, i)
                db.put(key, value)
                model[key] = value
            # Crash without close(): memtable contents are in the WAL.
        final = MiniLevelDB(fs, memtable_limit=512, l0_limit=2)
        for key, value in model.items():
            assert final.get(key) == value, key


class TestMongoCrashRecovery:
    def test_torn_collection_tail_drops_last_write_only(self):
        fs = PassthroughFS(block_size=256)
        db = MiniMongo(fs)
        db["c"].insert_one({"_id": "a", "v": 1})
        db["c"].insert_one({"_id": "b", "v": 2})
        path = db["c"].path
        fs.truncate(path, fs.stat(path).size - 4)
        recovered = MiniMongo(fs)
        assert recovered["c"].find_one({"_id": "a"}) == {"_id": "a", "v": 1}
        assert recovered["c"].find_one({"_id": "b"}) is None

    def test_reopen_after_many_block_aligned_documents(self):
        """Regression: ~1 in 256 padded records has a CRC starting with
        0x00, so a collection of a few hundred block-aligned documents
        could not be reopened (found by the end-to-end benchmark)."""
        fs = CompressFS(block_size=1024)
        db = MiniMongo(fs)
        docs = {
            f"k{i:05d}": (f"{i:08d}" * 64)[:512] for i in range(400)
        }
        for doc_id, body in docs.items():
            db["c"].insert_one({"_id": doc_id, "body": body})
        reopened = MiniMongo(fs)
        for doc_id, body in docs.items():
            assert reopened["c"].find_one({"_id": doc_id})["body"] == body

    def test_torn_update_keeps_previous_version(self):
        fs = PassthroughFS(block_size=256)
        db = MiniMongo(fs)
        db["c"].insert_one({"_id": "doc", "v": 1})
        db["c"].update_one({"_id": "doc"}, {"$set": {"v": 2}})
        path = db["c"].path
        fs.truncate(path, fs.stat(path).size - 2)  # tear the update record
        recovered = MiniMongo(fs)
        assert recovered["c"].find_one({"_id": "doc"})["v"] == 1

    def test_torn_delete_resurrects_document(self):
        """A torn tombstone means the delete never happened — the
        previous version must come back whole."""
        fs = PassthroughFS(block_size=256)
        db = MiniMongo(fs)
        db["c"].insert_one({"_id": "doc", "v": 1})
        db["c"].delete_one({"_id": "doc"})
        path = db["c"].path
        fs.truncate(path, fs.stat(path).size - 2)
        recovered = MiniMongo(fs)
        assert recovered["c"].find_one({"_id": "doc"})["v"] == 1


# ---------------------------------------------------------------------------
# Engine-level crash points: the write-ahead journal under CrashPointDevice
# ---------------------------------------------------------------------------

import copy

from repro.core.engine import CompressDB
from repro.distributed.chunkserver import ChunkServer
from repro.storage.block_device import (
    CrashPoint,
    CrashPointDevice,
    MemoryBlockDevice,
)
from repro.storage.simclock import SimClock


def _journaled_template(journal_blocks=24, block_size=256):
    """A formatted, journaled device with one committed file on it."""
    device = MemoryBlockDevice(block_size=block_size)
    engine = CompressDB.mount(device, journal_blocks=journal_blocks)
    engine.write_file("/keep", b"pre-existing data " * 30)
    engine.fsync()
    return device


def _engine_state(engine):
    return {path: engine.read_file(path) for path in engine.list_files()}


def _assert_clean(engine):
    report = engine.fsck(repair=False)
    violations = (
        report["refcounts_fixed"]
        + report["blocks_reclaimed"]
        + report["hole_inconsistencies"]
    )
    assert violations == 0, f"fsck found violations: {report}"
    engine.check_invariants()


def _mixed_workload(engine):
    """Mixed create/write/insert/truncate/rename(-over)/unlink ops, one commit each.

    A generator: yields after every fsync so the harness can snapshot
    (when observing) or count completed operations (when crashing).
    """
    engine.create("/new")
    engine.write("/new", 0, b"abc" * 100)
    engine.fsync()
    yield
    engine.ops.insert("/keep", 7, b"MID")
    engine.fsync()
    yield
    engine.truncate("/keep", 100)
    engine.fsync()
    yield
    engine.rename("/new", "/moved")
    engine.fsync()
    yield
    engine.rename("/moved", "/keep")  # replaces /keep, releasing its blocks
    engine.fsync()
    yield
    engine.unlink("/keep")
    engine.fsync()
    yield


class TestEngineCrashMatrix:
    """Kill the process at every device write k; remount; verify.

    The acceptance criterion of the journal: for every crash point the
    remounted image must pass a clean ``fsck`` and its file contents
    must equal *exactly* the pre- or post-image of the interrupted
    operation — never a blend, never a loss of an earlier commit.
    """

    def _snapshots(self, template):
        device = copy.deepcopy(template)
        engine = CompressDB.mount(device)
        snaps = [_engine_state(engine)]
        for __ in _mixed_workload(engine):
            snaps.append(_engine_state(engine))
        return snaps

    def _sweep(self, tear):
        template = _journaled_template()
        snaps = self._snapshots(template)
        crash_points = 0
        k = 1
        while True:
            device = copy.deepcopy(template)
            wrapped = CrashPointDevice(device, crash_after=k, tear=tear)
            completed = 0
            finished = False
            try:
                engine = CompressDB.mount(wrapped)
                for __ in _mixed_workload(engine):
                    completed += 1
                finished = True
            except CrashPoint:
                pass
            if finished:
                break
            recovered = CompressDB.mount(device)
            state = _engine_state(recovered)
            _assert_clean(recovered)
            pre = snaps[completed]
            post = snaps[completed + 1] if completed + 1 < len(snaps) else None
            assert state == pre or state == post, (
                f"crash at write {k} (after op {completed}): recovered "
                f"state matches neither the pre- nor the post-image"
            )
            crash_points += 1
            k += 1
        # The sweep must actually have exercised the workload.
        assert crash_points > 10
        return crash_points

    def test_every_crash_point_recovers_to_pre_or_post_image(self):
        self._sweep(tear=False)

    def test_torn_block_at_crash_point_is_discarded(self):
        """The interrupted write lands half-old/half-new: recovery must
        detect the torn journal record via its CRC and discard it."""
        self._sweep(tear=True)


#: A MiniLevelDB whose 200 B values are block-aligned on 256 B blocks, so
#: a compaction shares them by reference instead of writing them.
_LSM = dict(memtable_limit=1024, l0_limit=3, block_target=512)


def _lsm_value(i, version=0):
    return (b"v%d.%04d-" % (version, i)) * 25


def _lsm_template():
    """Two L0 tables, an overwritten key, a tombstone and a WAL tail,
    all committed — the next flush fills L0 and compacts."""
    device = MemoryBlockDevice(block_size=256)
    engine = CompressDB.mount(device, journal_blocks=48)
    db = MiniLevelDB(CompressFS(engine=engine), "/db", **_LSM)
    model = {}
    for i in range(12):
        model[b"k%02d" % i] = _lsm_value(i)
        db.put(b"k%02d" % i, model[b"k%02d" % i])
    db.put(b"k03", _lsm_value(3, 1))
    model[b"k03"] = _lsm_value(3, 1)
    db.delete(b"k05")
    del model[b"k05"]
    assert db.table_count() == 2
    engine.fsync()
    return device, model


def _compaction_workload(engine, model):
    """Flush + compaction, then fresh puts; one fsync each.  Yields the
    model every completed fsync made durable."""
    db = MiniLevelDB(CompressFS(engine=engine), "/db", **_LSM)
    compactions = db.compactions
    db.flush_memtable()
    assert db.compactions == compactions + 1
    engine.fsync()
    yield dict(model)
    for i in range(12, 16):
        model[b"k%02d" % i] = _lsm_value(i)
        db.put(b"k%02d" % i, model[b"k%02d" % i])
    engine.fsync()
    yield dict(model)


class TestCompactionCrashMatrix:
    """Kill MiniLevelDB at every device write of a compaction that shares
    its records' blocks, and of the fsyncs around it: after remount and
    reopen every put acknowledged before the last completed fsync reads
    back, and fsck is clean."""

    def _sweep(self, tear):
        template, model = _lsm_template()
        counting = CrashPointDevice(copy.deepcopy(template))
        probe = CompressDB.mount(counting)
        assert len(list(_compaction_workload(probe, dict(model)))) == 2
        assert probe.metrics().counter("engine.clone.blocks") > 0
        k = 1
        while True:
            device = copy.deepcopy(template)
            durable = dict(model)
            try:
                engine = CompressDB.mount(CrashPointDevice(device, crash_after=k, tear=tear))
                for durable in _compaction_workload(engine, dict(model)):
                    pass
                break
            except CrashPoint:
                pass
            recovered = CompressDB.mount(device)
            _assert_clean(recovered)
            db = MiniLevelDB(CompressFS(engine=recovered), "/db", **_LSM)
            got = dict(db.scan())
            assert got.items() >= durable.items(), f"crash at write {k}"
            assert all(got[key] == _lsm_value(int(key[1:])) for key in got.keys() - durable)
            assert b"k05" not in got
            k += 1
        assert k == counting.writes_seen + 1  # every write was a crash point

    def test_every_crash_point_keeps_the_acknowledged_puts(self):
        self._sweep(tear=False)

    def test_every_torn_write_keeps_the_acknowledged_puts(self):
        self._sweep(tear=True)


class TestFsyncDurability:
    """Satellite: data synced by fsync survives any later crash."""

    def test_crash_after_fsync_never_loses_synced_data(self):
        template = _journaled_template()
        payload = b"must survive " * 64
        # Write + fsync on a pristine copy, counting the writes it takes.
        device = copy.deepcopy(template)
        counter = CrashPointDevice(device, crash_after=None)
        engine = CompressDB.mount(counter)
        engine.write_file("/durable", payload)
        engine.fsync()
        writes_to_sync = counter.writes_seen
        # Now crash at every write *after* that fsync during further
        # mutations: /durable must always come back intact.
        for k in range(writes_to_sync + 1, writes_to_sync + 30):
            device = copy.deepcopy(template)
            wrapped = CrashPointDevice(device, crash_after=k)
            try:
                engine = CompressDB.mount(wrapped)
                engine.write_file("/durable", payload)
                engine.fsync()
                engine.write_file("/later-1", b"x" * 900)
                engine.fsync()
                engine.ops.insert("/keep", 3, b"yyy")
                engine.fsync()
                engine.unlink("/durable")
                engine.fsync()
                break  # workload finished before write k: sweep done
            except CrashPoint:
                pass
            recovered = CompressDB.mount(device)
            if k <= writes_to_sync:
                continue
            state = _engine_state(recovered)
            # Once fsync returned, the file exists with the synced bytes
            # until the unlink *commits* — a crash can only land on
            # images where /durable is whole (or already unlinked).
            if "/durable" in state:
                assert state["/durable"] == payload
            else:
                # The unlink committed; the rest of the image must be
                # consistent.
                _assert_clean(recovered)

    def test_fsync_reaches_the_device_not_a_buffer(self):
        """Regression (satellite): FileSystem.fsync used to only flush
        the engine's coalescing buffer; it must commit the journal."""
        from repro.fs.compressfs import CompressFS
        from repro.fs import fd as fdmod

        template = _journaled_template()
        device = copy.deepcopy(template)
        engine = CompressDB.mount(device)
        fs = CompressFS(engine=engine)
        fd = fs.open("/synced", fdmod.O_CREAT | fdmod.O_WRONLY)
        fs.write(fd, b"synced bytes")
        fs.fsync(fd)
        # Crash: discard all in-memory state, remount the raw device.
        recovered = CompressDB.mount(device)
        assert recovered.read_file("/synced") == b"synced bytes"
        _assert_clean(recovered)

    def test_close_is_a_commit_point(self):
        from repro.fs.compressfs import CompressFS
        from repro.fs import fd as fdmod

        device = copy.deepcopy(_journaled_template())
        fs = CompressFS(engine=CompressDB.mount(device))
        fd = fs.open("/closed", fdmod.O_CREAT | fdmod.O_WRONLY)
        fs.write(fd, b"closed bytes")
        fs.close(fd)
        recovered = CompressDB.mount(device)
        assert recovered.read_file("/closed") == b"closed bytes"

    def test_unflushed_changes_after_last_fsync_are_lost_cleanly(self):
        """The converse guarantee: uncommitted staged writes vanish as a
        unit — the previous image comes back whole."""
        template = _journaled_template()
        device = copy.deepcopy(template)
        engine = CompressDB.mount(device)
        engine.write_file("/never-synced", b"vanishes")
        # No fsync: simulated crash by dropping the engine.
        recovered = CompressDB.mount(device)
        assert not recovered.exists("/never-synced")
        assert recovered.read_file("/keep") == b"pre-existing data " * 30
        _assert_clean(recovered)


class TestRenameAtomicity:
    """Satellite: rename lands on old name or new name, never both/neither."""

    def test_rename_is_atomic_at_every_crash_point(self):
        template = _journaled_template()
        original = b"pre-existing data " * 30
        k = 1
        swept = 0
        while True:
            device = copy.deepcopy(template)
            wrapped = CrashPointDevice(device, crash_after=k)
            finished = False
            try:
                engine = CompressDB.mount(wrapped)
                engine.rename("/keep", "/renamed")
                engine.fsync()
                finished = True
            except CrashPoint:
                pass
            recovered = CompressDB.mount(device)
            names = set(recovered.list_files())
            assert names in ({"/keep"}, {"/renamed"}), (
                f"crash at write {k}: rename left names {names}"
            )
            surviving = next(iter(names))
            assert recovered.read_file(surviving) == original
            _assert_clean(recovered)
            if finished:
                break
            swept += 1
            k += 1
        assert swept > 0


class TestJournalReplayIdempotency:
    """Satellite: mounting (= replaying) twice converges to one state."""

    def test_double_replay_is_a_noop(self):
        template = _journaled_template()
        device = copy.deepcopy(template)
        # Crash mid-commit so the journal carries a committed batch the
        # home locations have not fully absorbed.
        wrapped = CrashPointDevice(device, crash_after=None)
        engine = CompressDB.mount(wrapped)
        engine.ops.insert("/keep", 5, b"JJJ")
        try:
            wrapped.crash_after = wrapped.writes_seen + 2
            engine.fsync()
        except CrashPoint:
            pass
        once = copy.deepcopy(device)
        CompressDB.mount(once)
        dump_once = [once.read_block(i) for i in range(once.total_blocks)]
        twice = copy.deepcopy(device)
        CompressDB.mount(twice)
        CompressDB.mount(twice)
        dump_twice = [twice.read_block(i) for i in range(twice.total_blocks)]
        assert dump_once == dump_twice


class TestChunkServerRestart:
    """Tentpole integration: a durable chunkserver replays its journal
    on restart instead of resyncing chunks from the master."""

    def _server(self):
        return ChunkServer(
            "cs-1", clock=SimClock(), compressed=True, durable=True,
            block_size=256,
        )

    def test_restart_replays_committed_chunk_mutations(self):
        server = self._server()
        server.create_chunk("c1")
        server.append("c1", b"first segment ")
        server.append("c1", b"second segment")
        server.insert("c1", 0, b">>")
        server.restart()
        assert server.read("c1", 0, 100) == b">>first segment second segment"

    def test_restart_discards_nothing_that_was_acknowledged(self):
        server = self._server()
        server.create_chunk("a")
        server.write("a", 0, b"A" * 700)
        server.create_chunk("b")
        server.write("b", 0, b"B" * 300)
        server.delete_chunk("a")
        server.restart()
        assert server.chunk_ids() == ["b"]
        assert server.read("b", 0, 300) == b"B" * 300

    def test_nondurable_server_cannot_restart(self):
        server = ChunkServer("cs-2", clock=SimClock(), durable=False)
        with pytest.raises(ValueError):
            server.restart()


# ---------------------------------------------------------------------------
# Group-commit crash points: one journal sequence covers N sessions
# ---------------------------------------------------------------------------


class TestGroupCommitCrashMatrix:
    """Kill the device at every write during an MVCC group commit.

    Four sessions commit into one group and flush once — a single
    journal commit sequence.  For every crash point the remounted image
    must pass a clean fsck and hold either *none* of the sessions'
    writes or *all* of them: the batch is atomic as a unit, so no crash
    may surface a prefix of the group.
    """

    PAYLOADS = [
        (f"/writer-{index}", f"session {index} payload ".encode() * 20)
        for index in range(4)
    ]

    def _apply_group(self, engine):
        sessions = [engine.mvcc.begin() for __ in self.PAYLOADS]
        for session, (path, data) in zip(sessions, self.PAYLOADS):
            session.create(path)
            session.write(path, 0, data)
        tickets = [session.commit() for session in sessions]
        engine.mvcc.flush_group()
        return tickets

    def _images(self, template):
        device = copy.deepcopy(template)
        engine = CompressDB.mount(device)
        pre = _engine_state(engine)
        tickets = self._apply_group(engine)
        post = _engine_state(engine)
        assert all(ticket.durable for ticket in tickets)
        assert len({ticket.lsn for ticket in tickets}) <= 1
        return pre, post

    def _sweep(self, tear):
        template = _journaled_template()
        pre, post = self._images(template)
        assert pre != post
        crash_points = 0
        k = 1
        while True:
            device = copy.deepcopy(template)
            wrapped = CrashPointDevice(device, crash_after=k, tear=tear)
            finished = False
            try:
                engine = CompressDB.mount(wrapped)
                self._apply_group(engine)
                finished = True
            except CrashPoint:
                pass
            if finished:
                break
            recovered = CompressDB.mount(device)
            state = _engine_state(recovered)
            _assert_clean(recovered)
            assert state == pre or state == post, (
                f"crash at write {k}: recovered a partial group commit — "
                f"{sorted(state)} is neither all four sessions nor none"
            )
            crash_points += 1
            k += 1
        # The group's one commit: eight fresh blocks written home, then
        # one sealed journal block carrying the delta record.
        assert crash_points == 8 + 1
        return crash_points

    def test_every_group_commit_crash_point_is_all_or_nothing(self):
        self._sweep(tear=False)

    def test_torn_write_inside_the_group_batch_discards_it_whole(self):
        self._sweep(tear=True)


# ---------------------------------------------------------------------------
# Snapshot crash points: every snapshot mutation commits atomically
# ---------------------------------------------------------------------------


def _snap_state(engine):
    """Everything a snapshot crash can damage: live files AND frozen images."""
    files = {path: engine.read_file(path) for path in engine.list_files()}
    snaps = {
        name: {
            path: engine.snapshots.read(name, path)
            for path in engine.snapshots.get(name).files
        }
        for name in engine.snapshots.names()
    }
    return files, snaps


def _snap_workload(engine):
    """Snapshot lifecycle mixed with live mutations, one commit each."""
    engine.snapshots.create("base")
    engine.fsync()
    yield
    engine.write("/keep", 0, b"overwritten after the base snapshot!")
    engine.fsync()
    yield
    engine.snapshots.create("second")
    engine.fsync()
    yield
    engine.snapshots.clone("base", "/restore")
    engine.fsync()
    yield
    engine.snapshots.rollback("base")
    engine.fsync()
    yield
    engine.snapshots.delete("second")
    engine.fsync()
    yield


class TestSnapshotCrashMatrix:
    """Kill the process at every device write during snapshot create /
    clone / rollback / delete; remount; the recovered image must pass a
    clean fsck (snapshot references included) and equal exactly the
    pre- or post-image of the interrupted operation — live files and
    frozen snapshot contents both."""

    def _observe(self, template):
        device = copy.deepcopy(template)
        engine = CompressDB.mount(device)
        states = [_snap_state(engine)]
        for __ in _snap_workload(engine):
            states.append(_snap_state(engine))
        return states

    def test_every_snapshot_crash_point_recovers_to_pre_or_post_image(self):
        template = _journaled_template()
        states = self._observe(template)
        crash_points = 0
        k = 1
        while True:
            device = copy.deepcopy(template)
            wrapped = CrashPointDevice(device, crash_after=k)
            completed = 0
            finished = False
            try:
                engine = CompressDB.mount(wrapped)
                for __ in _snap_workload(engine):
                    completed += 1
                finished = True
            except CrashPoint:
                pass
            if finished:
                break
            recovered = CompressDB.mount(device)
            state = _snap_state(recovered)
            _assert_clean(recovered)
            pre = states[completed]
            post = states[completed + 1] if completed + 1 < len(states) else None
            assert state == pre or state == post, (
                f"crash at write {k} (after op {completed}): recovered "
                f"snapshot state matches neither the pre- nor the post-image"
            )
            crash_points += 1
            k += 1
        assert crash_points > 10
