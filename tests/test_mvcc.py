"""MVCC sessions: snapshot isolation, conflicts, group commit.

The tentpole contract under test (DESIGN.md §13): read transactions see
a frozen point-in-time image of every inode they touch (repeatable
reads, no dirty reads), writers buffer privately and commit
first-committer-wins under per-inode locks, and concurrent committers
share one journal commit sequence (group commit).  The independent
snapshot-isolation checker is itself under test here — it must accept
every recorded real history and provably reject injected dirty-read
and lost-update histories.
"""

import pytest

from repro.locks import (
    LockOrderSanitizer,
    LockOrderViolation,
    TrackedLock,
    check_agreement,
    install_sanitizer,
    rank_of,
    uninstall_sanitizer,
)
from repro.core.engine import CompressDB
from repro.distributed.interleave import run_mvcc_sessions
from repro.fs import fd as fdmod
from repro.fs.compressfs import CompressFS
from repro.fs.errors import BadFileDescriptor, FileExists, FileNotFound, InvalidArgument
from repro.fs.sessionfs import SessionFS
from repro.mvcc import (
    HistoryEvent,
    SessionClosed,
    WriteConflict,
    check_history,
)
from repro.storage.block_device import MemoryBlockDevice


def _engine(journal_blocks=None, block_size=512):
    return CompressDB.mount(
        MemoryBlockDevice(block_size=block_size), journal_blocks=journal_blocks
    )


class TestSessionBasics:
    def test_commit_publishes_buffered_writes(self):
        engine = _engine()
        session = engine.mvcc.begin()
        session.create("/a")
        session.write("/a", 0, b"hello")
        assert not engine.exists("/a")  # buffered, not yet visible
        ticket = session.commit()
        assert engine.read_file("/a") == b"hello"
        assert ticket.csn >= 1 and not ticket.read_only

    def test_repeatable_reads_under_concurrent_overwrite(self):
        engine = _engine()
        engine.write_file("/shared", b"original content")
        reader = engine.mvcc.begin()
        assert reader.read("/shared", 0, 8) == b"original"
        writer = engine.mvcc.begin()
        writer.write_file("/shared", b"REPLACED content")
        writer.commit()
        assert engine.read_file("/shared") == b"REPLACED content"
        # The reader's view is pinned at its snapshot.
        assert reader.read("/shared", 0, 8) == b"original"
        assert reader.read_file("/shared") == b"original content"
        reader.commit()

    def test_read_your_writes(self):
        engine = _engine()
        engine.write_file("/f", b"0123456789")
        session = engine.mvcc.begin()
        session.write("/f", 2, b"XX")
        assert session.read("/f", 0, 10) == b"01XX456789"
        session.truncate("/f", 4)
        assert session.read_file("/f") == b"01XX"
        session.append("/f", b"!")
        assert session.file_size("/f") == 5
        session.abort()
        assert engine.read_file("/f") == b"0123456789"

    def test_namespace_ops_are_snapshot_scoped(self):
        engine = _engine()
        engine.write_file("/old", b"data")
        session = engine.mvcc.begin()
        session.rename("/old", "/new")
        assert session.exists("/new") and not session.exists("/old")
        assert sorted(session.list_files()) == ["/new"]
        assert engine.exists("/old")  # engine unchanged until commit
        session.commit()
        assert engine.list_files() == ["/new"]
        assert engine.read_file("/new") == b"data"

    def test_create_of_existing_and_unlink_of_absent_raise(self):
        engine = _engine()
        engine.write_file("/f", b"x")
        session = engine.mvcc.begin()
        with pytest.raises(FileExists):
            session.create("/f")
        with pytest.raises(FileNotFound):
            session.unlink("/missing")
        session.abort()

    def test_closed_session_rejects_operations(self):
        engine = _engine()
        session = engine.mvcc.begin()
        session.commit()
        with pytest.raises(SessionClosed):
            session.read("/f", 0, 1)
        with pytest.raises(SessionClosed):
            session.commit()

    def test_engine_session_context_commits_and_aborts(self):
        engine = _engine()
        with engine.session() as session:
            session.create("/ctx")
            session.write("/ctx", 0, b"committed")
        assert engine.read_file("/ctx") == b"committed"
        with pytest.raises(RuntimeError, match="boom"):
            with engine.session() as session:
                session.write_file("/ctx", b"never lands")
                raise RuntimeError("boom")
        assert engine.read_file("/ctx") == b"committed"


class TestConflicts:
    def test_first_committer_wins(self):
        engine = _engine()
        engine.write_file("/contested", b"base")
        first = engine.mvcc.begin()
        second = engine.mvcc.begin()
        first.write_file("/contested", b"first")
        second.write_file("/contested", b"second")
        first.commit()
        before = engine.metrics().counter("mvcc.conflicts")
        with pytest.raises(WriteConflict, match="/contested"):
            second.commit()
        assert engine.metrics().counter("mvcc.conflicts") == before + 1
        assert not second.active
        assert engine.read_file("/contested") == b"first"

    def test_disjoint_write_sets_do_not_conflict(self):
        engine = _engine()
        a, b = engine.mvcc.begin(), engine.mvcc.begin()
        a.create("/a")
        a.write("/a", 0, b"A")
        b.create("/b")
        b.write("/b", 0, b"B")
        a.commit()
        b.commit()  # no overlap: both win
        assert engine.read_file("/a") == b"A"
        assert engine.read_file("/b") == b"B"

    def test_read_only_sessions_never_conflict(self):
        engine = _engine()
        engine.write_file("/f", b"data")
        reader = engine.mvcc.begin()
        reader.read("/f", 0, 4)
        writer = engine.mvcc.begin()
        writer.write_file("/f", b"new!")
        writer.commit()
        ticket = reader.commit()  # read-only: durable by construction
        assert ticket.read_only and ticket.durable


class TestVersionRetention:
    def test_pre_image_retained_for_active_reader_then_pruned(self):
        engine = _engine()
        engine.write_file("/doc", b"version one " * 40)
        reader = engine.mvcc.begin()
        assert reader.read("/doc", 0, 11) == b"version one"
        writer = engine.mvcc.begin()
        writer.write_file("/doc", b"version two " * 40)
        writer.commit()
        assert engine.mvcc.versions.retained_count() >= 0
        assert engine.refcount.total_pins() > 0
        assert reader.read_file("/doc") == b"version one " * 40
        reader.commit()
        # Last interested session gone: pins off, orphans freed.
        assert engine.refcount.total_pins() == 0
        assert engine.mvcc.versions.retained_count() == 0
        report = engine.fsck(repair=False)
        assert report["refcounts_fixed"] == 0
        assert report["blocks_reclaimed"] == 0

    def test_reader_after_commit_sees_new_version(self):
        engine = _engine()
        engine.write_file("/doc", b"old")
        early = engine.mvcc.begin()
        writer = engine.mvcc.begin()
        writer.write_file("/doc", b"new")
        writer.commit()
        late = engine.mvcc.begin()
        assert early.read_file("/doc") == b"old"
        assert late.read_file("/doc") == b"new"
        early.commit()
        late.commit()

    def test_unlinked_file_stays_readable_in_old_snapshot(self):
        engine = _engine()
        engine.write_file("/doomed", b"still here " * 30)
        reader = engine.mvcc.begin()
        assert reader.exists("/doomed")
        with engine.session() as killer:
            killer.unlink("/doomed")
        assert not engine.exists("/doomed")
        assert reader.read_file("/doomed") == b"still here " * 30
        reader.commit()
        assert engine.refcount.total_pins() == 0

    def test_fsck_and_invariants_clean_with_active_pins(self):
        engine = _engine()
        engine.write_file("/pinned", b"pinned bytes " * 50)
        reader = engine.mvcc.begin()
        reader.read("/pinned", 0, 6)
        with engine.session() as writer:
            writer.write_file("/pinned", b"overwritten " * 50)
        assert engine.refcount.total_pins() > 0
        report = engine.fsck(repair=False)
        assert report["refcounts_fixed"] == 0
        assert report["blocks_reclaimed"] == 0
        engine.check_invariants()
        reader.commit()

    def test_pins_survive_remount_in_process(self):
        engine = _engine(journal_blocks=32)
        engine.write_file("/stable", b"pre-remount " * 40)
        engine.fsync()
        reader = engine.mvcc.begin()
        assert reader.read("/stable", 0, 11) == b"pre-remount"
        with engine.session() as writer:
            writer.write_file("/stable", b"post-commit " * 40)
        engine.fsync()
        engine.remount()
        # The rebuilt index must still cover pinned-only blocks, and the
        # snapshot read must keep serving the pre-image.
        assert reader.read_file("/stable") == b"pre-remount " * 40
        engine.check_invariants()
        reader.commit()
        assert engine.refcount.total_pins() == 0


class TestGroupCommit:
    def test_sixteen_writers_two_journal_sequences(self):
        engine = _engine(journal_blocks=64)
        device = engine.device
        lsn_before = device.lsn
        sessions = []
        for index in range(16):
            session = engine.mvcc.begin()
            session.create(f"/w{index:02d}")
            session.write(f"/w{index:02d}", 0, b"x" * 64)
            sessions.append(session)
        tickets = [session.commit() for session in sessions]
        # group_size=8 auto-flushes twice; nothing left pending.
        assert engine.mvcc.pending_group == 0
        assert device.lsn - lsn_before == 2
        assert all(ticket.durable for ticket in tickets)
        assert len({ticket.lsn for ticket in tickets}) == 2
        snap = engine.metrics()
        assert snap.counter("mvcc.group_commit.batches") == 2
        assert snap.counter("mvcc.group_commit.sessions") == 16
        hist = snap.histograms["mvcc.group_commit.batch_size"]
        assert hist.count == 2 and hist.sum == 16

    def test_explicit_flush_below_group_size(self):
        engine = _engine(journal_blocks=64)
        lsn_before = engine.device.lsn
        tickets = []
        for index in range(3):
            with engine.session() as session:
                session.create(f"/small{index}")
                session.write(f"/small{index}", 0, b"y")
                tickets.append(session)
        tickets = [session.ticket for session in tickets]
        assert engine.mvcc.pending_group == 3
        assert not any(ticket.durable for ticket in tickets)
        batch = engine.mvcc.flush_group()
        assert batch == 3
        assert engine.device.lsn - lsn_before == 1
        assert all(ticket.durable for ticket in tickets)
        assert len({ticket.lsn for ticket in tickets}) == 1

    def test_group_commit_without_journal_still_acks(self):
        engine = _engine()  # plain device: no enqueue_ack
        with engine.session() as session:
            session.create("/plain")
            session.write("/plain", 0, b"z")
        assert engine.mvcc.flush_group() == 1
        assert session.ticket.durable


class TestSanitizerInodeTier:
    def test_inode_rank_resolution(self):
        assert rank_of("mvcc.inode.lock[/a]") == 3
        assert rank_of("master.lock") == 0

    def test_master_under_inode_is_an_inversion(self):
        sanitizer = install_sanitizer(LockOrderSanitizer())
        try:
            inode = TrackedLock(
                "mvcc.inode.lock[/x]", rank=3, order_key="mvcc.inode.lock"
            )
            master = TrackedLock("master.lock", rank=0)
            with pytest.raises(LockOrderViolation, match="inversion"):
                with inode:
                    with master:
                        pass
        finally:
            uninstall_sanitizer()

    def test_sibling_inode_locks_share_order_key(self):
        sanitizer = install_sanitizer(LockOrderSanitizer())
        try:
            locks = [
                TrackedLock(
                    f"mvcc.inode.lock[/p{i}]", rank=3, order_key="mvcc.inode.lock"
                )
                for i in range(3)
            ]
            with locks[0], locks[1], locks[2]:
                pass  # sorted sibling acquisition is not an inversion
            assert sanitizer.violations == []
        finally:
            uninstall_sanitizer()

    def test_session_contexts_key_by_session_identity(self):
        engine = _engine()
        s1, s2 = engine.mvcc.begin(), engine.mvcc.begin()
        sanitizer = LockOrderSanitizer()
        with sanitizer.session(s1):
            key1 = sanitizer.context_key()
        with sanitizer.session(s2):
            key2 = sanitizer.context_key()
        assert key1 != key2
        assert key1[1] == s1.session_key
        s1.abort()
        s2.abort()

    def test_driver_under_sanitizer_agrees_with_declared_order(self):
        sanitizer = install_sanitizer(LockOrderSanitizer())
        try:
            run_mvcc_sessions(sessions=4, steps=48, seed=11, sanitizer=sanitizer)
        finally:
            uninstall_sanitizer()
        assert sanitizer.violations == []
        assert check_agreement([], sorted(sanitizer.observed_edges())) == []


class TestSessionDescriptors:
    def test_fd_io_routes_through_the_session(self):
        engine = _engine()
        engine.write_file("/doc", b"committed state")
        fs = CompressFS(engine=engine)
        session = engine.mvcc.begin()
        view = SessionFS(fs, session)
        fd = view.open("/doc", fdmod.O_RDWR)
        assert view.read(fd, 9) == b"committed"
        view.pwrite(fd, b"SESSION", 0)
        assert view.pread(fd, 7, 0) == b"SESSION"
        assert engine.read_file("/doc") == b"committed state"
        view.close(fd)
        session.commit()
        assert engine.read_file("/doc") == b"SESSIONed state"

    def test_session_finish_force_closes_descriptors(self):
        engine = _engine()
        engine.write_file("/doc", b"data")
        fs = CompressFS(engine=engine)
        session = engine.mvcc.begin()
        view = SessionFS(fs, session)
        fd = view.open("/doc", fdmod.O_RDONLY)
        session.commit()
        with pytest.raises(BadFileDescriptor):
            view.read(fd, 1)

    def test_conflict_abort_releases_fds_and_pins(self):
        engine = _engine()
        engine.write_file("/contested", b"base " * 40)
        fs = CompressFS(engine=engine)
        loser = engine.mvcc.begin()
        view = SessionFS(fs, loser)
        fd = view.open("/contested", fdmod.O_RDWR)
        view.pwrite(fd, b"loser", 0)
        with engine.session() as winner:
            winner.write_file("/contested", b"winner " * 40)
        with pytest.raises(WriteConflict):
            loser.commit()
        assert view._fds.open_fds() == []
        assert engine.refcount.total_pins() == 0

    def test_failed_sync_on_close_does_not_leak_the_fd(self):
        class ExplodingSyncFS(CompressFS):
            def _sync(self, path):
                raise InvalidArgument("sync exploded")

        engine = _engine()
        engine.write_file("/doc", b"data")
        fs = ExplodingSyncFS(engine=engine)
        fd = fs.open("/doc", fdmod.O_RDWR)
        fs.write(fd, b"dirty")
        with pytest.raises(InvalidArgument, match="sync exploded"):
            fs.close(fd)
        # Regression: the slot must be reclaimed even when sync fails.
        with pytest.raises(BadFileDescriptor):
            fs.read(fd, 1)
        assert fs._fds.open_fds() == []
        assert fs.open("/doc", fdmod.O_RDONLY) == fd  # slot recycled

    def test_snapshot_and_session_open_are_exclusive(self):
        engine = _engine()
        engine.write_file("/doc", b"data")
        fs = CompressFS(engine=engine)
        session = engine.mvcc.begin()
        engine.snapshots.create("snap")
        view = SessionFS(fs, session)
        with pytest.raises(InvalidArgument):
            view.open("/doc", fdmod.O_RDONLY, snapshot="snap")
        assert view._fds.open_fds() == []
        # The named snapshot is served by the base file system.
        fs.close(fs.open("/doc", fdmod.O_RDONLY, snapshot="snap"))
        session.abort()


class TestDatabasesOnSessions:
    def test_minisql_transaction_is_atomic(self):
        from repro.databases.minisql import MiniSQL

        engine = _engine()
        fs = CompressFS(engine=engine)
        with engine.session() as session:
            db = MiniSQL(SessionFS(fs, session), page_size=512)
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            assert engine.list_files() == []  # everything buffered
        reopened = MiniSQL(fs, page_size=512)
        rows = reopened.execute("SELECT id, v FROM t")
        assert rows == [{"id": 1, "v": 10}, {"id": 2, "v": 20}]

    def test_minisql_conflict_rolls_back_every_page(self):
        from repro.databases.minisql import MiniSQL

        engine = _engine()
        fs = CompressFS(engine=engine)
        with engine.session() as setup:
            db = MiniSQL(SessionFS(fs, setup), page_size=512)
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            db.execute("INSERT INTO t VALUES (1, 10)")
        loser = engine.mvcc.begin()
        loser_db = MiniSQL(SessionFS(fs, loser), page_size=512)
        loser_db.execute("UPDATE t SET v = 99 WHERE id = 1")
        with engine.session() as winner:
            MiniSQL(SessionFS(fs, winner), page_size=512).execute(
                "UPDATE t SET v = 42 WHERE id = 1"
            )
        with pytest.raises(WriteConflict):
            loser.commit()
        assert MiniSQL(fs, page_size=512).execute("SELECT v FROM t") == [{"v": 42}]

    def test_minicolumn_on_a_session(self):
        from repro.databases.minicolumn import MiniColumn

        engine = _engine()
        fs = CompressFS(engine=engine)
        with engine.session() as session:
            db = MiniColumn(SessionFS(fs, session))
            db.execute("CREATE TABLE t (id INT, name TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        rows = MiniColumn(fs).execute("SELECT id FROM t")
        assert [row["id"] for row in rows] == [1, 2]

    def test_minileveldb_on_a_session(self):
        from repro.databases.minileveldb import MiniLevelDB

        engine = _engine()
        fs = CompressFS(engine=engine)
        with engine.session() as session:
            db = MiniLevelDB(SessionFS(fs, session), memtable_limit=1 << 20)
            db.put(b"k1", b"v1")
            db.put(b"k2", b"v2")
            db.close()
        reopened = MiniLevelDB(fs, memtable_limit=1 << 20)
        assert reopened.get(b"k1") == b"v1"
        assert reopened.get(b"k2") == b"v2"


class TestHistoryChecker:
    def _begin(self, seq, session, snapshot=0):
        return HistoryEvent(
            seq=seq, kind="begin", session=session, snapshot_csn=snapshot
        )

    def test_rejects_injected_dirty_read(self):
        events = [
            self._begin(1, 1),
            self._begin(2, 2),
            HistoryEvent(
                seq=3, kind="mutate", session=2,
                op=("write_file", "/f", b"BBBB"),
            ),
            # Session 1 observes session 2's *uncommitted* bytes.
            HistoryEvent(
                seq=4, kind="read", session=1, path="/f",
                offset=0, size=4, data=b"BBBB",
            ),
        ]
        anomalies = check_history(events, initial={"/f": b"AAAA"})
        assert any("dirty or non-repeatable read" in a for a in anomalies)

    def test_rejects_injected_lost_update(self):
        events = [
            self._begin(1, 1),
            self._begin(2, 2),
            HistoryEvent(
                seq=3, kind="mutate", session=1,
                op=("write_file", "/f", b"B"),
            ),
            HistoryEvent(
                seq=4, kind="commit", session=1, csn=1, writes={"/f": b"B"},
            ),
            HistoryEvent(
                seq=5, kind="mutate", session=2,
                op=("write_file", "/f", b"C"),
            ),
            # Session 2 commits over a version created after its
            # snapshot: first-committer-wins should have aborted it.
            HistoryEvent(
                seq=6, kind="commit", session=2, csn=2, writes={"/f": b"C"},
            ),
        ]
        anomalies = check_history(events, initial={"/f": b"A"})
        assert any("lost update" in a for a in anomalies)

    def test_rejects_non_monotone_commit_csns(self):
        events = [
            self._begin(1, 1),
            HistoryEvent(
                seq=2, kind="mutate", session=1, op=("create", "/a"),
            ),
            HistoryEvent(
                seq=3, kind="commit", session=1, csn=5, writes={"/a": b""},
            ),
            self._begin(4, 2, snapshot=5),
            HistoryEvent(
                seq=5, kind="mutate", session=2, op=("create", "/b"),
            ),
            HistoryEvent(
                seq=6, kind="commit", session=2, csn=3, writes={"/b": b""},
            ),
        ]
        anomalies = check_history(events)
        assert any("not strictly greater" in a for a in anomalies)

    def test_rejects_future_snapshot_and_orphan_ops(self):
        events = [
            self._begin(1, 1, snapshot=7),
            HistoryEvent(
                seq=2, kind="read", session=9, path="/f",
                offset=0, size=1, data=b"x",
            ),
        ]
        anomalies = check_history(events)
        assert any("in the future" in a for a in anomalies)
        assert any("without an active begin" in a for a in anomalies)

    def test_accepts_a_recorded_real_history(self):
        result = run_mvcc_sessions(sessions=4, steps=64, seed=1)
        assert result["history"], "driver must record events"
        assert check_history(result["history"], initial=result["initial"]) == []


class TestRandomInterleavings:
    def test_five_hundred_seeded_interleavings_have_zero_anomalies(self):
        """Acceptance criterion: >= 500 seeds x 4 concurrent sessions."""
        failures = []
        for seed in range(500):
            result = run_mvcc_sessions(sessions=4, steps=32, seed=seed)
            anomalies = check_history(result["history"], initial=result["initial"])
            if anomalies:
                failures.append((seed, anomalies[:3]))
        assert failures == []

    def test_aftermath_of_every_run_is_clean(self):
        result = run_mvcc_sessions(sessions=6, steps=96, seed=42)
        engine = result["engine"]
        assert engine.refcount.total_pins() == 0
        assert engine.mvcc.pending_group == 0
        report = engine.fsck(repair=False)
        assert report["refcounts_fixed"] == 0
        assert report["blocks_reclaimed"] == 0
        engine.check_invariants()
        assert result["committed"] + result["aborted"] > 0


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - baked-in in CI
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestHistoryProperty:
        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            seed=st.integers(0, 2**32 - 1),
            sessions=st.integers(2, 6),
            steps=st.integers(8, 48),
            shared_paths=st.integers(1, 3),
        )
        def test_random_histories_satisfy_snapshot_isolation(
            self, seed, sessions, steps, shared_paths
        ):
            result = run_mvcc_sessions(
                sessions=sessions,
                steps=steps,
                seed=seed,
                shared_paths=shared_paths,
            )
            anomalies = check_history(result["history"], initial=result["initial"])
            assert anomalies == []
            assert result["engine"].refcount.total_pins() == 0
