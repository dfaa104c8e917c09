"""SessionManager: session lifecycle, conflict detection, group commit.

The manager owns everything sessions share:

* the :class:`~repro.mvcc.versions.VersionStore` (CSNs, per-path commit
  watermarks, retained pre-images);
* the **pin** bookkeeping: a frozen image handed to a session has every
  data block pinned in the engine's refcount overlay, so the committed
  state can move on (copy-on-write fires because ``get() > 1``) while
  the bytes stay readable.  When the last interested session finishes,
  the pins come off; blocks whose combined count reaches zero are
  orphans and are freed here (hashtable record dropped, device block
  returned);
* the per-path :class:`~repro.locks.TrackedLock` table —
  rank 3 (``inode``), a tier below master → chunkserver → client, all
  sharing one ``order_key`` so the sanitizer checks tier position but
  not the (sorted, hence safe) ordering among siblings;
* the **group commit** queue: each committed session contributes one
  :class:`~repro.mvcc.session.CommitTicket`; every ``group_size``
  tickets (or on an explicit :meth:`flush_group`) the engine fsyncs
  once and the journal's single 4-phase commit sequence covers the
  whole batch, acking each ticket with the shared LSN via
  ``JournalDevice.enqueue_ack``.

Commit protocol (first-committer-wins):

1. conflict check — any write-set path committed after the session's
   snapshot aborts the session with :class:`WriteConflict`;
2. per-inode locks, acquired in sorted path order;
3. pre-image retention — paths other active sessions may still read
   are frozen and pinned before being overwritten;
4. buffered contents applied through the ordinary engine mutators
   in one journal epoch (``commit`` never commits partway);
5. the ticket joins the group-commit queue.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import TYPE_CHECKING, Iterator, Optional

from repro.locks import LOCK_TIERS, TrackedLock
from repro.mvcc.checker import HistoryEvent
from repro.mvcc.session import (
    CommitTicket,
    Session,
    SessionState,
    WriteConflict,
)
from repro.mvcc.versions import VersionStore
from repro.snap.record import FrozenInode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CompressDB

#: Shared order key: sibling inode locks are acquired in sorted path
#: order, which the sanitizer cannot see — equal keys opt out of the
#: tier check while re-acquisition and cross-tier checks still apply.
INODE_LOCK_ORDER_KEY = "mvcc.inode.lock"


class SessionManager:
    """Coordinates concurrent :class:`Session`s over one engine."""

    def __init__(self, engine: "CompressDB", group_size: int = 8) -> None:
        self.engine = engine
        self.group_size = max(1, group_size)
        self.versions = VersionStore()
        self._ids = itertools.count(1)
        self._active: dict[int, Session] = {}
        self._group: list[CommitTicket] = []
        self._inode_locks: dict[str, TrackedLock] = {}
        self._history: Optional[list[HistoryEvent]] = None
        self._seq = 0
        registry = engine.obs.registry
        self._c_begun = registry.counter("mvcc.sessions.begun")
        self._c_committed = registry.counter("mvcc.sessions.committed")
        self._c_aborted = registry.counter("mvcc.sessions.aborted")
        self._c_conflicts = registry.counter("mvcc.conflicts")
        self._c_batches = registry.counter("mvcc.group_commit.batches")
        self._c_batched = registry.counter("mvcc.group_commit.sessions")
        self._g_active = registry.gauge("mvcc.sessions.active")
        self._g_pins = registry.gauge("mvcc.snapshot.pins")
        self._g_retained = registry.gauge("mvcc.versions.retained")
        self._h_batch = registry.histogram("mvcc.group_commit.batch_size")

    # -- lifecycle -----------------------------------------------------------
    def begin(self) -> Session:
        """Open a session whose snapshot is the current committed state."""
        session = Session(self, next(self._ids), self.versions.csn)
        self._active[session.session_id] = session
        self._c_begun.inc()
        self._record(
            kind="begin",
            session=session.session_id,
            snapshot_csn=session.snapshot_csn,
        )
        self._g_active.set(len(self._active))
        return session

    def commit(self, session: Session) -> CommitTicket:
        """First-committer-wins commit; see the module docstring."""
        if session.read_only:
            # Nothing to apply, conflict-check, or journal: the session
            # only pinned snapshots.  Durable by construction.
            ticket = CommitTicket(
                session.session_id,
                session.snapshot_csn,
                read_only=True,
                durable=True,
            )
            session.ticket = ticket
            session.state = SessionState.COMMITTED
            self._record(kind="commit", session=session.session_id, writes={})
            self._c_committed.inc()
            self._finish(session)
            return ticket
        writes = session.write_set()
        conflicts = self.versions.paths_newer_than(session.snapshot_csn, writes)
        if conflicts:
            self._c_conflicts.inc()
            self.abort(session, f"write conflict on {conflicts}")
            raise WriteConflict(
                f"session {session.session_id} (snapshot csn "
                f"{session.snapshot_csn}) lost first-committer-wins on "
                f"{conflicts}"
            )
        engine = self.engine
        with contextlib.ExitStack() as stack:
            for path in writes:
                stack.enter_context(self._inode_lock(path))
            new_csn = self.versions.next_csn()
            for path in writes:
                content = session._buffers[path]
                if engine.exists(path):
                    self._retain_pre_image(session, path, new_csn)
                    if content is None:
                        engine.unlink(path)
                    else:
                        data = bytes(content)
                        if data:
                            engine.write(path, 0, data)
                        engine.truncate(path, len(data))
                elif content is not None:
                    engine.create(path)
                    if content:
                        engine.write(path, 0, bytes(content))
            self.versions.record_commit(writes, new_csn)
        ticket = CommitTicket(session.session_id, new_csn)
        session.ticket = ticket
        session.state = SessionState.COMMITTED
        self._record(
            kind="commit",
            session=session.session_id,
            csn=new_csn,
            writes={
                path: (None if buffer is None else bytes(buffer))
                for path, buffer in session._buffers.items()
            },
        )
        self._c_committed.inc()
        self._finish(session)
        self._group.append(ticket)
        if len(self._group) >= self.group_size:
            self.flush_group()
        return ticket

    def abort(self, session: Session, reason: str = "user abort") -> None:
        """Drop the session's buffers and release its snapshot pins."""
        session.state = SessionState.ABORTED
        self._record(kind="abort", session=session.session_id, reason=reason)
        self._c_aborted.inc()
        self._finish(session)

    def _finish(self, session: Session) -> None:
        """Common teardown: unpin, deregister, run cleanups, prune."""
        errors: list[BaseException] = []
        for frozen in session._owned.values():
            try:
                self._unpin_frozen(frozen)
            except BaseException as exc:  # keep unpinning the rest
                errors.append(exc)
        session._owned.clear()
        session._pinned.clear()
        self._active.pop(session.session_id, None)
        cleanups, session._cleanups = session._cleanups, []
        for __, callback in reversed(cleanups):
            try:
                callback()
            except BaseException as exc:
                errors.append(exc)
        self._prune()
        self.refresh_gauges()
        if errors:
            raise errors[0]

    # -- snapshot resolution & pinning --------------------------------------
    def _resolve_version(self, session: Session, path: str) -> Optional[FrozenInode]:
        """The image of ``path`` visible at the session's snapshot.

        Retained pre-images (pinned by their committer) serve sessions
        whose snapshot falls in their validity window; otherwise the
        live engine state is only visible when it has not been
        committed over since the snapshot — a path committed later with
        no covering pre-image did not exist at snapshot time.
        """
        retained = self.versions.visible_retained(path, session.snapshot_csn)
        if retained is not None:
            return retained.frozen
        if self.versions.last_committed(path) > session.snapshot_csn:
            return None
        if not self.engine.exists(path):
            return None
        frozen = FrozenInode.freeze(self.engine.block_size, self.engine.inode(path))
        self._pin_frozen(frozen)
        session._owned[path] = frozen
        return frozen

    def visible_paths(self, session: Session) -> set[str]:
        """Names visible at the session's snapshot (no overlay applied)."""
        snapshot = session.snapshot_csn
        names: set[str] = set()
        for path in self.engine.list_files():
            if (
                self.versions.last_committed(path) <= snapshot
                or self.versions.visible_retained(path, snapshot) is not None
            ):
                names.add(path)
        for version in self.versions.iter_retained():
            if version.visible_to(snapshot):
                names.add(version.path)
        return names

    def _retain_pre_image(self, committer: Session, path: str, new_csn: int) -> None:
        """Freeze+pin the pre-image of ``path`` before overwriting it.

        Only needed while *other* sessions are active — their snapshots
        predate ``new_csn``, so the image stays visible to them.  The
        image is frozen fresh from the engine (not borrowed from some
        session's pin) so mixed legacy/session mutations cannot leave a
        stale retained version.
        """
        if all(s is committer for s in self._active.values()):
            return
        created = self.versions.last_committed(path)
        frozen = FrozenInode.freeze(self.engine.block_size, self.engine.inode(path))
        self._pin_frozen(frozen)
        self.versions.retain(path, created, new_csn, frozen)

    def _pin_frozen(self, frozen: FrozenInode) -> None:
        refcount = self.engine.refcount
        for slot in frozen.iter_slots():
            refcount.pin(slot.block_no)

    def _unpin_frozen(self, frozen: FrozenInode) -> None:
        """Release a frozen image's pins, freeing orphaned blocks.

        A combined count of zero means no inode, snapshot, or other pin
        references the block any more: its (possibly still present)
        dedup record is dropped and the device block returned — the
        same teardown :meth:`Compressor.release` performs at durable
        zero.
        """
        engine = self.engine
        for slot in frozen.iter_slots():
            if engine.refcount.unpin(slot.block_no) == 0:
                if slot.block_no in engine.hashtable:
                    engine.hashtable.delete_record(slot.block_no)
                engine.device.free(slot.block_no)

    def iter_pinned_inodes(self) -> Iterator[FrozenInode]:
        """Every frozen image currently holding pins (index rebuilds)."""
        for session in self._active.values():
            for frozen in session._owned.values():
                if frozen is not None:
                    yield frozen
        for version in self.versions.iter_retained():
            yield version.frozen

    def _prune(self) -> None:
        if self._active:
            min_active: Optional[int] = min(
                s.snapshot_csn for s in self._active.values()
            )
        else:
            min_active = None
        for version in self.versions.prune(min_active):
            self._unpin_frozen(version.frozen)

    # -- group commit --------------------------------------------------------
    def _inode_lock(self, path: str) -> TrackedLock:
        lock = self._inode_locks.get(path)
        if lock is None:
            lock = TrackedLock(
                f"{INODE_LOCK_ORDER_KEY}[{path}]",
                rank=LOCK_TIERS["inode"],
                order_key=INODE_LOCK_ORDER_KEY,
            )
            self._inode_locks[path] = lock
        return lock

    @property
    def pending_group(self) -> int:
        """Committed sessions waiting for the next group flush."""
        return len(self._group)

    def flush_group(self) -> int:
        """Make every queued commit durable with ONE journal sequence.

        On a journaled device each ticket registers an ack callback
        first; the single ``device.commit()`` triggered by the fsync
        stamps them all with the shared LSN.  Returns the batch size.
        """
        group, self._group = self._group, []
        if not group:
            return 0
        device = self.engine.device
        enqueue = getattr(device, "enqueue_ack", None)
        if enqueue is not None:
            for ticket in group:
                enqueue(ticket._stamp)
        self.engine.fsync()
        for ticket in group:
            # Non-journaled devices have no LSN to ack with; the fsync
            # above already persisted everything the ticket covers.
            if not ticket.durable:
                ticket.durable = True
        self._c_batches.inc()
        self._c_batched.inc(len(group))
        self._h_batch.observe(len(group))
        return len(group)

    # -- history recording (SI checker harness) ------------------------------
    def start_recording(self) -> None:
        self._history = []
        self._seq = 0

    def stop_recording(self) -> list[HistoryEvent]:
        history, self._history = self._history, None
        return history or []

    @property
    def recording(self) -> bool:
        return self._history is not None

    def _record(self, **fields) -> None:
        if self._history is None:
            return
        self._seq += 1
        self._history.append(HistoryEvent(seq=self._seq, **fields))

    def _record_read(
        self, session: Session, path: str, offset: int, size: int, data: bytes
    ) -> None:
        self._record(
            kind="read",
            session=session.session_id,
            path=path,
            offset=offset,
            size=size,
            data=data,
        )

    def _record_mutate(self, session: Session, op: tuple) -> None:
        self._record(kind="mutate", session=session.session_id, op=op)

    # -- observability -------------------------------------------------------
    def refresh_gauges(self) -> None:
        self._g_active.set(len(self._active))
        self._g_pins.set(self.engine.refcount.total_pins())
        self._g_retained.set(self.versions.retained_count())
