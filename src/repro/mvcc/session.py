"""Session: a snapshot-isolated transaction over the engine.

A session begins by taking the current commit sequence number as its
**snapshot CSN**.  Every read resolves against that point in time:

* the first touch of a path pins a :class:`~repro.snap.record.FrozenInode`
  image of it (via :meth:`SessionManager._resolve_version`) so the bytes
  stay readable — and re-readable — no matter what commits afterwards;
* mutations never reach the engine before commit.  They land in a
  per-path byte buffer (``None`` marks deletion) and are also recorded
  as replayable op tuples for the SI checker.  Reads see the session's
  own buffered writes first (read-your-writes), then the pinned
  snapshot.

``commit()`` hands the buffers to the manager, which conflict-checks
(first-committer-wins), takes ranked per-inode locks, applies the
buffers inside one engine transaction, and enrolls the session in the
journal group commit.  ``abort()`` throws the buffers away.  Either way
the snapshot pins are released and the session is finished.

The session has the engine's path-level store surface and raises the
same :mod:`repro.fs.errors` types, so one VFS adapter
(:class:`~repro.fs.compressfs.CompressFS`) serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.fs.errors import FileExists, FileNotFound, InvalidArgument

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager -> session)
    from repro.mvcc.manager import SessionManager
    from repro.snap.record import FrozenInode


class SessionError(RuntimeError):
    """Base class for MVCC session failures."""


class WriteConflict(SessionError):
    """First-committer-wins: another session committed first.

    Raised by ``commit()`` when a path in this session's write set was
    committed by someone else after this session's snapshot.  The
    session is aborted (buffers dropped, pins released) before the
    exception propagates — retry by starting a fresh session.
    """


class SessionClosed(SessionError):
    """An operation on a session that already committed or aborted."""


class SessionState:
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class CommitTicket:
    """Per-session durability receipt handed out at commit.

    The ticket becomes ``durable`` when the journal commit covering
    this session's epoch reaches the device; every ticket in the same
    group commit is stamped with the same shared ``lsn``.
    """

    session_id: int
    csn: int
    read_only: bool = False
    durable: bool = False
    lsn: Optional[int] = None

    def _stamp(self, lsn: int) -> None:
        self.lsn = lsn
        self.durable = True


class Session:
    """One snapshot-isolated transaction.  See module docstring."""

    def __init__(self, manager: "SessionManager", session_id: int, snapshot_csn: int):
        self.manager = manager
        self.engine = manager.engine
        self.session_id = session_id
        #: Stable identity for the lock-order sanitizer's per-(thread,
        #: session) keying — replaces the ad-hoc label strings the
        #: interleave driver used to invent.
        self.session_key = f"mvcc.session.{session_id}"
        self.snapshot_csn = snapshot_csn
        self.state = SessionState.ACTIVE
        self.ticket: Optional[CommitTicket] = None
        #: Snapshot resolution cache: path -> pinned image, or None for
        #: "absent at snapshot" (absence must be repeatable too).
        self._pinned: dict[str, Optional["FrozenInode"]] = {}
        #: Subset of ``_pinned`` whose pins this session took (a frozen
        #: image served from the retained-version store is pinned by
        #: the committer that retained it, not by us).
        self._owned: dict[str, "FrozenInode"] = {}
        #: Buffered mutations: path -> full content, None = deleted.
        self._buffers: dict[str, Optional[bytearray]] = {}
        #: LIFO cleanups run when the session finishes (fd release &c).
        self._cleanups: list[tuple[Optional[str], Callable[[], None]]] = []

    # -- lifecycle -----------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.state == SessionState.ACTIVE

    @property
    def read_only(self) -> bool:
        return not self._buffers

    def _check_active(self) -> None:
        if self.state != SessionState.ACTIVE:
            raise SessionClosed(
                f"session {self.session_id} is {self.state}"
            )

    def add_cleanup(
        self, callback: Callable[[], None], key: Optional[str] = None
    ) -> None:
        """Run ``callback`` when the session finishes (commit or abort).

        ``key`` deduplicates registrations — registering the same key
        again replaces the previous callback.
        """
        if key is not None:
            self._cleanups = [
                entry for entry in self._cleanups if entry[0] != key
            ]
        self._cleanups.append((key, callback))

    def commit(self) -> CommitTicket:
        """First-committer-wins commit; see :meth:`SessionManager.commit`."""
        self._check_active()
        return self.manager.commit(self)

    def abort(self, reason: str = "user abort") -> None:
        self._check_active()
        self.manager.abort(self, reason)

    # -- snapshot resolution -------------------------------------------------
    def _snapshot_lookup(self, path: str) -> Optional["FrozenInode"]:
        if path not in self._pinned:
            self._pinned[path] = self.manager._resolve_version(self, path)
        return self._pinned[path]

    def _view(self, path: str) -> Optional[bytes]:
        """Current content of ``path`` in this session's view, or None."""
        if path in self._buffers:
            buffer = self._buffers[path]
            return None if buffer is None else bytes(buffer)
        frozen = self._snapshot_lookup(path)
        if frozen is None:
            return None
        return frozen.read(self.engine.device, 0, frozen.size)

    def _materialize(self, path: str) -> bytearray:
        """The mutable buffer for ``path``, faulted in from the snapshot."""
        if path in self._buffers:
            buffer = self._buffers[path]
            if buffer is None:
                raise FileNotFound(path)
            return buffer
        frozen = self._snapshot_lookup(path)
        if frozen is None:
            raise FileNotFound(path)
        buffer = bytearray(frozen.read(self.engine.device, 0, frozen.size))
        self._buffers[path] = buffer
        return buffer

    # -- reads ---------------------------------------------------------------
    def read(self, path: str, offset: int, size: int) -> bytes:
        """POSIX read against the snapshot view (+ own buffered writes)."""
        self._check_active()
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        if path in self._buffers:
            buffer = self._buffers[path]
            if buffer is None:
                raise FileNotFound(path)
            data = bytes(buffer[offset : offset + size])
        else:
            frozen = self._snapshot_lookup(path)
            if frozen is None:
                raise FileNotFound(path)
            if offset >= frozen.size or size == 0:
                data = b""
            else:
                data = frozen.read(
                    self.engine.device, offset, min(size, frozen.size - offset)
                )
        self.manager._record_read(self, path, offset, size, data)
        return data

    def readv(self, requests) -> list[bytes]:
        return [self.read(path, offset, size) for path, offset, size in requests]

    def read_file(self, path: str) -> bytes:
        return self.read(path, 0, self.file_size(path))

    def file_size(self, path: str) -> int:
        self._check_active()
        if path in self._buffers:
            buffer = self._buffers[path]
            if buffer is None:
                raise FileNotFound(path)
            return len(buffer)
        frozen = self._snapshot_lookup(path)
        if frozen is None:
            raise FileNotFound(path)
        return frozen.size

    def exists(self, path: str) -> bool:
        self._check_active()
        if path in self._buffers:
            return self._buffers[path] is not None
        return self._snapshot_lookup(path) is not None

    def list_files(self, prefix: str = "") -> list[str]:
        self._check_active()
        names = self.manager.visible_paths(self)
        for path, buffer in self._buffers.items():
            if buffer is None:
                names.discard(path)
            else:
                names.add(path)
        return sorted(path for path in names if path.startswith(prefix))

    # -- buffered mutations --------------------------------------------------
    def create(self, path: str) -> None:
        self._check_active()
        if self.exists(path):
            raise FileExists(path)
        self._buffers[path] = bytearray()
        self.manager._record_mutate(self, ("create", path))

    def write(self, path: str, offset: int, data: bytes) -> int:
        self._check_active()
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        buffer = self._materialize(path)
        if not data:
            return 0
        if offset > len(buffer):
            buffer.extend(b"\x00" * (offset - len(buffer)))
        buffer[offset : offset + len(data)] = data
        self.manager._record_mutate(self, ("write", path, offset, bytes(data)))
        return len(data)

    def append(self, path: str, data: bytes) -> int:
        return self.write(path, self.file_size(path), data)

    def truncate(self, path: str, size: int) -> None:
        self._check_active()
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        buffer = self._materialize(path)
        if size < len(buffer):
            del buffer[size:]
        else:
            buffer.extend(b"\x00" * (size - len(buffer)))
        self.manager._record_mutate(self, ("truncate", path, size))

    def unlink(self, path: str) -> None:
        self._check_active()
        if not self.exists(path):
            raise FileNotFound(path)
        self._buffers[path] = None
        self.manager._record_mutate(self, ("unlink", path))

    def write_file(self, path: str, data: bytes) -> None:
        self._check_active()
        self._buffers[path] = bytearray(data)
        self.manager._record_mutate(self, ("write_file", path, bytes(data)))

    def rename(self, old: str, new: str) -> None:
        self._check_active()
        content = self._view(old)
        if content is None:
            raise FileNotFound(old)
        if old == new:
            return
        self.write_file(new, content)
        self.unlink(old)

    # -- introspection -------------------------------------------------------
    def write_set(self) -> list[str]:
        """Paths this session has buffered mutations for (sorted)."""
        return sorted(self._buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Session {self.session_id} snapshot={self.snapshot_csn} "
            f"{self.state} writes={len(self._buffers)}>"
        )
