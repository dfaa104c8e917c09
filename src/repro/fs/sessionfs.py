"""SessionFS: a whole filesystem view bound to one MVCC session.

The databases in :mod:`repro.databases` are written against the
:class:`~repro.fs.vfs.FileSystem` surface and know nothing about
sessions.  ``SessionFS`` wraps an existing (CompressFS-backed) file
system so that *every* operation — namespace checks, descriptor I/O,
whole-file helpers — routes through one session: queries see the
session's stable snapshot, updates buffer for its first-committer-wins
commit.  This is the one way to bind a session: a database runs in
a transaction as ``MiniSQL(SessionFS(fs, s))``.

Durability is deliberately deferred: ``fsync``/``close`` are no-ops
here because nothing the session wrote is publishable before its
commit; the journal group-commit acks durability per session.

The facade keeps its own descriptor table, and registers a session
cleanup that reclaims every still-open descriptor when the session
finishes — including a conflict abort, so failed commits leak neither
fd slots nor pinned snapshot images.
"""

from __future__ import annotations

from repro.core.engine import FileExistsInEngine, FileNotFoundInEngine
from repro.fs.errors import FileExists, FileNotFound, InvalidArgument
from repro.fs.vfs import FileSystem


class SessionFS(FileSystem):
    """A :class:`FileSystem` whose every operation runs in one session."""

    def __init__(self, base: FileSystem, session) -> None:
        super().__init__(device=base.device)
        self.base = base
        self.session = session
        # Conflict aborts unwind through the manager, not this facade:
        # the registered cleanup guarantees the descriptor slots die
        # with the session either way.
        session.add_cleanup(self._release_all_fds, key=f"sessionfs:{id(self)}")

    def _release_all_fds(self) -> None:
        for fd in self._fds.open_fds():
            self._fds.release(fd)

    # -- storage primitives, routed through the session ----------------------
    def _create(self, path: str) -> None:
        try:
            self.session.create(path)
        except FileExistsInEngine:
            raise FileExists(path) from None

    def _unlink(self, path: str) -> None:
        try:
            self.session.unlink(path)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _exists(self, path: str) -> bool:
        return self.session.exists(path)

    def _size(self, path: str) -> int:
        try:
            return self.session.file_size(path)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        try:
            return self.session.read(path, offset, size)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        try:
            return self.session.write(path, offset, data)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _truncate(self, path: str, size: int) -> None:
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        try:
            self.session.truncate(path, size)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _sync(self, path: str) -> None:
        """No-op: durability happens at the session's group commit."""

    def _list(self) -> list[str]:
        return self.session.list_files()

    # -- overrides ------------------------------------------------------------
    def rename(self, old: str, new: str) -> None:
        try:
            self.session.rename(old, new)
        except FileNotFoundInEngine:
            raise FileNotFound(old) from None
        except FileExistsInEngine:
            raise FileExists(new) from None

    # -- accounting -----------------------------------------------------------
    def physical_bytes(self) -> int:
        return self.base.physical_bytes()
