"""SessionFS: a whole filesystem view bound to one MVCC session.

The databases in :mod:`repro.databases` are written against the
:class:`~repro.fs.vfs.FileSystem` surface and know nothing about
sessions.  ``SessionFS`` is the :class:`~repro.fs.compressfs.CompressFS`
adapter with the session as its store, so *every* operation — namespace
checks, descriptor I/O, whole-file helpers — routes through one
session: queries see the session's stable snapshot, updates buffer for
its first-committer-wins commit.  This is the one way to bind a
session: a database runs in a transaction as
``MiniSQL(SessionFS(fs, s))``.

Durability is deliberately deferred: ``fsync``/``close`` are no-ops
here because nothing the session wrote is publishable before its
commit; the journal group-commit acks durability per session.

The view keeps its own descriptor table, and registers a session
cleanup that reclaims every still-open descriptor when the session
finishes — including a conflict abort, so failed commits leak neither
fd slots nor pinned snapshot images.
"""

from __future__ import annotations

from repro.fs.compressfs import CompressFS
from repro.fs.vfs import FileSystem


class SessionFS(CompressFS):
    """A :class:`CompressFS` whose every operation runs in one session."""

    # A session is already a point-in-time view and its writes wait for
    # its commit: no named-snapshot opens (those go through the base
    # file system), no immediate whole-file store, no block sharing.
    open = FileSystem.open
    write_file = FileSystem.write_file
    _clone_range = FileSystem._clone_range

    def __init__(self, base: CompressFS, session) -> None:
        super().__init__(engine=base.engine)
        self.store = self.session = session
        # Conflict aborts unwind through the manager, not this view:
        # the registered cleanup guarantees the descriptor slots die
        # with the session either way.
        session.add_cleanup(self._release_all_fds, key=f"sessionfs:{id(self)}")

    def _release_all_fds(self) -> None:
        self._fds.release_all()

    def _sync(self, path: str) -> None:
        """No-op: durability happens at the session's group commit."""
