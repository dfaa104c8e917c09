"""The unified client API: one interface, in-process or over the wire.

:func:`connect` is the single entry point::

    import repro.api

    # In-process: a private engine (or one you already built).
    client = repro.api.connect()
    client.fs.write_file("/notes.txt", b"hello")
    client.sql("CREATE TABLE t (id INT, v INT)")

    # Over the wire: a serving-layer tenant.
    server = repro.serving.Server()
    server.add_tenant("alice")
    client = repro.api.connect(server, tenant="alice")
    client.fs.write_file("/notes.txt", b"hello")   # same interface

Both deployments expose the same surface — ``client.fs`` (a
:class:`~repro.fs.vfs.FileSystem`), ``client.session()`` (a
snapshot-isolated MVCC transaction scope), ``client.sql`` /
``client.column`` / ``client.kv`` (the three database front ends), and
``client.search`` / ``client.count`` / ``client.word_count`` and
``client.insert`` / ``client.delete`` (compressed-domain pushdown; the
paper's replace/append/extract are ``client.fs`` positional writes and
reads) — and raise the same exception types, because the wire protocol
maps every failure onto the stable code table in :mod:`repro.fs.errors`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from repro.core.engine import CompressDB
from repro.core.operations import OperationModule
from repro.fs.compressfs import CompressFS
from repro.fs.errors import FileNotFound, InvalidArgument
from repro.fs.sessionfs import SessionFS
from repro.fs.vfs import FileSystem
from repro.mvcc.session import SessionClosed
from repro.serving.client import LoopbackTransport, WireClient
from repro.serving.server import Server, open_database

__all__ = ["connect", "Client", "SessionScope", "KVHandle"]


class KVHandle:
    """``client.kv``: the key-value front end."""

    def __init__(self, backend: "Backend", session: Optional[int] = None) -> None:
        self._backend = backend
        self._session = session

    def put(self, key: bytes, value: bytes) -> None:
        self._backend.kv_put(key, value, session=self._session)

    def get(self, key: bytes) -> Optional[bytes]:
        return self._backend.kv_get(key, session=self._session)

    def delete(self, key: bytes) -> None:
        self._backend.kv_delete(key, session=self._session)

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        return self._backend.kv_scan(start, end, session=self._session)


class SessionScope:
    """One open transaction: the client surface bound to a snapshot.

    Yielded by :meth:`Client.session`; a clean ``with`` exit commits
    (:class:`repro.mvcc.session.WriteConflict` propagates if another
    transaction won first-committer-wins), an exception aborts.
    """

    def __init__(self, backend: "Backend", session: int) -> None:
        self._backend = backend
        self._session = session
        self.fs = backend.fs(session)
        self.kv = KVHandle(backend, session)

    def sql(self, sql: str) -> list[dict]:
        return self._backend.sql(sql, session=self._session)

    def column(self, sql: str) -> list[dict]:
        return self._backend.column(sql, session=self._session)

    def commit(self) -> dict:
        return self._backend.session_commit(self._session)

    def abort(self) -> None:
        self._backend.session_abort(self._session)

    def __enter__(self) -> "SessionScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
            return
        try:
            self.abort()
        except Exception:
            # Unwinding from an exception inside the scope: the abort
            # is best-effort (the session may already be finished).
            pass


class Client:
    """The unified client; see the module docstring."""

    def __init__(self, backend: "Backend") -> None:
        self._backend = backend
        self.fs: FileSystem = backend.fs()
        self.kv = KVHandle(backend)

    def sql(self, sql: str) -> list[dict]:
        """Run one MiniSQL statement; SELECTs return rows."""
        return self._backend.sql(sql)

    def column(self, sql: str) -> list[dict]:
        """Run one MiniColumn statement (vectorized aggregates)."""
        return self._backend.column(sql)

    def search(self, path: str, pattern: bytes) -> list[int]:
        """Compressed-domain substring search; match offsets."""
        return self._backend.search(path, pattern)

    def count(self, path: str, pattern: bytes) -> int:
        """Compressed-domain occurrence count."""
        return self._backend.count(path, pattern)

    def word_count(self, path: str) -> dict[bytes, int]:
        """Compressed-domain whitespace-token counts."""
        return self._backend.word_count(path)

    def insert(self, path: str, offset: int, data: bytes) -> None:
        """Insert ``data`` at ``offset`` without rewriting the file tail."""
        self._backend.insert(path, offset, data)

    def delete(self, path: str, offset: int, length: int) -> None:
        """Remove ``length`` bytes at ``offset``, leaving holes."""
        self._backend.delete(path, offset, length)

    def session(self) -> SessionScope:
        """Open one snapshot-isolated MVCC transaction."""
        return SessionScope(self._backend, self._backend.session_begin())

    def close(self) -> None:
        self._backend.goodbye()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _DirectBackend:
    """In-process deployment: engines linked into the caller.

    It has the method signatures of
    :class:`~repro.serving.client.WireClient` (sessions are named by
    their integer id on both), so the classes above hold either.
    """

    def __init__(self, fs: CompressFS) -> None:
        self._fs = fs
        self.engine = fs.engine
        self._dbs: dict[str, object] = {}
        #: session id -> (session, its SessionFS, its database front ends)
        self._sessions: dict[int, tuple] = {}

    def _open(self, session: int) -> tuple:
        view = self._sessions.get(session)
        if view is None:
            raise SessionClosed(f"no open session {session}")
        return view

    def fs(self, session: Optional[int] = None) -> FileSystem:
        return self._fs if session is None else self._open(session)[1]

    def _db(self, kind: str, session: Optional[int]) -> object:
        cache = self._dbs if session is None else self._open(session)[2]
        found = cache.get(kind)
        if found is None:
            found = cache[kind] = open_database(kind, self.fs(session))
        return found

    def sql(self, sql: str, session: Optional[int] = None) -> list[dict]:
        return self._db("sql", session).execute(sql)

    def column(self, sql: str, session: Optional[int] = None) -> list[dict]:
        return self._db("column", session).execute(sql)

    def kv_put(self, key: bytes, value: bytes, session: Optional[int] = None) -> None:
        self._db("kv", session).put(key, value)

    def kv_get(self, key: bytes, session: Optional[int] = None) -> Optional[bytes]:
        return self._db("kv", session).get(key)

    def kv_delete(self, key: bytes, session: Optional[int] = None) -> None:
        self._db("kv", session).delete(key)

    def kv_scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: Optional[int] = None,
        session: Optional[int] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        return itertools.islice(self._db("kv", session).scan(start, end), limit)

    def _ops(self, path: str) -> OperationModule:
        if not self._fs.exists(path):
            raise FileNotFound(path)
        return self.engine.ops

    def search(self, path: str, pattern: bytes) -> list[int]:
        return self._ops(path).search(path, pattern)

    def count(self, path: str, pattern: bytes) -> int:
        return self._ops(path).count(path, pattern)

    def word_count(self, path: str) -> dict[bytes, int]:
        return dict(self._ops(path).word_count(path))

    def insert(self, path: str, offset: int, data: bytes) -> None:
        self._ops(path).insert(path, offset, data)

    def delete(self, path: str, offset: int, length: int) -> None:
        self._ops(path).delete(path, offset, length)

    def session_begin(self) -> int:
        session = self.engine.mvcc.begin()
        self._sessions[session.session_id] = (session, SessionFS(self._fs, session), {})
        return session.session_id

    def session_commit(self, session: int) -> dict:
        handle = self._open(session)[0]
        del self._sessions[session]
        ticket = handle.commit()
        return {
            "csn": ticket.csn,
            "durable": ticket.durable,
            "read_only": ticket.read_only,
        }

    def session_abort(self, session: int) -> None:
        handle = self._open(session)[0]
        del self._sessions[session]
        if handle.active:
            self.engine.mvcc.abort(handle, "client abort")

    def goodbye(self) -> None:
        self._dbs.clear()


#: What a :class:`Client` holds: one tenant's wire connection, or the
#: in-process engines behind the same method names.
Backend = Union[WireClient, _DirectBackend]


def connect(
    target: Union[Server, CompressFS, CompressDB, None] = None,
    *,
    tenant: Optional[str] = None,
    **engine_kwargs,
) -> Client:
    """Open a :class:`Client` against ``target``.

    * ``None`` — a fresh in-process engine (``engine_kwargs`` forwarded
      to :class:`~repro.core.engine.CompressDB`);
    * a :class:`~repro.core.engine.CompressDB` or
      :class:`~repro.fs.compressfs.CompressFS` — in-process over it;
    * a :class:`~repro.serving.server.Server` — over the wire, as
      ``tenant`` (which must be provisioned).
    """
    if isinstance(target, Server):
        if tenant is None:
            raise InvalidArgument("connecting to a Server requires tenant=...")
        wire = WireClient(LoopbackTransport(target, tenant))
        wire.hello()  # fail fast on unknown tenants
        return Client(wire)
    if tenant is not None:
        raise InvalidArgument("tenant= only applies to Server targets")
    if isinstance(target, CompressFS):
        fs = target
    elif isinstance(target, CompressDB):
        fs = CompressFS(engine=target)
    elif target is None:
        fs = CompressFS(engine=CompressDB(**engine_kwargs))
    else:
        raise InvalidArgument(
            f"cannot connect to {type(target).__name__}: expected a Server, "
            "CompressFS, CompressDB, or None"
        )
    return Client(_DirectBackend(fs))
