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

from typing import Iterator, Optional, Union

from repro.core.engine import CompressDB
from repro.core.operations import OperationError, OperationModule
from repro.databases.minicolumn import MiniColumn
from repro.databases.minileveldb import MiniLevelDB
from repro.databases.minisql import MiniSQL
from repro.fs.compressfs import CompressFS
from repro.fs.errors import FileNotFound, InvalidArgument
from repro.fs.sessionfs import SessionFS
from repro.fs.vfs import FileSystem
from repro.serving.client import LoopbackTransport, RemoteFS, WireClient
from repro.serving.server import Server

__all__ = ["connect", "Client", "SessionScope", "KVHandle"]

#: Database directories shared by both deployments, so data written
#: in-process is served unchanged when a Server is pointed at the
#: same image (under the tenant root).
SQL_DIR = "/sql"
KV_DIR = "/kv"
COLUMN_DIR = "/col"


class KVHandle:
    """``client.kv``: the key-value front end."""

    def __init__(self, backend: "_Backend", session: Optional[int] = None) -> None:
        self._backend = backend
        self._session = session

    def put(self, key: bytes, value: bytes) -> None:
        self._backend.kv_put(key, value, self._session)

    def get(self, key: bytes) -> Optional[bytes]:
        return self._backend.kv_get(key, self._session)

    def delete(self, key: bytes) -> None:
        self._backend.kv_delete(key, self._session)

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        return self._backend.kv_scan(start, end, self._session)


class SessionScope:
    """One open transaction: the client surface bound to a snapshot.

    Yielded by :meth:`Client.session`; a clean ``with`` exit commits
    (:class:`repro.mvcc.session.WriteConflict` propagates if another
    transaction won first-committer-wins), an exception aborts.
    """

    def __init__(self, backend: "_Backend", handle: object) -> None:
        self._backend = backend
        self._handle = handle
        self.fs = backend.session_fs(handle)
        self.kv = KVHandle(backend, backend.session_id(handle))

    def sql(self, sql: str) -> list[dict]:
        return self._backend.sql(sql, self._backend.session_id(self._handle))

    def column(self, sql: str) -> list[dict]:
        return self._backend.column(sql, self._backend.session_id(self._handle))

    def commit(self) -> dict:
        return self._backend.session_commit(self._handle)

    def abort(self) -> None:
        self._backend.session_abort(self._handle)

    def __enter__(self) -> "SessionScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._backend.session_abort_quietly(self._handle)
        else:
            self.commit()


class Client:
    """The unified client; see the module docstring."""

    def __init__(self, backend: "_Backend") -> None:
        self._backend = backend
        self.fs: FileSystem = backend.fs
        self.kv = KVHandle(backend)

    def sql(self, sql: str) -> list[dict]:
        """Run one MiniSQL statement; SELECTs return rows."""
        return self._backend.sql(sql, None)

    def column(self, sql: str) -> list[dict]:
        """Run one MiniColumn statement (vectorized aggregates)."""
        return self._backend.column(sql, None)

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
        self._backend.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Backend:
    """Interface both deployments implement (see subclasses)."""

    fs: FileSystem

    def sql(self, sql: str, session: Optional[int]) -> list[dict]:
        raise NotImplementedError

    def column(self, sql: str, session: Optional[int]) -> list[dict]:
        raise NotImplementedError

    def kv_put(self, key: bytes, value: bytes, session: Optional[int]) -> None:
        raise NotImplementedError

    def kv_get(self, key: bytes, session: Optional[int]) -> Optional[bytes]:
        raise NotImplementedError

    def kv_delete(self, key: bytes, session: Optional[int]) -> None:
        raise NotImplementedError

    def kv_scan(self, start, end, session) -> Iterator[tuple[bytes, bytes]]:
        raise NotImplementedError

    def search(self, path: str, pattern: bytes) -> list[int]:
        raise NotImplementedError

    def count(self, path: str, pattern: bytes) -> int:
        raise NotImplementedError

    def word_count(self, path: str) -> dict[bytes, int]:
        raise NotImplementedError

    def insert(self, path: str, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def delete(self, path: str, offset: int, length: int) -> None:
        raise NotImplementedError

    def session_begin(self) -> object:
        raise NotImplementedError

    def session_id(self, handle: object) -> int:
        raise NotImplementedError

    def session_fs(self, handle: object) -> FileSystem:
        raise NotImplementedError

    def session_commit(self, handle: object) -> dict:
        raise NotImplementedError

    def session_abort(self, handle: object) -> None:
        raise NotImplementedError

    def session_abort_quietly(self, handle: object) -> None:
        try:
            self.session_abort(handle)
        except Exception:
            # Unwinding from an exception inside the scope: the abort
            # is best-effort (the session may already be finished).
            pass

    def close(self) -> None:
        raise NotImplementedError


class _DirectBackend(_Backend):
    """In-process deployment: engines linked into the caller."""

    def __init__(self, fs: CompressFS) -> None:
        self.fs = fs
        self.engine = fs.engine
        self._dbs: dict[str, object] = {}
        self._session_dbs: dict[int, dict[str, object]] = {}
        self._session_fs: dict[int, FileSystem] = {}

    def _db(self, kind: str, session: Optional[int]) -> object:
        cache = self._dbs if session is None else self._session_dbs[session]
        found = cache.get(kind)
        if found is None:
            fs = self.fs if session is None else self._session_fs[session]
            if kind == "sql":
                found = MiniSQL(fs, directory=SQL_DIR)
            elif kind == "kv":
                found = MiniLevelDB(fs, directory=KV_DIR)
            else:
                found = MiniColumn(fs, directory=COLUMN_DIR)
            cache[kind] = found
        return found

    def sql(self, sql: str, session: Optional[int]) -> list[dict]:
        return self._db("sql", session).execute(sql)

    def column(self, sql: str, session: Optional[int]) -> list[dict]:
        return self._db("column", session).execute(sql)

    def kv_put(self, key: bytes, value: bytes, session: Optional[int]) -> None:
        self._db("kv", session).put(key, value)

    def kv_get(self, key: bytes, session: Optional[int]) -> Optional[bytes]:
        return self._db("kv", session).get(key)

    def kv_delete(self, key: bytes, session: Optional[int]) -> None:
        self._db("kv", session).delete(key)

    def kv_scan(self, start, end, session) -> Iterator[tuple[bytes, bytes]]:
        return self._db("kv", session).scan(start, end)

    def _ops(self, path: str) -> OperationModule:
        if not self.fs.exists(path):
            raise FileNotFound(path)
        return self.engine.ops

    def search(self, path: str, pattern: bytes) -> list[int]:
        return self._ops(path).search(path, pattern)

    def count(self, path: str, pattern: bytes) -> int:
        return self._ops(path).count(path, pattern)

    def word_count(self, path: str) -> dict[bytes, int]:
        return dict(self._ops(path).word_count(path))

    def insert(self, path: str, offset: int, data: bytes) -> None:
        try:
            self._ops(path).insert(path, offset, data)
        except OperationError as exc:
            raise InvalidArgument(str(exc)) from None

    def delete(self, path: str, offset: int, length: int) -> None:
        try:
            self._ops(path).delete(path, offset, length)
        except OperationError as exc:
            raise InvalidArgument(str(exc)) from None

    def session_begin(self) -> object:
        session = self.engine.mvcc.begin()
        self._session_fs[session.session_id] = SessionFS(self.fs, session)
        self._session_dbs[session.session_id] = {}
        return session

    def session_id(self, handle: object) -> int:
        return handle.session_id

    def session_fs(self, handle: object) -> FileSystem:
        return self._session_fs[handle.session_id]

    def _forget(self, handle: object) -> None:
        self._session_fs.pop(handle.session_id, None)
        self._session_dbs.pop(handle.session_id, None)

    def session_commit(self, handle: object) -> dict:
        self._forget(handle)
        ticket = handle.commit()
        return {
            "csn": ticket.csn,
            "durable": ticket.durable,
            "read_only": ticket.read_only,
        }

    def session_abort(self, handle: object) -> None:
        self._forget(handle)
        if handle.active:
            self.engine.mvcc.abort(handle, "client abort")

    def close(self) -> None:
        self._dbs.clear()


class _WireBackend(_Backend):
    """Serving-layer deployment: one tenant's wire connection."""

    def __init__(self, wire: WireClient) -> None:
        self.wire = wire
        self.fs = RemoteFS(wire)

    def sql(self, sql: str, session: Optional[int]) -> list[dict]:
        return self.wire.sql(sql, session=session)

    def column(self, sql: str, session: Optional[int]) -> list[dict]:
        return self.wire.column(sql, session=session)

    def kv_put(self, key: bytes, value: bytes, session: Optional[int]) -> None:
        self.wire.kv_put(key, value, session=session)

    def kv_get(self, key: bytes, session: Optional[int]) -> Optional[bytes]:
        return self.wire.kv_get(key, session=session)

    def kv_delete(self, key: bytes, session: Optional[int]) -> None:
        self.wire.kv_delete(key, session=session)

    def kv_scan(self, start, end, session) -> Iterator[tuple[bytes, bytes]]:
        return self.wire.kv_scan(start, end, session=session)

    def search(self, path: str, pattern: bytes) -> list[int]:
        return self.wire.search(path, pattern)

    def count(self, path: str, pattern: bytes) -> int:
        return self.wire.count(path, pattern)

    def word_count(self, path: str) -> dict[bytes, int]:
        return self.wire.word_count(path)

    def insert(self, path: str, offset: int, data: bytes) -> None:
        self.wire.insert(path, offset, data)

    def delete(self, path: str, offset: int, length: int) -> None:
        self.wire.delete(path, offset, length)

    def session_begin(self) -> object:
        return self.wire.session_begin()

    def session_id(self, handle: object) -> int:
        return handle

    def session_fs(self, handle: object) -> FileSystem:
        return RemoteFS(self.wire, session_id=handle)

    def session_commit(self, handle: object) -> dict:
        return self.wire.session_commit(handle)

    def session_abort(self, handle: object) -> None:
        self.wire.session_abort(handle)

    def close(self) -> None:
        self.wire.goodbye()


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
        return Client(_WireBackend(wire))
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
