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

Behind it runs one backend, :class:`~repro.serving.server.Backend`:
in-process over the engine, or as the server's tenant on the far side
of a :class:`~repro.serving.client.WireClient`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from repro.core.engine import CompressDB
from repro.fs.compressfs import CompressFS
from repro.fs.errors import InvalidArgument
from repro.fs.vfs import FileSystem
from repro.serving.client import LoopbackTransport, WireClient
from repro.serving.server import Backend, Server

__all__ = ["connect", "Client", "SessionScope", "KVHandle"]


class KVHandle:
    """``client.kv``: the key-value front end."""

    def __init__(self, backend: WireClient | Backend, session: Optional[int] = None) -> None:
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

    def __init__(self, backend: WireClient | Backend, session: int) -> None:
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

    def __init__(self, backend: WireClient | Backend) -> None:
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
    return Client(Backend(fs))
