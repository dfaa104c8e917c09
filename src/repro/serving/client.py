"""The wire client: typed requests over protocol v1 frames.

:class:`WireClient` turns method calls into request frames, pushes
them through a transport, and maps error responses back onto the
*same* exception types the in-process engines raise — a remote
``WriteConflict`` is :class:`repro.mvcc.session.WriteConflict`, a
remote quota breach is :class:`repro.fs.errors.QuotaExceeded` — so
application code cannot tell (and need not care) which side of the
wire it runs on.  That equivalence is what lets :mod:`repro.api` offer
one ``Client`` interface for both deployments.

:class:`RemoteFS` subclasses :class:`~repro.fs.vfs.FileSystem` and
implements the storage primitives as wire calls, which buys the whole
descriptor API (open/read/write/seek/fsync) for free: descriptors are
client-local, primitives are remote.  It holds no device: its
``block_size`` is the server's, learned from the HELLO reply, and its
spans go to the connection's observability bundle.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.databases.common import DatabaseError
from repro.fs import errors as fserrors
from repro.fs.vfs import FileStat, FileSystem
from repro.mvcc.session import SessionClosed, WriteConflict
from repro.obs import Observability
from repro.serving import protocol
from repro.serving.protocol import OPCODES, Frame, decode_frame, encode_frame

#: Wire error name -> exception type raised client-side.  Names missing
#: here (and unknown codes) degrade to the generic ``FSError``.
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "PermissionDenied": fserrors.PermissionDenied,
    "FileNotFound": fserrors.FileNotFound,
    "FSError": fserrors.FSError,
    "BadFileDescriptor": fserrors.BadFileDescriptor,
    "TryAgain": fserrors.TryAgain,
    "IsBusy": fserrors.IsBusy,
    "FileExists": fserrors.FileExists,
    "InvalidArgument": fserrors.InvalidArgument,
    "WriteConflict": WriteConflict,
    "UnknownOpcode": protocol.UnknownOpcode,
    "DatabaseError": DatabaseError,
    "ProtocolError": protocol.ProtocolError,
    "ChecksumError": protocol.ChecksumError,
    "SessionClosed": SessionClosed,
    "QuotaExceeded": fserrors.QuotaExceeded,
}


def raise_wire_error(body: dict) -> None:
    """Re-raise the exception described by an error response body."""
    name = body.get("error", "FSError")
    message = body.get("message", "")
    klass = _EXCEPTIONS.get(str(name), fserrors.FSError)
    if klass is fserrors.TryAgain:
        exc = fserrors.TryAgain(
            str(message), retry_after_ms=float(body.get("retry_after_ms", 0.0))
        )
        # A replicated-master NotLeader redirect ships the replica to
        # retry against; surface it without importing the raft type.
        hint = body.get("leader_hint")
        if hint is not None:
            exc.leader_hint = str(hint)  # type: ignore[attr-defined]
        raise exc
    raise klass(str(message))


class LoopbackTransport:
    """In-process transport: frames go straight to a ``Server``.  Each
    transport is one connection."""

    def __init__(self, server, tenant: str) -> None:
        self.server = server
        self.tenant = tenant

    def request(self, data: bytes) -> bytes:
        return self.server.serve_frame(self.tenant, data, connection=self)


class WireClient:
    """One tenant's protocol-v1 connection.

    Error responses are raised, never retried here: ``TryAgain``
    (admission backpressure, a NotLeader redirect) carries the server's
    ``retry_after_ms`` hint for the caller's own policy.
    """

    def __init__(self, transport) -> None:
        self._transport = transport
        self._request_ids = itertools.count(1)
        #: Client-side bundle, shared by every RemoteFS on this connection.
        self.obs = Observability()
        #: The server's block size; ``None`` until :meth:`hello`.
        self.block_size: Optional[int] = None

    def call(self, opcode_name: str, **payload) -> dict:
        """One request/response round trip; raises on error responses."""
        opcode = OPCODES[opcode_name]
        # Optional fields are omitted, not sent as None: the server
        # treats absence as the default.
        body = {key: value for key, value in payload.items() if value is not None}
        request_id = next(self._request_ids)
        raw = self._transport.request(encode_frame(opcode, request_id, body))
        frame, _end = decode_frame(raw)
        self._check(frame, request_id)
        if frame.is_error:
            raise_wire_error(frame.payload)
        return frame.payload

    @staticmethod
    def _check(frame: Frame, request_id: int) -> None:
        if not frame.is_response:
            raise protocol.ProtocolError("server sent a non-response frame")
        # Error frames for undecodable requests answer on id 0.
        if frame.request_id not in (request_id, 0):
            raise protocol.ProtocolError(
                f"response id {frame.request_id} does not match "
                f"request id {request_id}"
            )

    # -- connection control ---------------------------------------------------
    def hello(self, tenant: Optional[str] = None) -> dict:
        # ``tenant`` binds a fresh socket connection to a namespace; the
        # loopback transport already knows its tenant and may omit it.
        reply = self.call("HELLO", tenant=tenant)
        self.block_size = reply.get("block_size")
        return reply

    def ping(self) -> dict:
        return self.call("PING")

    def goodbye(self) -> dict:
        return self.call("GOODBYE")

    def fs(self, session: Optional[int] = None) -> FileSystem:
        """This tenant's namespace (or one open session's view of it)."""
        return RemoteFS(self, session_id=session)

    # -- sessions -------------------------------------------------------------
    def session_begin(self) -> int:
        return self.call("SESSION_BEGIN")["session"]

    def session_commit(self, session: int) -> dict:
        return self.call("SESSION_COMMIT", session=session)

    def session_abort(self, session: int) -> dict:
        return self.call("SESSION_ABORT", session=session)

    # -- databases ------------------------------------------------------------
    def sql(self, sql: str, session: Optional[int] = None) -> list[dict]:
        return self.call("SQL_EXECUTE", sql=sql, session=session)["rows"]

    def column(self, sql: str, session: Optional[int] = None) -> list[dict]:
        return self.call("COLUMN_EXECUTE", sql=sql, session=session)["rows"]

    def kv_put(self, key: bytes, value: bytes, session: Optional[int] = None) -> None:
        self.call("KV_PUT", key=key, value=value, session=session)

    def kv_get(self, key: bytes, session: Optional[int] = None) -> Optional[bytes]:
        body = self.call("KV_GET", key=key, session=session)
        return body["value"] if body["found"] else None

    def kv_delete(self, key: bytes, session: Optional[int] = None) -> None:
        self.call("KV_DELETE", key=key, session=session)

    def kv_scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: Optional[int] = None,
        session: Optional[int] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        body = self.call("KV_SCAN", start=start, end=end, limit=limit, session=session)
        return iter([(key, value) for key, value in body["items"]])

    # -- compressed-domain pushdown -------------------------------------------
    def search(self, path: str, pattern: bytes) -> list[int]:
        return self.call("OPS_SEARCH", path=path, pattern=pattern)["offsets"]

    def count(self, path: str, pattern: bytes) -> int:
        return self.call("OPS_COUNT", path=path, pattern=pattern)["count"]

    def insert(self, path: str, offset: int, data: bytes) -> None:
        self.call("OPS_INSERT", path=path, offset=offset, data=data)

    def delete(self, path: str, offset: int, length: int) -> None:
        self.call("OPS_DELETE", path=path, offset=offset, length=length)

    def word_count(self, path: str) -> dict[bytes, int]:
        body = self.call("OPS_WORD_COUNT", path=path)
        return {word: n for word, n in body["counts"]}


class RemoteFS(FileSystem):
    """A :class:`FileSystem` whose storage primitives cross the wire.

    Descriptors are local; every primitive is one round trip against
    the tenant's namespace (or, with ``session_id``, against one open
    MVCC session's snapshot view).
    """

    def __init__(self, client: WireClient, session_id: Optional[int] = None) -> None:
        if client.block_size is None:
            client.hello()  # mounting is a handshake when none happened yet
        super().__init__(client.block_size, client.obs)
        self.client = client
        self.session_id = session_id

    def _create(self, path: str) -> None:
        self.client.call("FS_CREATE", path=path, session=self.session_id)

    def _unlink(self, path: str) -> None:
        self.client.call("FS_UNLINK", path=path, session=self.session_id)

    def _exists(self, path: str) -> bool:
        try:
            self.client.call("FS_STAT", path=path, session=self.session_id)
        except fserrors.FileNotFound:
            return False
        return True

    def _size(self, path: str) -> int:
        body = self.client.call("FS_STAT", path=path, session=self.session_id)
        return body["size"]

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        body = self.client.call(
            "FS_PREAD", path=path, offset=offset, size=size, session=self.session_id
        )
        return body["data"]

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        body = self.client.call(
            "FS_PWRITE", path=path, offset=offset, data=data, session=self.session_id
        )
        return body["written"]

    def _truncate(self, path: str, size: int) -> None:
        self.client.call(
            "FS_TRUNCATE", path=path, size=size, session=self.session_id
        )

    def _sync(self, path: str) -> None:
        self.client.call("FS_FSYNC", path=path, session=self.session_id)

    def _list(self) -> list[str]:
        body = self.client.call("FS_LIST", prefix="", session=self.session_id)
        return body["paths"]

    # -- overrides that save round trips --------------------------------------
    def stat(self, path: str) -> FileStat:
        body = self.client.call("FS_STAT", path=path, session=self.session_id)
        return FileStat(path=body["path"], size=body["size"], blocks=body["blocks"])

    def read_file(self, path: str) -> bytes:
        body = self.client.call(
            "FS_READ_FILE", path=path, session=self.session_id
        )
        return body["data"]

    def write_file(self, path: str, data: bytes) -> None:
        self.client.call(
            "FS_WRITE_FILE", path=path, data=data, session=self.session_id
        )

    def rename(self, old: str, new: str) -> None:
        self.client.call("FS_RENAME", old=old, new=new, session=self.session_id)
