"""Unix-socket transport for the framed protocol.

The :class:`~repro.serving.server.Server` itself is transport-neutral
(`serve_frame` takes and returns frame bytes); this module carries
those frames over an ``AF_UNIX`` stream socket so out-of-process
clients — and ``compressdb serve`` — can use protocol v1.

A connection is bound to one tenant by its first frame, which must be
``HELLO`` with a ``tenant`` field; every later frame on the connection
is served as that tenant.  Framing errors on the stream are
unrecoverable (there is no way to resynchronise), so the server
answers with an error frame and drops the connection.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Optional

from repro.fs.errors import PermissionDenied, wire_error_payload
from repro.serving import protocol
from repro.serving.server import Server


def _recv_frame(conn: socket.socket, buffer: bytearray) -> Optional[bytes]:
    """Read one complete frame from the stream; ``None`` on EOF."""
    while True:
        try:
            frame_, end = protocol.decode_frame(bytes(buffer))
        except protocol.TruncatedFrame:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            buffer += chunk
            continue
        raw = bytes(buffer[:end])
        del buffer[:end]
        return raw


class FramedSocketServer:
    """Serves one :class:`Server` on a unix socket, one thread per peer."""

    def __init__(
        self,
        server: Server,
        socket_path: str,
        auto_provision: bool = False,
    ) -> None:
        self.server = server
        self.socket_path = socket_path
        #: Provision unknown tenants on first HELLO (single-user CLI
        #: convenience; production configs pre-provision with quotas).
        self.auto_provision = auto_provision
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._workers: list[threading.Thread] = []

    def start(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._sock.bind(self.socket_path)
        except OSError:
            self._sock.close()
            raise
        self._sock.listen(16)
        self._sock.settimeout(0.2)
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5)
        for worker in self._workers:
            worker.join(timeout=5)
        if self._sock is not None:
            self._sock.close()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    def __enter__(self) -> "FramedSocketServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while self._running:
            try:
                conn, __ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - torn down mid-accept
                break
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            self._workers.append(worker)
            worker.start()
            self._workers = [w for w in self._workers if w.is_alive()]

    def _bind_tenant(self, raw: bytes) -> str:
        """The tenant a connection's first frame binds it to."""
        frame, __ = protocol.decode_frame(raw)
        tenant = frame.payload.get("tenant") if frame.opcode == protocol.OPCODES[
            "HELLO"
        ] else None
        if not isinstance(tenant, str) or not tenant:
            raise PermissionDenied(
                "the first frame on a connection must be HELLO with a "
                "'tenant' field"
            )
        if self.auto_provision and tenant not in self.server.tenants():
            self.server.add_tenant(tenant)
        return tenant

    def _serve_connection(self, conn: socket.socket) -> None:
        tenant: Optional[str] = None
        buffer = bytearray()
        with conn:
            while self._running:
                conn.settimeout(0.5)
                try:
                    raw = _recv_frame(conn, buffer)
                except socket.timeout:
                    continue
                except (protocol.ProtocolError, OSError) as exc:
                    self._hangup(conn, exc)
                    return
                if raw is None:
                    return
                try:
                    if tenant is None:
                        tenant = self._bind_tenant(raw)
                    response = self.server.serve_frame(tenant, raw, connection=conn)
                    conn.sendall(response)
                except OSError:  # pragma: no cover - peer vanished
                    return
                except BaseException as exc:
                    self._hangup(conn, exc)
                    return

    @staticmethod
    def _hangup(conn: socket.socket, exc: BaseException) -> None:
        """Best-effort error frame before dropping the connection."""
        try:
            conn.sendall(
                protocol.encode_frame(
                    0,
                    0,
                    wire_error_payload(exc),
                    protocol.FLAG_RESPONSE | protocol.FLAG_ERROR,
                )
            )
        except OSError:  # pragma: no cover - peer vanished
            pass


class SocketTransport:
    """Client-side transport: one frame out, one frame back."""

    def __init__(self, socket_path: str, timeout_s: float = 10.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(socket_path)
        self._buffer = bytearray()

    def request(self, data: bytes) -> bytes:
        self._sock.sendall(data)
        raw = _recv_frame(self._sock, self._buffer)
        if raw is None:
            raise ConnectionError("server closed the connection mid-request")
        return raw

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
