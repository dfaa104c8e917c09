"""Chunk servers: the storage nodes of the MooseFS-like cluster.

Each chunk server owns a block device and a file system — the baseline
runs :class:`~repro.fs.vfs.PassthroughFS`, the CompressDB deployment
runs :class:`~repro.fs.compressfs.CompressFS`.  Chunks are ordinary
files in that file system, so a CompressDB-backed server dedups across
every chunk it stores and can execute pushed-down operations locally
(Section 4.1, "operation pushdown"): the client ships the operation,
not the data.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.locks import LOCK_TIERS, tracked_lock
from repro.core.engine import CompressDB
from repro.databases.colcodec import fold_int_cells
from repro.fs.compressfs import CompressFS
from repro.fs.errors import FSError
from repro.obs import Observability
from repro.fs.posix_ops import PosixOperations
from repro.fs.vfs import PassthroughFS
from repro.snap.diff import diff_inodes
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import CLOUD_ESSD, SimClock
from repro.storage.stats import IOStats


class ServerDown(FSError):
    """The chunk server is offline (simulated node failure; EIO)."""


class ChunkServer:
    """One storage node holding chunks as files."""

    def __init__(
        self,
        name: str,
        clock: SimClock,
        compressed: bool = True,
        block_size: int = 1024,
        stats: Optional[IOStats] = None,
        cache_blocks: int = 128,
        durable: bool = False,
        journal_blocks: int = 64,
        obs: Optional[Observability] = None,
        domain: str = "",
    ) -> None:
        self.name = name
        #: Failure-domain label (rack/zone); an unlabelled server is its
        #: own domain, so the spread constraint degenerates gracefully.
        self.domain = domain or name
        #: The master's placement epoch as of our last registration.
        self.placement_epoch = 0
        #: ``(name, domain) -> epoch`` registration callback, installed
        #: by :meth:`attach_registry` and replayed on :meth:`restart`.
        self._register_cb: Optional[Callable[[str, str], int]] = None
        self.compressed = compressed
        device = MemoryBlockDevice(
            block_size=block_size,
            profile=CLOUD_ESSD,
            clock=clock,
            stats=stats,
            cache_blocks=cache_blocks,
            obs=obs,
        )
        self.obs = device.obs
        # Kept for restart(): the journal and superblock live on the raw
        # device, beneath any journaling wrapper the engine adds.
        self._raw_device = device
        self.durable = durable and compressed
        self.fs: Union[CompressFS, PassthroughFS]
        if self.durable:
            engine = CompressDB.mount(device, journal_blocks=journal_blocks)
            self.fs = CompressFS(engine=engine)
        elif compressed:
            self.fs = CompressFS(device=device)
        else:
            self.fs = PassthroughFS(device=device)
        #: The seven-operation object every pushed-down RPC dispatches
        #: to, chosen once: the engine's operation module on a CompressDB
        #: server, POSIX emulation (read + rewrite) on a baseline server —
        #: the cluster still *works* without CompressDB, it just pays.
        self._ops = self.fs.ops if compressed else PosixOperations(self.fs)
        #: Rank-1 lock of the cluster order; serializes chunk-mutating
        #: RPCs and node state flips on this server.  Reads stay
        #: lock-free (they will become MVCC snapshot reads).
        self._lock = tracked_lock(
            f"chunkserver.{name}.lock", rank=LOCK_TIERS["chunk"]
        )
        self.online = True

    def fail(self) -> None:
        """Simulate a node failure: every request raises ServerDown."""
        with self._lock:
            self.online = False

    def recover(self) -> None:
        """Bring the node back (its data survived the outage)."""
        with self._lock:
            self.online = True

    def restart(self) -> None:
        """Cold restart of a *durable* server: remount from the device.

        All in-memory state is discarded; the engine recovers from the
        checkpoint image and the journal's log of delta records, so the
        server resumes with every committed chunk mutation — it replays
        its own log rather than resyncing chunks from the master.
        """
        if not self.durable:
            raise ValueError(f"chunkserver {self.name} is not durable")
        with self._lock:
            engine = CompressDB.mount(self._raw_device)
            self.fs = CompressFS(engine=engine)
            self._ops = self.fs.ops
            self.online = True
        # A restarted node must not assume its pre-restart placement
        # view: re-register the failure-domain label and adopt whatever
        # placement epoch the master (group) hands back.
        self._reregister()

    def attach_registry(self, register: Callable[[str, str], int]) -> int:
        """Register with the master and remember the callback for restarts.

        The callback runs *outside* this server's rank-1 lock: it
        acquires the rank-0 master lock, which may never nest inside a
        chunk-server lock under the cluster lock order.
        """
        epoch = register(self.name, self.domain)
        with self._lock:
            self._register_cb = register
            self.placement_epoch = epoch
        return epoch

    def _reregister(self) -> None:
        register = self._register_cb
        if register is None:
            return
        epoch = register(self.name, self.domain)
        with self._lock:
            self.placement_epoch = epoch

    def _commit(self) -> None:
        """Group-commit hook: durable servers sync after each mutation RPC."""
        if self.durable:
            self.fs.engine.fsync()

    def _path(self, chunk_id: str) -> str:
        self._ensure_online()
        return f"/chunks/{chunk_id}"

    def _ensure_online(self) -> None:
        if not self.online:
            raise ServerDown(self.name)

    # -- chunk lifecycle -----------------------------------------------------
    def create_chunk(self, chunk_id: str) -> None:
        path = self._path(chunk_id)
        with self._lock:
            self.fs.write_file(path, b"")
            self._commit()

    def delete_chunk(self, chunk_id: str) -> None:
        path = self._path(chunk_id)
        with self._lock:
            self.fs.unlink(path)
            self._commit()

    def chunk_length(self, chunk_id: str) -> int:
        return self.fs.stat(self._path(chunk_id)).size

    def chunk_ids(self) -> list[str]:
        prefix = "/chunks/"
        return [path[len(prefix):] for path in self.fs.listdir(prefix)]

    # -- data plane --------------------------------------------------------------
    def read(self, chunk_id: str, offset: int, size: int) -> bytes:
        return self.fs._pread(self._path(chunk_id), offset, size)

    def readv(self, requests: list[tuple[str, int, int]]) -> list[bytes]:
        """Serve several ``(chunk_id, offset, size)`` reads in one RPC.

        Every span goes through the file system's vectored read path
        together, so a client reading N spans from this server costs one
        request envelope and one scatter-gather device transaction, however
        many chunk files the spans touch.
        """
        with self.obs.tracer.span(
            "chunkserver.readv", server=self.name, requests=len(requests)
        ):
            return self.fs._preadv(
                [(self._path(chunk_id), offset, size) for chunk_id, offset, size in requests]
            )

    def write(self, chunk_id: str, offset: int, data: bytes) -> int:
        path = self._path(chunk_id)
        with self._lock:
            written = self.fs._pwrite(path, offset, data)
            self._commit()
        return written

    def writev(self, requests: list[tuple[str, int, bytes]]) -> int:
        """Apply several ``(chunk_id, offset, data)`` writes in one RPC.

        Each item carries ``pwrite`` semantics — the chunk grows when a
        span lands past its current end, which is what lets incremental
        resync ship growth extents.  Batching them into one request lets
        a client mutation touching many chunks pay a single network
        envelope (and, on a durable server, a single group commit)
        per server.  Returns total bytes written.
        """
        self._ensure_online()
        with self.obs.tracer.span(
            "chunkserver.writev", server=self.name, requests=len(requests)
        ), self._lock:
            for chunk_id, offset, data in requests:
                self.fs._pwrite(self._path(chunk_id), offset, data)
            self._commit()
        return sum(len(data) for __, __, data in requests)

    def truncate(self, chunk_id: str, size: int) -> None:
        path = self._path(chunk_id)
        with self._lock:
            self.fs.truncate(path, size)
            self._commit()

    # -- pushed-down operations -----------------------------------------------------
    def insert(self, chunk_id: str, offset: int, data: bytes) -> None:
        path = self._path(chunk_id)
        with self.obs.tracer.span(
            "chunkserver.insert", server=self.name, nbytes=len(data)
        ), self._lock:
            self._ops.insert(path, offset, data)
            self._commit()

    def delete_range(self, chunk_id: str, offset: int, length: int) -> None:
        path = self._path(chunk_id)
        with self.obs.tracer.span(
            "chunkserver.delete_range", server=self.name, length=length
        ), self._lock:
            self._ops.delete(path, offset, length)
            self._commit()

    def search(self, chunk_id: str, pattern: bytes) -> list[int]:
        path = self._path(chunk_id)
        with self.obs.tracer.span("chunkserver.search", server=self.name):
            return self._ops.search(path, pattern)

    def _edges(self, chunk_id: str, pattern: bytes) -> tuple[bytes, bytes]:
        """The chunk's first and last ``len(pattern)-1`` bytes."""
        edge = max(0, len(pattern) - 1)
        path = self._path(chunk_id)
        length = self.fs.stat(path).size
        head = self.fs._pread(path, 0, min(edge, length))
        tail_start = max(0, length - edge)
        return head, self.fs._pread(path, tail_start, length - tail_start)

    def search_with_edges(self, chunk_id: str, pattern: bytes) -> tuple[list[int], bytes, bytes]:
        """Search one chunk and piggyback its edge bytes.

        Returns (local offsets, first ``len(pattern)-1`` bytes, last
        ``len(pattern)-1`` bytes) so the client can resolve cross-chunk
        occurrences without issuing extra read RPCs — one round trip
        per chunk total.
        """
        return (self.search(chunk_id, pattern), *self._edges(chunk_id, pattern))

    def count_with_edges(self, chunk_id: str, pattern: bytes) -> tuple[int, bytes, bytes]:
        """:meth:`search_with_edges` with the count in place of the offsets."""
        return (self.count(chunk_id, pattern), *self._edges(chunk_id, pattern))

    def aggregate_cells(
        self, chunk_id: str, offset: int, length: int
    ) -> tuple[int, int, Optional[int], Optional[int]]:
        """Fold the int64 cells in ``[offset, offset+length)`` locally.

        The pushed-down aggregate primitive: the server reads the cell
        bytes from its own device and returns only ``(count, sum, min,
        max)`` — the cells never cross the network.  NULL sentinels are
        skipped (SQL aggregate semantics); the range must be a whole
        number of 8-byte cells, which the client guarantees by keeping
        boundary-straddling cells to itself.
        """
        path = self._path(chunk_id)
        with self.obs.tracer.span(
            "chunkserver.aggregate", server=self.name, length=length
        ):
            return fold_int_cells(self.fs._pread(path, offset, length))

    def count(self, chunk_id: str, pattern: bytes) -> int:
        path = self._path(chunk_id)
        return self._ops.count(path, pattern)

    def append(self, chunk_id: str, data: bytes) -> None:
        path = self._path(chunk_id)
        with self.obs.tracer.span(
            "chunkserver.append", server=self.name, nbytes=len(data)
        ), self._lock:
            self._ops.append(path, data)
            self._commit()

    def replace(self, chunk_id: str, offset: int, data: bytes) -> None:
        path = self._path(chunk_id)
        with self._lock:
            self._ops.replace(path, offset, data)
            self._commit()

    # -- snapshots -------------------------------------------------------------------
    # Snapshot RPCs only exist on CompressDB-backed servers: the frozen
    # inode tables they rely on are an engine structure.  The client
    # degrades to full-copy resync against baseline servers.
    def _engine(self) -> CompressDB:
        self._ensure_online()
        if not self.compressed:
            raise ValueError(f"chunkserver {self.name} has no snapshot support")
        return self.fs.engine

    def snap_create(self, name: str) -> None:
        """Freeze every chunk this server holds as snapshot ``name``."""
        engine = self._engine()
        with self._lock:
            engine.snapshots.create(name)
            self._commit()

    def snap_delete(self, name: str) -> None:
        engine = self._engine()
        with self._lock:
            engine.snapshots.delete(name)
            self._commit()

    def has_snapshot(self, name: str) -> bool:
        return name in self._engine().snapshots

    def chunk_delta(
        self, chunk_id: str, base_snap: str
    ) -> tuple[int, list[tuple[int, bytes]]]:
        """Current chunk bytes that differ from snapshot ``base_snap``.

        Returns ``(current_length, [(offset, data), ...])``; an empty
        extent list with a matching length means the chunk is unchanged.
        A chunk absent from the snapshot (created later) comes back as
        one full-content extent.  Receivers apply the extents with
        ``pwrite`` semantics and truncate to the reported length.
        """
        engine = self._engine()
        path = self._path(chunk_id)
        length = self.fs.stat(path).size
        frozen = engine.snapshots.lookup(base_snap, path)
        with self.obs.tracer.span(
            "chunkserver.chunk_delta", server=self.name, chunk=chunk_id
        ):
            if frozen is None:
                if length == 0:
                    return 0, []
                return length, [(0, self.fs._pread(path, 0, length))]
            engine._flush_pending()
            live = engine._inodes.get(path)
            if live is None:  # deleted since the snapshot
                return 0, []
            extents = diff_inodes(frozen, live)
            return length, [
                (extent.offset, self.fs._pread(path, extent.offset, extent.length))
                for extent in extents
            ]

    # -- accounting --------------------------------------------------------------------
    def logical_bytes(self) -> int:
        return self.fs.logical_bytes()

    def physical_bytes(self) -> int:
        return self.fs.physical_bytes()
