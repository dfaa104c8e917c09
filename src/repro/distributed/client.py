"""Cluster client: file operations over the master and chunk servers.

Every byte that moves between the client and a chunk server is charged
to the shared :class:`~repro.storage.simclock.SimClock` via the network
profile, on top of whatever device time the server's file system
accrues.  This is where operation pushdown pays off in the distributed
setting (Figures 10/11): with pushdown the client ships the *operation*
(request + small payload + small result); without it, `insert`/`delete`
drag the whole file tail across the network twice, and `search` drags
the whole file once.
"""

from __future__ import annotations

from typing import Optional

from repro.core.match import count_matches, find_all, find_crossing
from repro.databases.colcodec import fold_int_cells, merge_folds
from repro.distributed.chunkserver import ChunkServer
from repro.distributed.master import Master
from repro.fs.errors import FSError
from repro.obs import Observability
from repro.storage.simclock import DATACENTER_LAN, NetworkProfile, SimClock

#: Size of an operation request/response envelope on the wire.
_RPC_OVERHEAD = 64
#: Bytes per offset in a search result.
_OFFSET_BYTES = 8
#: A chunk's match count on the wire.
_COUNT_BYTES = 8
#: One int64 cell of a packed aggregate column.
_CELL_BYTES = 8
#: A (count, sum, min, max) fold result on the wire.
_FOLD_BYTES = 32


class NoLiveReplica(FSError):
    """Every replica of a chunk is on an offline server (EIO)."""


class ClusterClient:
    """The application-facing API of the cluster."""

    def __init__(
        self,
        master: Master,
        servers: dict[str, ChunkServer],
        clock: SimClock,
        network: NetworkProfile = DATACENTER_LAN,
        pushdown: bool = True,
        obs: Optional[Observability] = None,
    ) -> None:
        self.master = master
        self.servers = servers
        self.clock = clock
        self.network = network
        self.pushdown = pushdown
        self.obs = obs if obs is not None else Observability(clock=clock)
        self._c_rpc_count = self.obs.registry.counter("cluster.rpc.count")
        self._c_rpc_bytes = self.obs.registry.counter("cluster.rpc.bytes")

    # -- network accounting --------------------------------------------------
    def _charge(self, payload_bytes: int) -> None:
        self._c_rpc_count.inc()
        self._c_rpc_bytes.inc(_RPC_OVERHEAD + payload_bytes)
        self.clock.charge_transfer(self.network, _RPC_OVERHEAD + payload_bytes)

    # -- replica handling -------------------------------------------------------
    def _read_server(self, chunk) -> ChunkServer:
        """The first live replica holder (reads prefer the primary)."""
        for name in chunk.servers:
            server = self.servers[name]
            if server.online:
                return server
        raise NoLiveReplica(chunk.chunk_id)

    def _write_servers(self, chunk) -> list[ChunkServer]:
        """Every live replica holder; mutations go to all of them."""
        live = [self.servers[name] for name in chunk.servers if self.servers[name].online]
        if not live:
            raise NoLiveReplica(chunk.chunk_id)
        return live

    # -- namespace -------------------------------------------------------------
    def create(self, path: str) -> None:
        self._charge(0)  # metadata RPC to the master
        with self.master.lock:
            self.master.create(path)

    def exists(self, path: str) -> bool:
        self._charge(0)
        return self.master.exists(path)

    def file_size(self, path: str) -> int:
        self._charge(0)
        return self.master.file_size(path)

    def unlink(self, path: str) -> None:
        with self.master.lock:
            self._unlink(path)

    def _unlink(self, path: str) -> None:
        self._charge(0)
        entry = self.master.unlink(path)
        for chunk in entry.chunks:
            for server in self._write_servers(chunk):
                self._charge(0)
                server.delete_chunk(chunk.chunk_id)

    # -- read / write -------------------------------------------------------------
    def read(self, path: str, offset: int, size: int) -> bytes:
        with self.obs.tracer.span("client.read", path=path, size=size):
            return self._read(path, offset, size)

    def _read(self, path: str, offset: int, size: int) -> bytes:
        entry = self.master.lookup(path)
        if offset >= entry.size or size <= 0:
            return b""
        size = min(size, entry.size - offset)
        pieces = self.master.chunks_in_range(path, offset, size)
        # Group the per-chunk spans by serving replica: one readv RPC
        # (and one envelope charge) per server covers every span it
        # holds, instead of one round trip per chunk.
        groups: dict[str, tuple[ChunkServer, list[int], list[tuple[str, int, int]]]] = {}
        for index, (__, chunk, start, count) in enumerate(pieces):
            server = self._read_server(chunk)
            __, indices, requests = groups.setdefault(server.name, (server, [], []))
            indices.append(index)
            requests.append((chunk.chunk_id, start, count))
        parts: list[bytes] = [b""] * len(pieces)
        for server, indices, requests in groups.values():
            self._charge(sum(count for __, __, count in requests))
            for index, payload in zip(indices, server.readv(requests)):
                parts[index] = payload
        return b"".join(parts)

    def write(self, path: str, offset: int, data: bytes) -> int:
        with self.obs.tracer.span("client.write", path=path, nbytes=len(data)):
            with self.master.lock:
                return self._write(path, offset, data)

    def _write(self, path: str, offset: int, data: bytes) -> int:
        entry = self.master.lookup(path)
        if offset > entry.size:
            self._append(path, b"\x00" * (offset - entry.size))
        overlap = min(len(data), self.master.file_size(path) - offset)
        consumed = 0
        if overlap > 0:
            # Batch the per-chunk replaces by replica holder: each live
            # server gets one writev RPC carrying every span it stores.
            groups: dict[str, tuple[ChunkServer, list[tuple[str, int, bytes]]]] = {}
            for __, chunk, start, count in self.master.chunks_in_range(path, offset, overlap):
                piece = data[consumed : consumed + count]
                for server in self._write_servers(chunk):
                    __, requests = groups.setdefault(server.name, (server, []))
                    requests.append((chunk.chunk_id, start, piece))
                consumed += count
            for server, requests in groups.values():
                self._charge(sum(len(piece) for __, __, piece in requests))
                server.writev(requests)
        if consumed < len(data):
            self._append(path, data[consumed:])
        return len(data)

    def append(self, path: str, data: bytes) -> None:
        with self.obs.tracer.span("client.append", path=path, nbytes=len(data)):
            with self.master.lock:
                self._append(path, data)

    def _append(self, path: str, data: bytes) -> None:
        position = 0
        while position < len(data):
            # Re-resolve the tail each round: under a replicated master
            # the entry is whichever replica currently leads, and chunk
            # lengths only change through the command path below.
            entry = self.master.lookup(path)
            if entry.chunks and entry.chunks[-1].length < self.master.chunk_capacity:
                chunk = entry.chunks[-1]
            else:
                self._charge(0)  # allocation RPC to the master
                chunk = self.master.allocate_chunk(path)
                for server in self._write_servers(chunk):
                    server.create_chunk(chunk.chunk_id)
            room = self.master.chunk_capacity - chunk.length
            piece = data[position : position + room]
            for server in self._write_servers(chunk):
                self._charge(len(piece))
                server.append(chunk.chunk_id, piece)
            self.master.extend_chunk(path, chunk.chunk_id, len(piece))
            position += len(piece)

    def read_file(self, path: str) -> bytes:
        return self.read(path, 0, self.master.file_size(path))

    def write_file(self, path: str, data: bytes) -> None:
        with self.master.lock:
            if self.master.exists(path):
                self._unlink(path)
            self.master.create(path)
            self._charge(0)
            self._append(path, data)

    # -- manipulation ---------------------------------------------------------------------
    def insert(self, path: str, offset: int, data: bytes) -> None:
        """Insert bytes at ``offset``.

        With pushdown: one RPC carrying the inserted bytes to the server
        holding the target chunk, which splices them locally (its chunk
        simply grows).  Without: the classic read-tail + rewrite dance,
        all over the network.
        """
        with self.obs.tracer.span(
            "client.insert", path=path, nbytes=len(data), pushdown=self.pushdown
        ), self.master.lock:
            if not self.pushdown:
                self._insert_via_rewrite(path, offset, data)
                return
            entry = self.master.lookup(path)
            if not entry.chunks or offset == entry.size:
                self._append(path, data)
                return
            __, chunk, within = self.master.locate(path, offset)
            for server in self._write_servers(chunk):
                self._charge(len(data))
                server.insert(chunk.chunk_id, within, data)
            self.master.extend_chunk(path, chunk.chunk_id, len(data))

    def delete(self, path: str, offset: int, length: int) -> None:
        """Delete a byte range; pushdown issues per-chunk local deletes."""
        with self.obs.tracer.span(
            "client.delete", path=path, length=length, pushdown=self.pushdown
        ), self.master.lock:
            self._delete(path, offset, length)

    def _delete(self, path: str, offset: int, length: int) -> None:
        if not self.pushdown:
            self._delete_via_rewrite(path, offset, length)
            return
        affected = self.master.chunks_in_range(path, offset, length)
        emptied = []
        for __, chunk, start, count in affected:
            for server in self._write_servers(chunk):
                self._charge(0)
                server.delete_range(chunk.chunk_id, start, count)
            remaining = self.master.extend_chunk(path, chunk.chunk_id, -count)
            if remaining == 0:
                emptied.append(chunk)
        for chunk in emptied:
            self.master.drop_chunk(path, chunk.chunk_id)
            for server in self._write_servers(chunk):
                self._charge(0)
                server.delete_chunk(chunk.chunk_id)

    def _insert_via_rewrite(self, path: str, offset: int, data: bytes) -> None:
        size = self.master.file_size(path)
        tail = self.read(path, offset, size - offset)
        self._write(path, offset, data + tail)

    def _delete_via_rewrite(self, path: str, offset: int, length: int) -> None:
        size = self.master.file_size(path)
        tail = self.read(path, offset + length, size - offset - length)
        if tail:
            self._write(path, offset, tail)
        self._truncate(path, size - length)

    def _truncate(self, path: str, size: int) -> None:
        entry = self.master.lookup(path)
        position = 0
        for chunk in list(entry.chunks):
            if position >= size:
                for server in self._write_servers(chunk):
                    self._charge(0)
                    server.delete_chunk(chunk.chunk_id)
                self.master.drop_chunk(path, chunk.chunk_id)
                continue
            keep = min(chunk.length, size - position)
            if keep < chunk.length:
                for server in self._write_servers(chunk):
                    self._charge(0)
                    server.truncate(chunk.chunk_id, keep)
                self.master.set_chunk_length(path, chunk.chunk_id, keep)
            position += keep

    # -- replica maintenance ------------------------------------------------------------------
    def resync(self, server_name: str) -> int:
        """Bring a recovered server's replicas up to date.

        A node that was offline missed the writes applied to its
        chunks; this copies each such chunk's authoritative bytes from
        a live peer replica.  Returns the number of chunks repaired.
        MooseFS does this continuously in the background; here it is an
        explicit administrative step.
        """
        target = self.servers[server_name]
        if not target.online:
            raise ValueError(f"server {server_name} is offline; recover it first")
        repaired = 0
        with self.master.lock:
            for path in self.master.list_files():
                for chunk in self.master.lookup(path).chunks:
                    if server_name not in chunk.servers:
                        continue
                    peers = self._live_peers(chunk, server_name)
                    if not peers:
                        continue
                    missing = chunk.chunk_id not in target.chunk_ids()
                    if self._copy_if_different(target, peers[0], chunk, missing) is not None:
                        repaired += 1
        return repaired

    def _live_peers(self, chunk, server_name: str) -> list[ChunkServer]:
        """Online replicas of ``chunk`` other than ``server_name``."""
        return [
            self.servers[name]
            for name in chunk.servers
            if name != server_name and self.servers[name].online
        ]

    def _copy_if_different(
        self, target: ChunkServer, peer: ChunkServer, chunk, missing: bool
    ) -> Optional[int]:
        """Full copy of one chunk from ``peer``, skipped when ``target``'s
        replica already matches.  Returns the bytes shipped, ``None`` when
        nothing had to move."""
        authoritative = peer.read(chunk.chunk_id, 0, chunk.length)
        if missing:
            target.create_chunk(chunk.chunk_id)
        local = target.read(chunk.chunk_id, 0, target.chunk_length(chunk.chunk_id))
        if local == authoritative:
            return None
        self._charge(len(authoritative))  # replica transfer
        target.truncate(chunk.chunk_id, 0)
        target.write(chunk.chunk_id, 0, authoritative)
        return len(authoritative)

    def _ship_delta(
        self,
        target: ChunkServer,
        donor: ChunkServer,
        chunk_id: str,
        base_snap: str,
        missing: bool,
    ) -> Optional[int]:
        """Bring ``target``'s replica of one chunk up to ``donor``'s by
        shipping only what changed since ``base_snap``: one writev of the
        extents, then a truncate to the donor's length.  Returns like
        :meth:`_copy_if_different`."""
        self._charge(0)  # delta request RPC
        length, extents = donor.chunk_delta(chunk_id, base_snap)
        if missing:
            target.create_chunk(chunk_id)
        payload = sum(len(data) for __, data in extents)
        if extents:
            self._charge(payload)
            target.writev([(chunk_id, offset, data) for offset, data in extents])
        resized = target.chunk_length(chunk_id) != length
        if resized:
            target.truncate(chunk_id, length)
        return payload if extents or resized else None

    def snapshot(self, name: str) -> list[str]:
        """Take (or refresh) cluster snapshot ``name`` on every server.

        Each online CompressDB-backed server freezes its local chunk
        namespace under the shared name — an O(metadata) RPC per server,
        no chunk data moves.  An existing snapshot of the same name is
        replaced, which is how the resync epoch advances: refresh the
        snapshot whenever the replicas are known consistent, and
        :meth:`incremental_resync` against it ships only what changed
        since.  Returns the servers that took the snapshot.
        """
        took = []
        with self.obs.tracer.span("client.snapshot", snapshot=name), self.master.lock:
            for server in self.servers.values():
                if not server.online or not server.compressed:
                    continue
                self._charge(len(name))
                if server.has_snapshot(name):
                    server.snap_delete(name)
                server.snap_create(name)
                took.append(server.name)
        return took

    def incremental_resync(self, server_name: str, base_snap: str) -> tuple[int, int]:
        """Resync a recovered server shipping only post-snapshot deltas.

        For every chunk the target replicates, a live peer reports the
        block extents that changed since ``base_snap`` (a cluster
        snapshot taken while the replicas were consistent, see
        :meth:`snapshot`); only those bytes cross the network, batched
        into one writev RPC per repaired chunk.  Peers without the
        snapshot (or baseline peers) fall back to a full chunk copy.
        Returns ``(chunks_repaired, payload_bytes_shipped)``.
        """
        target = self.servers[server_name]
        if not target.online:
            raise ValueError(f"server {server_name} is offline; recover it first")
        repaired = 0
        shipped = 0
        with self.obs.tracer.span(
            "client.incremental_resync", server=server_name, base=base_snap
        ), self.master.lock:
            local_chunks = set(target.chunk_ids())
            for chunk in self.master.chunks_on(server_name):
                peers = self._live_peers(chunk, server_name)
                if not peers:
                    continue
                peer = peers[0]
                missing = chunk.chunk_id not in local_chunks
                if peer.compressed and peer.has_snapshot(base_snap):
                    moved = self._ship_delta(
                        target, peer, chunk.chunk_id, base_snap, missing
                    )
                else:
                    # No delta source: authoritative full copy, as resync().
                    moved = self._copy_if_different(target, peer, chunk, missing)
                if moved is not None:
                    shipped += moved
                    repaired += 1
        return repaired, shipped

    # -- membership / rebalancing ------------------------------------------------------------
    def _register_server(self, name: str, domain: str) -> int:
        """Registration RPC, callable with or without the master lock
        held (join runs under it; a chunk-server restart does not)."""
        self._charge(0)
        if self.master.lock.held_by_current_context():
            return self.master.register_server(name, domain)
        with self.master.lock:
            return self.master.register_server(name, domain)

    def join_server(self, server: ChunkServer) -> int:
        """Admit a chunk server into the cluster.

        Registers its name and failure-domain label with the master
        (every replica of a master group sees the membership change)
        and attaches the registration callback the server replays on
        restart.  Returns the placement epoch the server adopted.
        """
        with self.obs.tracer.span("client.join", server=server.name), self.master.lock:
            self.servers[server.name] = server
            return server.attach_registry(self._register_server)

    def rebalance(self, base_snap: Optional[str] = None) -> tuple[int, int, int]:
        """Execute the master's placement plan, move by move.

        For each planned ``(path, chunk, src, dst)``: copy the chunk
        bytes to ``dst`` — as a post-``base_snap`` delta when ``dst``
        already holds a stale replica and a donor can diff against the
        snapshot, else as a full copy — then commit the placement via
        the (replicated) master and drop the source replica.  Returns
        ``(moves_applied, payload_bytes_shipped, full_copy_bytes)``
        where the last is what a delta-blind rebalancer would have
        moved for the same plan.
        """
        moves = 0
        shipped = 0
        full = 0
        with self.obs.tracer.span("client.rebalance"), self.master.lock:
            for path, chunk_id, src, dst in self.master.placement_moves():
                chunk = self.master.find_chunk(path, chunk_id)
                target = self.servers[dst]
                if not target.online:
                    continue
                donors = [
                    self.servers[name]
                    for name in chunk.servers
                    if name in self.servers and self.servers[name].online
                ]
                if not donors:
                    continue
                donor = next((s for s in donors if s.name == src), donors[0])
                full += chunk.length
                stale_local = chunk_id in set(target.chunk_ids())
                if (
                    base_snap is not None
                    and stale_local
                    and donor.compressed
                    and donor.has_snapshot(base_snap)
                ):
                    shipped += self._ship_delta(
                        target, donor, chunk_id, base_snap, missing=False
                    ) or 0
                else:
                    authoritative = donor.read(chunk_id, 0, chunk.length)
                    self._charge(len(authoritative))
                    shipped += len(authoritative)
                    if not stale_local:
                        target.create_chunk(chunk_id)
                    elif target.chunk_length(chunk_id):
                        target.truncate(chunk_id, 0)
                    target.write(chunk_id, 0, authoritative)
                self._charge(0)  # placement-commit RPC to the master
                self.master.place_chunk(
                    path,
                    chunk_id,
                    [dst if name == src else name for name in chunk.servers],
                )
                source = self.servers.get(src)
                if (
                    source is not None
                    and source.online
                    and chunk_id in set(source.chunk_ids())
                ):
                    self._charge(0)
                    source.delete_chunk(chunk_id)
                moves += 1
        return moves, shipped, full

    # -- search / count ---------------------------------------------------------------------------
    def search(self, path: str, pattern: bytes) -> list[int]:
        """All occurrence offsets of ``pattern`` in the file.

        Pushdown: each server scans its chunks locally (over compressed
        data, reusing shared blocks) and returns offsets; the client
        only fetches the tiny cross-chunk junction windows.  Baseline:
        the client streams the entire file over the network and scans.
        """
        m = len(pattern)
        if m == 0:
            return []
        with self.obs.tracer.span(
            "client.search", path=path, pushdown=self.pushdown
        ):
            return self._search(path, pattern)

    def _search(self, path: str, pattern: bytes) -> list[int]:
        if not self.pushdown:
            return find_all(self.read_file(path), pattern)
        chunks, replies, matches = self._scan_chunks(
            path, pattern, ChunkServer.search_with_edges,
            lambda offsets: len(offsets) * _OFFSET_BYTES,
        )
        position = 0
        for chunk, offsets in zip(chunks, replies):
            matches.extend(position + offset for offset in offsets)
            position += chunk.length
        matches.sort()
        return matches

    def count(self, path: str, pattern: bytes) -> int:
        """Number of occurrences.  Pushdown: each server ships its chunk's
        *count*, never the offsets — traffic is O(chunks), not O(matches)."""
        if not pattern:
            return 0
        if not self.pushdown:
            return count_matches(self.read_file(path), pattern)
        __, counts, crossing = self._scan_chunks(
            path, pattern, ChunkServer.count_with_edges, lambda count: _COUNT_BYTES
        )
        return sum(counts) + len(crossing)

    def _scan_chunks(
        self, path: str, pattern: bytes, rpc, reply_bytes
    ) -> tuple[list, list, list[int]]:
        """The file's chunks, ``rpc``'s result per chunk, the cross-chunk matches.

        One round trip per chunk: the request carries the pattern, the
        reply the result and the chunk's first and last ``m-1`` bytes,
        from which the cross-chunk windows are assembled — no further
        traffic.  A boundary's window is the tail of the chunk left of
        it plus the next ``m-1`` bytes of the file, so a match inside it
        starts in that chunk: each crossing match is found once, at the
        first boundary it crosses.
        """
        chunks = self.master.lookup(path).chunks
        replies, heads, tails = [], [], []
        for chunk in chunks:
            result, head, tail = rpc(self._read_server(chunk), chunk.chunk_id, pattern)
            self._charge(len(pattern) + reply_bytes(result) + len(head) + len(tail))
            replies.append(result)
            heads.append(head)
            tails.append(tail)
        crossing: list[int] = []
        boundary = 0
        for index, left in enumerate(tails[:-1]):
            boundary += chunks[index].length
            following = map(heads.__getitem__, range(index + 1, len(heads)))
            hits = find_crossing(left, following, pattern)
            crossing.extend(boundary - len(left) + hit for hit in hits)
        return chunks, replies, crossing

    # -- aggregate pushdown --------------------------------------------------------
    def aggregate(
        self, path: str, offset: int = 0, length: Optional[int] = None
    ) -> tuple[int, int, Optional[int], Optional[int]]:
        """``(count, sum, min, max)`` over the int64 cells of a byte range.

        The file region is a packed plain-INT column (see
        :func:`repro.databases.colcodec.pack_int_cells`); NULL sentinel
        cells are skipped, per SQL aggregate semantics.  With pushdown
        each chunk server folds its whole cells locally and ships back a
        32-byte partial result; the client itself reads only the few
        cells that straddle a chunk boundary.  Baseline: the entire
        range crosses the network and the client folds it.
        """
        if length is None:
            length = self.master.file_size(path) - offset
        with self.obs.tracer.span(
            "client.aggregate", path=path, length=length, pushdown=self.pushdown
        ):
            return self._aggregate(path, offset, length)

    def _aggregate(
        self, path: str, offset: int, length: int
    ) -> tuple[int, int, Optional[int], Optional[int]]:
        entry = self.master.lookup(path)
        length = min(length, entry.size - offset)
        if length <= 0:
            return 0, 0, None, None
        if offset % _CELL_BYTES or length % _CELL_BYTES:
            raise ValueError("aggregate range must cover whole int64 cells")
        if not self.pushdown:
            return fold_int_cells(self.read(path, offset, length))
        folds: list[tuple[int, int, Optional[int], Optional[int]]] = []
        straddle_cells: set[int] = set()
        position = offset
        for __, chunk, start, count in self.master.chunks_in_range(path, offset, length):
            begin, end = position, position + count
            position = end
            # Whole cells inside this chunk fold on the server; a cell
            # split across a chunk boundary is noted for a client read.
            first = -(-begin // _CELL_BYTES) * _CELL_BYTES
            last = (end // _CELL_BYTES) * _CELL_BYTES
            if begin % _CELL_BYTES:
                straddle_cells.add(begin // _CELL_BYTES)
            if end % _CELL_BYTES:
                straddle_cells.add(end // _CELL_BYTES)
            if first >= last:
                continue
            server = self._read_server(chunk)
            self._charge(_FOLD_BYTES)
            folds.append(
                server.aggregate_cells(
                    chunk.chunk_id, start + (first - begin), last - first
                )
            )
        if straddle_cells:
            pieces = b"".join(
                self.read(path, cell * _CELL_BYTES, _CELL_BYTES)
                for cell in sorted(straddle_cells)
            )
            folds.append(fold_int_cells(pieces))
        return merge_folds(folds)

    def extract(self, path: str, offset: int, size: int) -> bytes:
        return self.read(path, offset, size)

    def replace(self, path: str, offset: int, data: bytes) -> None:
        self.write(path, offset, data)
