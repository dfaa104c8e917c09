"""The metadata master of the MooseFS-like cluster.

Keeps the file → chunk map (chunk id, owning server, logical length)
and allocates new chunks across the servers.  Like the MooseFS master,
it handles *only* metadata — all data bytes flow between clients and
chunk servers.

Placement is failure-domain aware: every chunk server carries a domain
label (rack/zone; a server's own name when unlabelled, which makes the
spread constraint degenerate to plain least-loaded placement).  Replica
choice greedily prefers the least-loaded server, breaking ties toward
domains the chunk does not yet touch and then by name — a fully
deterministic rule, which matters because under replication
(:mod:`repro.distributed.replicated`) every mutator here runs as a Raft
state-machine command that must produce identical results on every
replica.  For the same reason the mutators take no nondeterministic
input: time and randomness, where needed, are computed by the proposer
and passed in as arguments.

:data:`METADATA_PLANE` declares that interface once; the Raft apply
step, the replicated facade and the shard router are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Optional

from repro.fs.errors import FileExists, FileNotFound
from repro.locks import LOCK_TIERS, TrackedLock, tracked_lock


@dataclass
class ChunkInfo:
    """One chunk of a file: identity, placement(s), and logical length.

    ``servers`` lists every replica holder (MooseFS "goal"); the first
    entry is the preferred replica for reads.
    """

    chunk_id: str
    servers: list[str]
    length: int

    @property
    def server(self) -> str:
        """The primary replica (backward-compatible accessor)."""
        return self.servers[0]


@dataclass
class FileEntry:
    """Metadata of one cluster file."""

    path: str
    chunks: list[ChunkInfo] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(chunk.length for chunk in self.chunks)


class Master:
    """Metadata-only coordinator."""

    #: Log opcode -> the mutator that applies it, filled in from
    #: :data:`METADATA_PLANE` below.  The Raft apply step reads it off
    #: the replica it is handed, so :mod:`repro.raft` imports nothing of
    #: this package.
    LOG_MUTATORS: ClassVar[Mapping[str, str]]

    def __init__(
        self,
        server_names: list[str],
        chunk_capacity: int = 64 * 1024,
        replication: int = 1,
        lock: Optional[TrackedLock] = None,
        chunk_prefix: str = "c",
        domains: Optional[dict[str, str]] = None,
    ) -> None:
        if not server_names:
            raise ValueError("a cluster needs at least one chunk server")
        if not 1 <= replication <= len(server_names):
            raise ValueError(
                f"replication {replication} must be within 1..{len(server_names)}"
            )
        self.server_names = list(server_names)
        self.chunk_capacity = chunk_capacity
        self.replication = replication
        #: Rank-0 lock of the cluster order (master -> chunkserver ->
        #: client).  Mutating metadata RPCs do not self-lock — the
        #: composite operations in :class:`ClusterClient` hold it across
        #: the whole multi-RPC mutation, and each mutator declares that
        #: contract with ``require_held()`` (enforced under a sanitizer).
        #: A replicated master group passes ONE shared lock to all its
        #: replicas, so the contract holds on every replica while the
        #: facade's caller owns the group lock.
        self.lock = lock if lock is not None else tracked_lock(
            "master.lock", rank=LOCK_TIERS["master"]
        )
        #: Prefix of generated chunk ids — shard groups use distinct
        #: prefixes so ids stay cluster-unique across masters.
        self.chunk_prefix = chunk_prefix
        self._files: dict[str, FileEntry] = {}
        self._next_chunk = 0
        #: Failure-domain label per server; unlabelled servers are their
        #: own domain (spread constraint then never binds).
        self._domains: dict[str, str] = dict(domains or {})
        #: Replica count per server, maintained by placement decisions.
        self._server_load: dict[str, int] = {name: 0 for name in server_names}
        #: Bumped on every membership change; chunk servers compare it
        #: on (re)registration to learn their placement view is stale.
        self.placement_epoch = 0

    # -- namespace ---------------------------------------------------------
    def create(self, path: str) -> FileEntry:
        self.lock.require_held()
        if path in self._files:
            raise FileExists(path)
        entry = FileEntry(path=path)
        self._files[path] = entry
        return entry

    def lookup(self, path: str) -> FileEntry:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> FileEntry:
        self.lock.require_held()
        entry = self.lookup(path)
        for chunk in entry.chunks:
            self._note_placement(chunk.servers, -1)
        del self._files[path]
        return entry

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def file_size(self, path: str) -> int:
        return self.lookup(path).size

    # -- membership / failure domains --------------------------------------
    def domain_of(self, name: str) -> str:
        """The failure domain of a server (its own name when unlabelled)."""
        return self._domains.get(name, name)

    def server_domains(self) -> dict[str, str]:
        """Deterministic name → domain map of the current membership."""
        return {name: self.domain_of(name) for name in sorted(self.server_names)}

    def register_server(self, name: str, domain: str = "") -> int:
        """(Re)register a chunk server and its failure-domain label.

        Idempotent for an already-known server (labels may still be
        updated).  Returns the placement epoch the server must adopt —
        its pre-restart view of placements is stale beyond this point.
        """
        self.lock.require_held()
        changed = name not in self.server_names or (
            domain and self._domains.get(name) != domain
        )
        if name not in self.server_names:
            self.server_names.append(name)
            # A re-admitted server still holds the replicas it had when
            # it left; starting it at 0 would dog-pile placement onto it.
            self._server_load[name] = len(self.chunks_on(name))
        if domain:
            self._domains[name] = domain
        if changed:
            self.placement_epoch += 1
        return self.placement_epoch

    def remove_server(self, name: str) -> int:
        """Drop a server from placement; its replicas await rebalancing."""
        self.lock.require_held()
        if name in self.server_names:
            if len(self.server_names) - 1 < self.replication:
                raise ValueError(
                    f"removing {name} leaves fewer servers than "
                    f"replication {self.replication}"
                )
            self.server_names.remove(name)
            self._server_load.pop(name, None)
            self.placement_epoch += 1
        return self.placement_epoch

    # -- chunk allocation ------------------------------------------------------
    def _pick_servers(self) -> list[str]:
        """``replication`` distinct servers: least-loaded first, ties
        broken toward unused failure domains, then by name.

        With all servers equally loaded and unlabelled this reproduces
        the classic rotation (n0, n1, n2, n0, ...) — and it is
        deterministic, so replicated masters compute identical
        placements when replaying the same command log.
        """
        self.lock.require_held()
        chosen: list[str] = []
        used_domains: set[str] = set()
        for __ in range(self.replication):
            best: Optional[str] = None
            best_key: Optional[tuple[bool, int, str]] = None
            for name in sorted(self.server_names):
                if name in chosen:
                    continue
                key = (
                    self.domain_of(name) in used_domains,
                    self._server_load.get(name, 0),
                    name,
                )
                if best_key is None or key < best_key:
                    best, best_key = name, key
            assert best is not None  # replication <= len(server_names)
            chosen.append(best)
            used_domains.add(self.domain_of(best))
            self._server_load[best] = self._server_load.get(best, 0) + 1
        return chosen

    def _note_placement(self, servers: list[str], delta: int) -> None:
        self.lock.require_held()
        for name in servers:
            if name in self._server_load:
                self._server_load[name] = max(
                    0, self._server_load[name] + delta
                )

    def allocate_chunk(
        self, path: str, servers: Optional[list[str]] = None
    ) -> ChunkInfo:
        """Append a fresh chunk to the file.

        Placement defaults to the domain-aware greedy rule — identical
        load state on every replica (it is itself command-built) means
        identical placement, no coordination; an explicit ``servers``
        list pins it.
        """
        self.lock.require_held()
        entry = self.lookup(path)
        if servers is None:
            servers = self._pick_servers()
        else:
            servers = list(servers)
            self._note_placement(servers, +1)
        chunk = ChunkInfo(
            chunk_id=f"{self.chunk_prefix}{self._next_chunk:08d}",
            servers=servers,
            length=0,
        )
        self._next_chunk += 1
        entry.chunks.append(chunk)
        return chunk

    def drop_chunk(self, path: str, chunk_id: str) -> ChunkInfo:
        self.lock.require_held()
        entry = self.lookup(path)
        for index, chunk in enumerate(entry.chunks):
            if chunk.chunk_id == chunk_id:
                self._note_placement(chunk.servers, -1)
                return entry.chunks.pop(index)
        raise FileNotFound(f"{path}:{chunk_id}")

    def find_chunk(self, path: str, chunk_id: str) -> ChunkInfo:
        entry = self.lookup(path)
        for chunk in entry.chunks:
            if chunk.chunk_id == chunk_id:
                return chunk
        raise FileNotFound(f"{path}:{chunk_id}")

    def extend_chunk(self, path: str, chunk_id: str, delta: int) -> int:
        """Grow (or shrink, negative ``delta``) a chunk's logical length."""
        self.lock.require_held()
        chunk = self.find_chunk(path, chunk_id)
        if chunk.length + delta < 0:
            raise ValueError(
                f"chunk {chunk_id} of {chunk.length} bytes cannot shrink by "
                f"{-delta}"
            )
        chunk.length += delta
        return chunk.length

    def set_chunk_length(self, path: str, chunk_id: str, length: int) -> int:
        self.lock.require_held()
        if length < 0:
            raise ValueError(f"chunk length {length} < 0")
        chunk = self.find_chunk(path, chunk_id)
        chunk.length = length
        return chunk.length

    def place_chunk(self, path: str, chunk_id: str, servers: list[str]) -> ChunkInfo:
        """Replace a chunk's replica set (the rebalancer's commit step).

        Metadata-only: the caller is responsible for having copied the
        chunk bytes onto every new holder *before* committing the move.
        """
        self.lock.require_held()
        if not servers:
            raise ValueError(f"chunk {chunk_id} needs at least one replica")
        chunk = self.find_chunk(path, chunk_id)
        self._note_placement(chunk.servers, -1)
        chunk.servers = list(servers)
        self._note_placement(chunk.servers, +1)
        return chunk

    # -- addressing ------------------------------------------------------------------
    def locate(self, path: str, offset: int) -> tuple[int, ChunkInfo, int]:
        """Map a file offset to (chunk index, chunk, offset inside chunk)."""
        entry = self.lookup(path)
        if offset < 0 or offset > entry.size:
            raise ValueError(f"offset {offset} outside file of {entry.size} bytes")
        position = 0
        for index, chunk in enumerate(entry.chunks):
            if offset < position + chunk.length:
                return index, chunk, offset - position
            position += chunk.length
        # offset == size: address the end of the last chunk (or none).
        if entry.chunks:
            last = len(entry.chunks) - 1
            return last, entry.chunks[last], entry.chunks[last].length
        raise ValueError(f"file {path} has no chunks")

    def chunks_in_range(
        self, path: str, offset: int, length: int
    ) -> list[tuple[int, ChunkInfo, int, int]]:
        """Chunks overlapping [offset, offset+length):
        (index, chunk, start inside chunk, bytes within this chunk)."""
        entry = self.lookup(path)
        result = []
        position = 0
        end = offset + length
        for index, chunk in enumerate(entry.chunks):
            chunk_end = position + chunk.length
            if chunk_end > offset and position < end:
                start_in_chunk = max(0, offset - position)
                stop_in_chunk = min(chunk.length, end - position)
                result.append((index, chunk, start_in_chunk, stop_in_chunk - start_in_chunk))
            position = chunk_end
            if position >= end:
                break
        return result

    # -- statistics ------------------------------------------------------------------------
    def chunks_on(self, server_name: str) -> list[ChunkInfo]:
        """Every chunk with a replica placed on ``server_name``."""
        found = []
        for path in sorted(self._files):
            for chunk in self._files[path].chunks:
                if server_name in chunk.servers:
                    found.append(chunk)
        return found

    def total_logical_bytes(self) -> int:
        return sum(self._files[path].size for path in sorted(self._files))

    def chunk_count(self) -> int:
        return sum(len(self._files[path].chunks) for path in sorted(self._files))

    # -- rebalancing -----------------------------------------------------------
    def placement_moves(self) -> list[tuple[str, str, str, str]]:
        """Plan replica moves toward balance and domain spread.

        Returns ``(path, chunk_id, src, dst)`` tuples, deterministically
        ordered.  A move is planned when a replica sits on a departed
        server (mandatory) or on a server loaded above the ceiling
        average while a strictly less-loaded target exists; targets
        prefer failure domains the chunk does not already touch.  The
        plan is advisory — the rebalancer copies bytes first and then
        commits each move via :meth:`place_chunk` (through the
        replicated command path, so every master replica sees it).
        """
        live = {name: 0 for name in self.server_names}
        for path in sorted(self._files):
            for chunk in self._files[path].chunks:
                for holder in chunk.servers:
                    if holder in live:
                        live[holder] += 1
        if not live:
            return []
        total = sum(live.values())
        ceiling = -(-total // len(live))  # ceil average replicas/server
        moves: list[tuple[str, str, str, str]] = []
        for path in sorted(self._files):
            for chunk in self._files[path].chunks:
                placed = list(chunk.servers)
                for src in list(placed):
                    departed = src not in live
                    if not departed and live[src] <= ceiling:
                        continue
                    other_domains = {
                        self.domain_of(holder)
                        for holder in placed
                        if holder != src
                    }
                    candidates = sorted(
                        (name for name in live if name not in placed),
                        key=lambda name: (
                            self.domain_of(name) in other_domains,
                            live[name],
                            name,
                        ),
                    )
                    if not candidates:
                        continue
                    dst = candidates[0]
                    if not departed and live[dst] + 1 >= live[src]:
                        continue  # not a strict improvement
                    moves.append((path, chunk.chunk_id, src, dst))
                    placed[placed.index(src)] = dst
                    if not departed:
                        live[src] -= 1
                    live[dst] += 1
        return moves


#: The metadata plane, declared once: one row per public ``Master``
#: method (and per attribute the facades expose) giving its Raft log
#: opcode — ``None`` for a read, served from the leader's local state —
#: and how a sharded plane answers it.  ``path`` routes to the shard
#: owning the first argument and ``any`` asks one shard (all agree); the
#: others ask every shard in sorted order and merge the answers with
#: ``sum``, ``max``, a ``sorted`` concat or a flat ``concat``.  The apply
#: step (:mod:`repro.raft.statemachine`), ``ReplicatedMaster`` and
#: ``ShardedMaster`` are derived from this table at import, so a new
#: metadata op is one method above plus one row here.  Opcodes and
#: argument names are log bytes — renaming either changes every
#: persisted log and the simulated network cost of every propose.
METADATA_PLANE: Mapping[str, tuple[Optional[str], str]] = {
    "chunk_capacity": (None, "any"),
    "replication": (None, "any"),
    "server_names": (None, "any"),
    "placement_epoch": (None, "max"),
    "create": ("create", "path"),
    "lookup": (None, "path"),
    "exists": (None, "path"),
    "unlink": ("unlink", "path"),
    "list_files": (None, "sorted"),
    "file_size": (None, "path"),
    "domain_of": (None, "any"),
    "server_domains": (None, "any"),
    "register_server": ("register_server", "max"),
    "remove_server": ("remove_server", "max"),
    "allocate_chunk": ("alloc", "path"),
    "drop_chunk": ("drop", "path"),
    "find_chunk": (None, "path"),
    "extend_chunk": ("extend", "path"),
    "set_chunk_length": ("set_length", "path"),
    "place_chunk": ("place", "path"),
    "locate": (None, "path"),
    "chunks_in_range": (None, "path"),
    "chunks_on": (None, "concat"),
    "total_logical_bytes": (None, "sum"),
    "chunk_count": (None, "sum"),
    "placement_moves": (None, "concat"),
}

Master.LOG_MUTATORS = {
    opcode: method
    for method, (opcode, __) in sorted(METADATA_PLANE.items())
    if opcode is not None
}
