"""The CompressDB storage engine.

Ties together the three modules of Figure 2:

* the **data structure module** — :class:`~repro.core.hashtable.BlockHashTable`,
  :class:`~repro.core.refcount.BlockRefCount`,
  :class:`~repro.core.holes.HoleDirectory`;
* the **compression module** — :class:`~repro.core.compressor.Compressor`
  (Algorithm 1, triggered on every block release);
* the **operation module** — :class:`~repro.core.operations.OperationModule`
  (extract/replace/insert/delete/append/search/count pushdown).

The engine owns a flat file namespace on one block device.  File
systems (:mod:`repro.fs.compressfs`) and databases sit on top; they
only ever see POSIX-like calls plus the extra pushdown APIs.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Iterator, Optional, Sequence

from dataclasses import dataclass, field

from repro.core import superblock as sb
from repro.core.compressor import COMPRESSOR_FIELDS, Compressor
from repro.core.hashtable import BlockHashTable
from repro.core.holes import HoleDirectory
from repro.core.operations import OPERATION_FIELDS, OperationModule
from repro.core.refcount import BlockRefCount
from repro.fs.errors import FileExists, FileNotFound, InvalidArgument
from repro.obs import Observability
from repro.obs.metrics import CounterGroup, MetricsSnapshot
from repro.snap.manager import SnapshotManager
from repro.storage.block_device import BlockDevice, MemoryBlockDevice
from repro.storage.inode import Inode, Slot
from repro.storage.journal import Journal, JournalDevice, JournalError


@dataclass
class BlockHandle:
    """A checked-out block: the unit of the get/release protocol.

    Section 4.3: *"any read or modification to a block should be
    performed after a block get call, and ends with a block release
    call ... we use this design to launch our compressor for each
    modification."*  The handle carries a private copy of the block's
    valid bytes (the paper's temporary block); mutating it and calling
    :meth:`CompressDB.release_block` runs Algorithm 1 exactly once.
    """

    path: str
    slot_index: int
    data: bytearray
    _released: bool = field(default=False, repr=False)

    @property
    def used(self) -> int:
        return len(self.data)


class CompressDB:
    """A compressed-data-direct-processing storage engine.

    Parameters
    ----------
    device:
        Block device to operate on; a fresh in-memory device by default.
    page_capacity:
        Leaf pointers per pointer page (bounds metadata fan-out).
    dedup:
        Disable to measure the engine without its compression module
        (used by the index-construction ablation).
    coalesce_writes:
        Enable the write-coalescing buffer: sequential small writes at
        end of file (the LevelDB/SSTable append pattern) accumulate in
        memory and commit as full-block batches instead of paying a
        read-modify-write round trip per call.  The buffer is flushed
        on any non-sequential write, on any other operation touching
        the file, when it reaches ``coalesce_blocks`` blocks, and on
        :meth:`flush`.
    coalesce_blocks:
        Size of the coalescing buffer in blocks.
    """

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        block_size: int = 1024,
        page_capacity: int = 256,
        dedup: bool = True,
        coalesce_writes: bool = True,
        coalesce_blocks: int = 16,
        obs: Optional[Observability] = None,
    ) -> None:
        if device is None:
            device = MemoryBlockDevice(block_size=block_size, obs=obs)
        self.device = device
        # Adopt the device's observability bundle so storage, engine,
        # and anything stacked above report into one registry/trace.
        if obs is None:
            obs = getattr(device, "obs", None)
        self.obs = obs if obs is not None else Observability()
        self.page_capacity = page_capacity
        self._inodes: dict[str, Inode] = {}
        # Read once at construction: the superblock of a formatted
        # (mountable) device, None otherwise — and with it whether
        # flush/fsync publish anything.  Probing per sync point would
        # charge a device read to every fsync on the in-memory database
        # workloads.
        self._layout: Optional[sb.Layout] = (
            sb.read_layout(self.device) if sb.is_formatted(self.device) else None
        )
        # The durable image the superblock points at: the blocks of its
        # two chains (freed when the next checkpoint replaces them) and
        # its size, which is what a delta record is weighed against.
        self._image_chain: list[int] = []
        self._snap_chain: list[int] = []
        self._image_bytes = 0
        # Paths that left the namespace since the last sync point.
        self._unlinked: set[str] = set()
        # Set when the in-memory state stopped being "image + log" in a
        # way no delta record can express (refcount partition rewritten
        # by remount(), fsck repairs): the next sync point checkpoints.
        self._image_stale = False
        self._coalesce_bytes = (
            coalesce_blocks * self.device.block_size if coalesce_writes else 0
        )
        self._pending: dict[str, bytearray] = {}
        self.hashtable = BlockHashTable(reader=self.device.read_block)
        self.refcount = BlockRefCount(self.device)
        self.holes = HoleDirectory(self._inodes)
        self.compressor = Compressor(
            device=self.device,
            hashtable=self.hashtable,
            refcount=self.refcount,
            dedup=dedup,
            stats=CounterGroup(
                "engine.compressor", COMPRESSOR_FIELDS, self.obs.registry
            ),
        )
        self.ops = OperationModule(
            engine=self,
            stats=CounterGroup("engine.ops", OPERATION_FIELDS, self.obs.registry),
        )
        self.snapshots = SnapshotManager(self)
        self._sync_stats = CounterGroup(
            "engine",
            ("checkpoints", "checkpoint.image_bytes", "delta.record_bytes"),
            self.obs.registry,
        )
        self._clone_stats = CounterGroup("engine.clone", ("blocks", "refused"), self.obs.registry)
        self._c_txn_commits = self.obs.registry.counter("engine.txn.commits")
        self._h_commit_ms = self.obs.registry.histogram("engine.txn.commit_ms")
        # MVCC session manager, created lazily on first use (breaks the
        # engine <-> mvcc import cycle and keeps the mvcc.* instruments
        # out of the registry until sessions actually run).
        self._mvcc = None

    @property
    def block_size(self) -> int:
        return self.device.block_size

    @property
    def journaled(self) -> bool:
        """Whether mutations stage in a write-ahead journal."""
        return isinstance(self.device, JournalDevice)

    # -- MVCC sessions -------------------------------------------------------
    @property
    def mvcc(self):
        """The MVCC :class:`~repro.mvcc.manager.SessionManager` (lazy)."""
        if self._mvcc is None:
            from repro.mvcc.manager import SessionManager

            self._mvcc = SessionManager(self)
        return self._mvcc

    @contextlib.contextmanager
    def session(self):
        """Scope one snapshot-isolated session (see DESIGN.md §13).

        The session sees a stable point-in-time image of every file it
        touches and buffers its own writes.  A clean exit commits
        (first-committer-wins — :class:`repro.mvcc.WriteConflict`
        propagates when another session got there first); an exception
        aborts.  Explicit ``commit()``/``abort()`` inside the scope
        wins over the implicit exit behavior.
        """
        session = self.mvcc.begin()
        try:
            yield session
        except BaseException:
            if session.active:
                self.mvcc.abort(session, "exception inside session scope")
            raise
        else:
            if session.active:
                session.commit()

    def fsync(self, path: Optional[str] = None) -> None:
        """Make every completed mutation durable on the device.

        On a formatted (mountable) engine this is :meth:`flush` — data
        synced here survives a crash at any later device write.  On an
        unformatted in-memory engine there is no durable image to
        publish, so only the coalescing buffer of ``path`` is flushed.
        """
        if self._layout is not None:
            self.flush()
        else:
            self._flush_pending(path)

    # -- namespace -----------------------------------------------------------
    def create(self, path: str) -> None:
        """Create an empty file at ``path``."""
        if path in self._inodes:
            raise FileExists(path)
        self._inodes[path] = self._new_inode()

    def _new_inode(self) -> Inode:
        return Inode(
            block_size=self.device.block_size,
            page_capacity=self.page_capacity,
            device=self.device,
        )

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def inode(self, path: str) -> Inode:
        """The inode of ``path``, with any coalesced writes flushed first.

        Public callers (and the operation module) must observe the
        file's full logical state, so pending buffered appends are
        committed before the inode is handed out.  Internal paths that
        manage the buffer themselves use :meth:`_inode_raw`.
        """
        self._flush_pending(path)
        return self._inode_raw(path)

    def _inode_raw(self, path: str) -> Inode:
        try:
            return self._inodes[path]
        except KeyError:
            raise FileNotFound(path) from None

    # -- write coalescing -----------------------------------------------------
    def _flush_pending(self, path: Optional[str] = None) -> None:
        """Commit the coalescing buffer of ``path`` (or of every file).

        The buffered bytes are pure end-of-file appends, so the flush
        is one batched append: whole blocks go through
        :meth:`Compressor.store_many` in a single scatter-gather write.
        """
        if path is None:
            for pending_path in list(self._pending):
                self._flush_pending(pending_path)
            return
        buffered = self._pending.pop(path, None)
        if buffered:
            with self.obs.tracer.span(
                "engine.coalesce.flush", path=path, nbytes=len(buffered)
            ):
                self.ops._append_data(self._inode_raw(path), bytes(buffered))

    def sync(self, path: Optional[str] = None) -> None:
        """Commit coalesced pending appends of ``path`` (or every file).

        The durability hook for the write-coalescing buffer: ``fsync``
        and whole-file writes map here, while :meth:`flush` additionally
        persists the metadata image.
        """
        self._flush_pending(path)

    def unlink(self, path: str) -> None:
        """Delete a file, releasing every block it references."""
        inode = self._inode_raw(path)
        self._pending.pop(path, None)  # buffered bytes die with the file
        for slot in inode.iter_slots():
            self.compressor.release(slot)
        del self._inodes[path]
        self._unlinked.add(path)

    def rename(self, old: str, new: str) -> None:
        """Move a file to a new name, replacing ``new`` if it exists.

        In memory this is a dict move; durably it is atomic, because
        a sync point publishes the namespace as one unit — the image, or
        a delta record that drops the old name and carries the whole
        inode under the new one — so recovery sees either the old name
        or the new one, never both or neither.  A replaced target's
        blocks are released in the same epoch, so that sync point is
        also the one that stops referencing them.
        """
        inode = self._inode_raw(old)
        if old == new:
            return
        if new in self._inodes:
            self.unlink(new)
        self._inodes[new] = inode
        del self._inodes[old]
        self._unlinked.add(old)
        inode.mark_whole()
        buffered = self._pending.pop(old, None)
        if buffered:
            self._pending[new] = buffered

    def copy_file(self, src: str, dst: str) -> None:
        """Reflink-style copy: ``create`` + :meth:`clone_range` of all of
        ``src``, touching no data; a failed copy publishes no ``dst``."""
        size = self.file_size(src)
        self.create(dst)
        try:
            self.clone_range(src, 0, dst, 0, size)
        except BaseException:
            del self._inodes[dst]
            raise

    def clone_range(self, src: str, src_off: int, dst: str, dst_off: int, length: int) -> bool:
        """``FICLONERANGE``: append ``src``'s span to ``dst`` by sharing its
        slots (one incref each, same ``used``) — what writing the bytes
        does when every block is a dedup hit, with no data I/O.  Refuses
        (False, nothing changed) unless the span starts and ends on slot
        boundaries of ``src``, ``dst_off`` is the end of ``dst`` and
        ``dst``'s last slot is full."""
        source, target = self.inode(src), self.inode(dst)
        with self.obs.tracer.span("engine.clone_range", src=src, dst=dst, nbytes=length) as span:
            first = last = within = tail = -1  # a span out of range is refused
            if 0 <= src_off <= src_off + length <= source.size and dst_off == target.size:
                first, within = source.locate(src_off)
                last, tail = source.locate(src_off + length)
            last_used = target.slot_at(target.num_slots - 1).used if target.num_slots else 0
            if within or tail or last_used % self.block_size:
                span.set(refused=True)
                self._clone_stats.record("refused")
                return False
            slots = list(itertools.islice(source.iter_slots(first), last - first))
            kept = target.num_slots
            added: list[int] = []
            try:
                for slot in slots:
                    self.refcount.incref(slot.block_no)
                    added.append(slot.block_no)
                    target.append_slot(Slot(block_no=slot.block_no, used=slot.used))
            except BaseException:
                # Nothing stays half-cloned: every reference taken so far
                # is returned and ``dst`` gets its old slot table back.
                for block_no in added:
                    self.refcount.decref(block_no)
                while target.num_slots > kept:
                    target.remove_slot(target.num_slots - 1)
                raise
            self._clone_stats.record("blocks", len(slots))
        return True

    def list_files(self, prefix: str = "") -> list[str]:
        """Paths in the namespace, optionally filtered by prefix."""
        return sorted(p for p in self._inodes if p.startswith(prefix))

    def file_size(self, path: str) -> int:
        # Pending coalesced bytes count toward the logical size without
        # forcing a flush, so append loops polling the size stay cheap.
        buffered = self._pending.get(path)
        return self._inode_raw(path).size + (len(buffered) if buffered else 0)

    def iter_inodes(self) -> Iterator[Inode]:
        self._flush_pending()
        return iter(self._inodes.values())

    def _index_sources(self):
        """Every slot-table holder the dedup index must cover.

        Live inodes, snapshot records, and MVCC-pinned frozen images:
        a block held only by a session pin still has a valid dedup
        record, so a rebuild (remount, fsck) must index it too or a
        later identical write would store the content twice.
        """
        yield from self.iter_inodes()
        yield from self.snapshots.iter_frozen_inodes()
        if self._mvcc is not None:
            yield from self._mvcc.iter_pinned_inodes()

    # -- block get/release protocol -----------------------------------------------
    def get_block(self, path: str, slot_index: int) -> BlockHandle:
        """Check out one block of a file for reading or modification.

        The returned handle holds a copy of the slot's valid bytes;
        grow or shrink it up to the block size before releasing.
        """
        inode = self.inode(path)
        slot = inode.slot_at(slot_index)
        raw = self.device.read_block(slot.block_no)
        return BlockHandle(
            path=path, slot_index=slot_index, data=bytearray(raw[: slot.used])
        )

    def release_block(self, handle: BlockHandle) -> None:
        """Release a checked-out block, triggering Algorithm 1.

        No-ops when the content is unchanged (the compressor detects
        the identical block); otherwise the modification is committed
        with dedup / in-place update / copy-on-write as appropriate.
        A handle can be released only once.
        """
        if handle._released:
            raise ValueError("block handle already released")
        handle._released = True
        if len(handle.data) > self.device.block_size:
            raise ValueError(
                f"handle grew to {len(handle.data)} bytes, block size is "
                f"{self.device.block_size}"
            )
        inode = self.inode(handle.path)
        self.compressor.commit(
            inode, handle.slot_index, bytes(handle.data), len(handle.data)
        )

    # -- POSIX-like data access -------------------------------------------------
    def read(self, path: str, offset: int, size: int) -> bytes:
        """POSIX ``read``: short reads at end of file, never an error."""
        return self.ops.extract(path, offset, size)

    def readv(self, requests: Sequence[tuple[str, int, int]]) -> list[bytes]:
        """Vectored read: serve every ``(path, offset, size)`` request at once.

        The requests may name several files: each is resolved (its
        coalesced appends flushed) once, the slot runs covering every
        request are planned, then every needed block is fetched in one
        scatter-gather device transaction.  Each request follows POSIX
        ``read`` semantics (short reads at end of file).
        """
        inodes: dict[str, Inode] = {}
        for path, __, __ in requests:
            if path not in inodes:
                inodes[path] = self._inode_raw(path)
        for path in inodes:
            self._flush_pending(path)
        with self.obs.tracer.span("engine.readv", files=len(inodes), spans=len(requests)):
            return self._readv_planned(inodes, requests)

    def _readv_planned(
        self, inodes: dict[str, Inode], requests: Sequence[tuple[str, int, int]]
    ) -> list[bytes]:
        plans: list[Optional[tuple[int, int, list[Slot]]]] = []
        block_nos: list[int] = []
        for path, offset, size in requests:
            inode = inodes[path]
            if offset < 0 or size < 0:
                raise InvalidArgument("offset and size must be non-negative")
            if offset >= inode.size or size == 0:
                plans.append(None)
                continue
            size = min(size, inode.size - offset)
            slot_index, within = inode.locate(offset)
            run: list[Slot] = []
            covered = -within
            for slot in inode.iter_slots(slot_index):
                run.append(slot)
                covered += slot.used
                if covered >= size:
                    break
            plans.append((within, size, run))
            block_nos.extend(slot.block_no for slot in run)
        contents = self.device.read_blocks(block_nos)
        results: list[bytes] = []
        cursor = 0
        for plan in plans:
            if plan is None:
                results.append(b"")
                continue
            within, size, run = plan
            parts: list[bytes] = []
            remaining = size
            for slot in run:
                content = contents[cursor][: slot.used]
                cursor += 1
                piece = content[within : within + remaining]
                parts.append(piece)
                remaining -= len(piece)
                within = 0
            results.append(b"".join(parts))
        return results

    def write(self, path: str, offset: int, data: bytes) -> int:
        """POSIX ``write``: overwrite in place, extend past end of file.

        Writing beyond the current end fills the gap with zero bytes
        (sparse-write semantics).  Returns the number of bytes written.

        Writes at (or past) end of file land in the coalescing buffer
        when it is enabled: consecutive small appends accumulate and
        commit as one batched multi-block store instead of a
        read-modify-write per call.  Any overlapping or backward write
        flushes the buffer first and takes the in-place path.
        """
        inode = self._inode_raw(path)
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        if not data:
            return 0  # POSIX: a zero-length write changes nothing
        with self.obs.tracer.span(
            "engine.write", path=path, offset=offset, nbytes=len(data)
        ):
            return self._write_located(inode, path, offset, data)

    def _write_located(
        self, inode: Inode, path: str, offset: int, data: bytes
    ) -> int:
        if self._coalesce_bytes > 0:
            buffered = self._pending.get(path)
            logical = inode.size + (len(buffered) if buffered else 0)
            if offset >= logical:
                if buffered is None:
                    buffered = self._pending.setdefault(path, bytearray())
                if offset > logical:
                    buffered.extend(b"\x00" * (offset - logical))
                buffered.extend(data)
                if len(buffered) >= self._coalesce_bytes:
                    self._flush_pending(path)
                return len(data)
            # Offset discontinuity (overwrite / backward write): flush
            # and fall through to the in-place machinery below.
            self._flush_pending(path)
        if offset > inode.size:
            self.ops.append(path, b"\x00" * (offset - inode.size))
        overlap = min(len(data), inode.size - offset)
        if overlap > 0:
            self.ops.replace(path, offset, data[:overlap])
        if overlap < len(data):
            self.ops.append(path, data[overlap:])
        return len(data)

    def truncate(self, path: str, size: int) -> None:
        """Grow (zero-fill) or shrink the file to exactly ``size`` bytes."""
        inode = self.inode(path)
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        if size < inode.size:
            self.ops.delete(path, size, inode.size - size)
        elif size > inode.size:
            self.ops.append(path, b"\x00" * (size - inode.size))

    def read_file(self, path: str) -> bytes:
        """Whole-file read convenience."""
        return self.ops.extract(path, 0, self.inode(path).size)

    def write_file(self, path: str, data: bytes) -> None:
        """Create-or-replace a file with ``data``."""
        if self.exists(path):
            self.unlink(path)
        self.create(path)
        self.ops.append(path, data)

    # -- space accounting ------------------------------------------------------------
    def logical_bytes(self) -> int:
        """Total logical size of all files (what the user stored)."""
        self._flush_pending()
        return sum(inode.size for inode in self._inodes.values())

    def physical_data_blocks(self) -> int:
        """Distinct live data blocks actually held on the device."""
        self._flush_pending()
        return len(self.refcount)

    def physical_bytes(self) -> int:
        """Bytes occupied by distinct data blocks on the device."""
        return self.physical_data_blocks() * self.device.block_size

    def compression_ratio(self) -> float:
        """Original size / compressed size (Table 2 metric)."""
        physical = self.physical_bytes()
        if physical == 0:
            return 1.0
        return self.logical_bytes() / physical

    def memory_report(self) -> dict[str, int]:
        """In-memory data-structure footprints (Table 3 metric)."""
        hashtable = self.hashtable.memory_bytes()
        holes = self.holes.memory_bytes()
        return {
            "blockHashTable_bytes": hashtable,
            "blockHole_bytes": holes,
            "blockRefCount_bytes": self.refcount.memory_bytes(),
            "total_bytes": hashtable + holes,
        }

    def metrics(self) -> MetricsSnapshot:
        """One snapshot of every metric the stack reports.

        Space and structure figures (files, bytes, compression ratio,
        holes, in-memory index footprints) are refreshed into gauges
        first, so a single snapshot carries both the flow counters and
        the current state — this is what ``repro stats`` renders.  It
        has no side effect: the coalescing buffers stay as they are.
        """
        gauge = self.obs.registry.gauge
        # A read: nothing is flushed.  Bytes still in the coalescing
        # buffers count as logical but are not stored yet, so the
        # physical figures are those of the blocks actually held.
        logical = sum(inode.size for inode in self._inodes.values()) + sum(
            len(buffered) for buffered in self._pending.values()
        )
        unique = len(self.refcount)
        physical = unique * self.device.block_size
        gauge("engine.space.files").set(len(self._inodes))
        gauge("engine.space.logical_bytes").set(logical)
        gauge("engine.space.physical_bytes").set(physical)
        gauge("engine.space.unique_blocks").set(unique)
        gauge("engine.space.compression_ratio").set(
            logical / physical if physical else 1.0
        )
        gauge("engine.holes.count").set(self.holes.total_hole_count())
        gauge("engine.holes.bytes").set(self.holes.total_hole_bytes())
        gauge("engine.snap.count").set(len(self.snapshots))
        report = self.memory_report()
        gauge("engine.memory.blockhashtable_bytes").set(
            report["blockHashTable_bytes"]
        )
        gauge("engine.memory.blockhole_bytes").set(report["blockHole_bytes"])
        gauge("engine.memory.blockrefcount_bytes").set(
            report["blockRefCount_bytes"]
        )
        if self._mvcc is not None:
            self._mvcc.refresh_gauges()
        return self.obs.registry.snapshot()

    # -- remount / durability -----------------------------------------------------------
    def flush(self) -> None:
        """Make the current state durable: the one sync point.

        On an unformatted device only the refcount partition is written
        (Section 4.2).  On a *formatted* device (see :meth:`mount`) the
        engine becomes remountable from the raw device in another
        process, and a sync point writes **what changed since the last
        one**: a delta record (:func:`repro.core.superblock.
        serialize_delta`) appended to the journal's log.  The full image
        is written (:meth:`_checkpoint`) only when it must be — the
        record does not fit what is left of the log, would be larger
        than the image, cannot express the change (snapshot table,
        :meth:`remount`, fsck repairs), or there is no log.  Either way
        the epoch commits through the write-ahead journal, so a crash
        anywhere lands on exactly the previous or the new state; with
        nothing to say, nothing is written.  Sync points (here,
        ``fsync``, ``close``) are the only commits: no mutator commits
        partway, which ``TestEngineCrashMatrix`` checks at every device
        write.
        """
        clock = self.obs.clock
        started = clock.now if clock is not None else 0.0
        with self.obs.tracer.span("engine.flush", journaled=self.journaled) as span:
            self._flush_pending()
            if self._layout is None:
                self.refcount.persist()
            else:
                record_bytes, checkpoint = self._sync_point()
                span.set(checkpoint=checkpoint, record_bytes=record_bytes)
        self._c_txn_commits.inc()
        if clock is not None:
            self._h_commit_ms.observe((clock.now - started) * 1000.0)

    def _sync_point(self) -> tuple[int, bool]:
        """Log a delta record or checkpoint; returns (record bytes,
        checkpointed)."""
        dirty = {path: inode for path, inode in self._inodes.items() if inode.dirty}
        unlinked = self._unlinked - self._inodes.keys()
        record = sb.serialize_delta(unlinked, dirty, self.refcount.dirty_counts())
        checkpoint = self._image_stale or self.snapshots.dirty
        if not checkpoint:
            if self.journaled:
                checkpoint = len(record) > self._image_bytes or not (
                    self.device.record_fits(len(record))
                )
            else:
                checkpoint = bool(record)  # no log to append to
        if checkpoint:
            self._checkpoint()
        elif self.journaled:
            # Also with nothing to say: an empty commit writes nothing
            # but still stamps queued group-commit waiters.
            self.device.commit(logical=record)
            self._sync_stats.record("delta.record_bytes", len(record))
        if record or checkpoint:
            for inode in dirty.values():
                inode.mark_clean()
            self._unlinked.clear()
            self.refcount.mark_clean()
        return len(record), checkpoint

    def _checkpoint(self) -> None:
        """Publish the full image: the one checkpoint routine.

        Shadow refcount partition, fresh metadata (and, when dirty,
        snapshot) chain, then the superblock flip — stamped with the LSN
        of the journal batch that carries it, so recovery knows which
        log records the image already contains.  The blocks of the image
        being replaced are freed in the same epoch, i.e. released only
        once the flip is durable.
        """
        layout = self._layout
        assert layout is not None
        # Until the flip commits, the in-memory image bookkeeping below
        # runs ahead of the device: if anything fails on the way (device
        # full), the next sync point must come back here.
        self._image_stale = True
        self.refcount.persist()
        snap_head = layout.snap_head
        if not self.journaled and layout.meta_head != sb.NO_BLOCK:
            # No journal defers the frees below: unregister the chains
            # first, so any crash lands on a superblock pointing at a
            # whole chain (or none).
            sb.write_superblock(
                self.device,
                layout._replace(
                    meta_head=sb.NO_BLOCK,
                    snap_head=sb.NO_BLOCK if self.snapshots.dirty else snap_head,
                ),
            )
        # Forgotten before they are freed, so such a retry does not free
        # them twice.
        old_chain, self._image_chain = self._image_chain, []
        for block_no in old_chain:
            self.device.free(block_no)
        if self.snapshots.dirty:
            old_chain, self._snap_chain = self._snap_chain, []
            for block_no in old_chain:
                self.device.free(block_no)
            snap_head = sb.NO_BLOCK
            if len(self.snapshots):
                snap_head, self._snap_chain = sb.write_chain(
                    self.device, self.snapshots.serialize()
                )
        payload = sb.serialize_metadata(self._inodes, self.refcount.partition_blocks)
        head, self._image_chain = sb.write_chain(self.device, payload)
        self._layout = layout._replace(
            meta_head=head,
            snap_head=snap_head,
            checkpoint_lsn=self.device.lsn if self.journaled else 0,
        )
        sb.write_superblock(self.device, self._layout)
        if self.journaled:
            self.device.commit(truncate=True)
        self.snapshots.mark_clean()
        self._image_stale = False
        self._image_bytes = len(payload) + (
            self.refcount.partition_block_count * self.device.block_size
        )
        self._sync_stats.record("checkpoints")
        self._sync_stats.record("checkpoint.image_bytes", self._image_bytes)

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        journal_blocks: Optional[int] = None,
        **engine_kwargs,
    ) -> "CompressDB":
        """Open (or create) a persistent engine on a formatted device.

        A fresh device is formatted (block 0 becomes the superblock,
        optionally followed by ``journal_blocks`` write-ahead journal
        blocks).  A device carrying an image **recovers**: the log's
        intact batches are walked from the region start (a torn tail is
        discarded), their overwrites redone at their home locations —
        which may flip the superblock to a newer checkpoint — then the
        checkpoint image is loaded (namespace, refcounts) and every
        delta record newer than it is applied in order.  The free list
        follows from what that state references, and the memory-only
        blockHashTable is rebuilt by a single scan of the unique data
        blocks.  ``journal_blocks`` only matters for a fresh device —
        the region is fixed at format time.
        """
        if not sb.is_formatted(device):
            if device.total_blocks > 0:
                raise sb.PersistenceError(
                    "device contains data but no CompressDB superblock"
                )
            sb.format_device(device, journal_blocks or 0)
            if journal_blocks:
                journal = Journal(
                    sb.SUPERBLOCK_NO + 1, journal_blocks, device.block_size
                )
                device = JournalDevice(device, journal)
            return cls(device=device, **engine_kwargs)
        layout = sb.read_layout(device)
        journal_region: set[int] = set()
        records: list[bytes] = []
        if layout.journal_len:
            journal = Journal(layout.journal_start, layout.journal_len, device.block_size)
            # A log no checkpoint has stamped yet (fresh format, or a
            # v3/v4 image's single batch) starts at whatever LSN its
            # writer had reached; afterwards at the checkpoint's + 1.
            log = journal.recover(
                device, layout.checkpoint_lsn + 1 if layout.checkpoint_lsn else None
            )
            try:
                replayed = journal.replay(device, log)
            except JournalError as exc:
                raise sb.PersistenceError(f"corrupt journal: {exc}") from exc
            if replayed:
                # The replayed batches may carry a newer superblock.
                layout = sb.read_layout(device)
            live = [batch for batch in log if batch.lsn > layout.checkpoint_lsn]
            records = [record for batch in live if (record := batch.logical)]
            journal_region = journal.region_blocks()
            device = JournalDevice(
                device,
                journal,
                lsn=(log[-1].lsn if log else layout.checkpoint_lsn) + 1,
                head=sum(batch.blocks for batch in live),
            )
        engine = cls(device=device, **engine_kwargs)
        if layout.meta_head != sb.NO_BLOCK:
            payload, engine._image_chain = sb.read_chain(device, layout.meta_head)
            inodes, partition = sb.deserialize_metadata(
                payload, device.block_size, engine.page_capacity, device
            )
            engine._inodes.update(inodes)
            engine.refcount.adopt_partition(partition)
            engine.refcount.restore()
            engine._image_bytes = len(payload) + len(partition) * device.block_size
        for record in records:
            sb.apply_delta(
                record, engine._inodes, engine.refcount.set, engine._new_inode
            )
        for inode in engine._inodes.values():
            inode.mark_clean()
        engine.refcount.mark_clean()
        if layout.snap_head != sb.NO_BLOCK:
            snap_payload, engine._snap_chain = sb.read_chain(device, layout.snap_head)
            engine.snapshots.load(snap_payload)
        used = (
            {sb.SUPERBLOCK_NO}
            | journal_region
            | set(engine._image_chain)
            | set(engine._snap_chain)
            | set(engine.refcount.partition_blocks)
            | set(engine.refcount.live_blocks())
        )
        device.rebuild_free_list(used)
        # Snapshot-only blocks are as live as inode-held ones: the index
        # must resolve them or dedup would re-store their content.
        engine.compressor.rebuild_hashtable(engine._index_sources())
        return engine

    def remount(self) -> int:
        """Simulate unmount + mount (Section 4.2 durability discussion).

        The refcount partition is persisted and restored from the
        device; the memory-only blockHashTable is dropped and rebuilt
        by scanning the live blocks.  Returns the number of blocks
        scanned during index reconstruction.
        """
        self._flush_pending()
        self.refcount.persist()
        self.refcount.restore()
        # The durable image still names the partition blocks persist()
        # just replaced: only a checkpoint may retire them.
        self._image_stale = True
        return self.compressor.rebuild_hashtable(self._index_sources())

    def describe(self, path: str) -> dict[str, object]:
        """Structural summary of one file (for inspection and the CLI)."""
        inode = self.inode(path)
        block_numbers = inode.all_block_numbers()
        distinct = set(block_numbers)
        shared = sum(
            1 for block_no in distinct if self.refcount.get(block_no) > 1
        )
        return {
            "path": path,
            "size": inode.size,
            "slots": inode.num_slots,
            "pointer_pages": inode.num_pages,
            "depth": inode.depth,
            "distinct_blocks": len(distinct),
            "shared_blocks": shared,
            "hole_slots": inode.hole_slots,
            "hole_bytes": inode.hole_bytes,
        }

    # -- maintenance ---------------------------------------------------------------------
    def defragment(self, path: str) -> int:
        """Rewrite a file without holes; returns slots eliminated.

        Holes accumulate under heavy insert/delete traffic (the paper
        notes repairing them is data movement, so it is done on demand,
        not inline).  The rewritten blocks go through the compressor,
        so dedup is preserved.
        """
        inode = self.inode(path)
        before = inode.num_slots
        data = self.read_file(path)
        old_slots = list(inode.iter_slots())
        while inode.num_slots:
            inode.remove_slot(inode.num_slots - 1)
        block_size = self.device.block_size
        pieces = [
            (data[start : start + block_size], min(block_size, len(data) - start))
            for start in range(0, len(data), block_size)
        ]
        for slot in self.compressor.store_many(pieces):
            inode.append_slot(slot)
        # Release the old references only after the new ones exist, so
        # shared blocks that survive the rewrite are never freed.
        for slot in old_slots:
            self.compressor.release(slot)
        return before - inode.num_slots

    def fsck(self, repair: bool = True) -> dict[str, int]:
        """Verify (and with ``repair`` restore) cross-structure invariants.

        Checks that blockRefCount matches the references actually held
        by the pointer tables, that no counted block is orphaned, and
        that the hole directory is consistent with the inodes; rebuilds
        blockHashTable.  With ``repair`` (the default) refcounts are
        recomputed and leaked blocks freed; without it the report only
        counts violations, mutating nothing.  All-zero counters (other
        than ``index_entries``) mean a healthy image.
        """
        self._flush_pending()
        observed: dict[int, int] = {}
        for inode in self._inodes.values():
            for slot in inode.iter_slots():
                observed[slot.block_no] = observed.get(slot.block_no, 0) + 1
        # References held by snapshots are first-class: without them a
        # snapshot-only block would be "repaired" into oblivion.
        for block_no, held in self.snapshots.block_references().items():
            observed[block_no] = observed.get(block_no, 0) + held
        # MVCC session pins count toward the combined total ``get()``
        # reports, but repairs must write back only the durable share.
        pins = self.refcount.pinned_counts()
        for block_no, held in pins.items():
            observed[block_no] = observed.get(block_no, 0) + held
        fixed = 0
        for block_no, expected in observed.items():
            if self.refcount.get(block_no) != expected:
                if repair:
                    self.refcount.set(block_no, expected - pins.get(block_no, 0))
                fixed += 1
        leaked = 0
        for block_no in self.refcount.live_blocks():
            if block_no not in observed:
                if repair:
                    self.refcount.set(block_no, 0)
                    self.device.free(block_no)
                leaked += 1
        holes = self.holes.check_consistency()
        rebuilt = self.compressor.rebuild_hashtable(self._index_sources())
        if repair and (fixed or leaked):
            # Re-base the durable state on the verified structures.
            self._image_stale = True
        return {
            "refcounts_fixed": fixed,
            "blocks_reclaimed": leaked,
            "hole_inconsistencies": holes,
            "index_entries": rebuilt,
        }

    # -- integrity ----------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Engine-wide consistency checks used by property tests.

        * every inode's internal accounting holds;
        * refcounts equal the number of slots referencing each block;
        * every live block is resolvable through blockHashTable and no
          two live blocks share content (full dedup).
        """
        self._flush_pending()
        observed: dict[int, int] = {}
        for inode in self._inodes.values():
            inode.check_invariants()
            for slot in inode.iter_slots():
                observed[slot.block_no] = observed.get(slot.block_no, 0) + 1
        for block_no, held in self.snapshots.block_references().items():
            observed[block_no] = observed.get(block_no, 0) + held
        for block_no, held in self.refcount.pinned_counts().items():
            observed[block_no] = observed.get(block_no, 0) + held
        for block_no, expected in observed.items():
            actual = self.refcount.get(block_no)
            if actual != expected:
                raise AssertionError(
                    f"block {block_no}: refcount {actual} != {expected} references"
                )
        for block_no in self.refcount.live_blocks():
            if block_no not in observed:
                raise AssertionError(f"block {block_no} refcounted but unreferenced")
        if self.compressor.dedup:
            self.hashtable.check_invariants()
            contents: dict[bytes, int] = {}
            order = list(observed)
            fetched = dict(zip(order, self.device.read_blocks(order)))
            for block_no, content in fetched.items():
                if content in contents:
                    raise AssertionError(
                        f"blocks {contents[content]} and {block_no} share content"
                    )
                contents[content] = block_no
                if self.hashtable.find_duplicate(content, fetched=fetched) != block_no:
                    raise AssertionError(f"block {block_no} not resolvable via hashtable")
