"""The snapshot manager: lifecycle of point-in-time engine images.

Creating a snapshot is O(metadata): freeze every inode's slot table
(:class:`~repro.snap.record.FrozenInode`) and take one extra reference
on every block those slots name.  From then on the existing
copy-on-write machinery does all the work — any live mutation of a
shared block sees ``refcount > 1`` and diverges, so the frozen image
stays readable forever at zero incremental cost.

Every mutator is one unit of the journal's ambient epoch and never
commits partway, so on a journaled device snapshot create /
delete / rollback / clone commit atomically with the metadata image:
a crash at any device write recovers to exactly the pre- or
post-operation state (``TestSnapshotCrashMatrix`` checks every write
index).  Persistence itself happens in
:meth:`CompressDB.flush <repro.core.engine.CompressDB.flush>`: a dirty
table (:attr:`SnapshotManager.dirty`) makes that sync point a
checkpoint, which writes the serialised table to its own
superblock-registered metadata chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.snap.diff import DiffEntry, diff_tables
from repro.snap.record import (
    FrozenInode,
    SnapshotError,
    SnapshotRecord,
    deserialize_snapshots,
    serialize_snapshots,
)
from repro.storage.inode import Inode, Slot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine owns us)
    from repro.core.engine import CompressDB


class SnapshotNotFound(SnapshotError):
    """The named snapshot does not exist."""


class SnapshotExists(SnapshotError):
    """A snapshot (or clone target) with that name already exists."""


class SnapshotManager:
    """Named point-in-time images of one engine's namespace."""

    def __init__(self, engine: "CompressDB") -> None:
        self.engine = engine
        self._records: dict[str, SnapshotRecord] = {}
        self._next_id = 1
        self._dirty = False
        registry = engine.obs.registry
        self._c_creates = registry.counter("engine.snap.creates")
        self._c_deletes = registry.counter("engine.snap.deletes")
        self._c_rollbacks = registry.counter("engine.snap.rollbacks")
        self._c_clones = registry.counter("engine.snap.clones")
        self._g_count = registry.gauge("engine.snap.count")

    # -- inspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def names(self) -> list[str]:
        """Snapshot names in creation order."""
        ordered = sorted(self._records.values(), key=lambda r: r.snap_id)
        return [record.name for record in ordered]

    def get(self, name: str) -> SnapshotRecord:
        try:
            return self._records[name]
        except KeyError:
            raise SnapshotNotFound(name) from None

    def lookup(self, name: str, path: str) -> Optional[FrozenInode]:
        """Resolve ``path`` inside snapshot ``name``; None when absent.

        Tolerates a missing/extra leading slash so virtual ``.snap``
        paths round-trip regardless of the engine's path convention.
        """
        files = self.get(name).files
        frozen = files.get(path)
        if frozen is not None:
            return frozen
        if path.startswith("/"):
            return files.get(path[1:])
        return files.get("/" + path)

    @property
    def dirty(self) -> bool:
        """Whether the table differs from its last persisted image."""
        return self._dirty

    def mark_clean(self) -> None:
        self._dirty = False

    # -- persistence hooks (driven by CompressDB.flush / mount) ---------------
    def serialize(self) -> bytes:
        return serialize_snapshots(self._records.values())

    def load(self, payload: bytes) -> None:
        """Adopt a persisted snapshot table (at mount time)."""
        records = deserialize_snapshots(payload, self.engine.device.block_size)
        self._records = {record.name: record for record in records}
        self._next_id = max((r.snap_id for r in records), default=0) + 1
        self._dirty = False
        self._g_count.set(len(self._records))

    def block_references(self) -> dict[int, int]:
        """block_no -> number of references held across all snapshots.

        Consumed by ``fsck``/``check_invariants``: snapshot-held
        references are as real as inode-held ones, and a verifier that
        ignored them would report every snapshot-only block as leaked.
        """
        held: dict[int, int] = {}
        for record in self._records.values():
            for frozen in record.files.values():
                for slot in frozen.iter_slots():
                    held[slot.block_no] = held.get(slot.block_no, 0) + 1
        return held

    def iter_frozen_inodes(self) -> Iterator[FrozenInode]:
        """Every frozen table (for blockHashTable reconstruction)."""
        for record in self._records.values():
            yield from record.files.values()

    # -- lifecycle ------------------------------------------------------------
    def create(self, name: str) -> SnapshotRecord:
        """Freeze the whole namespace as snapshot ``name``.

        Cost is one refcount increment per live slot plus the frozen
        slot lists — no data block is read or written.
        """
        self._check_name(name)
        if name in self._records:
            raise SnapshotExists(name)
        engine = self.engine
        engine._flush_pending()
        with engine.obs.tracer.span("snap.create", snapshot=name):
            files: dict[str, FrozenInode] = {}
            added: list[int] = []
            try:
                for path, inode in engine._inodes.items():
                    frozen = FrozenInode.freeze(engine.device.block_size, inode)
                    for slot in frozen.iter_slots():
                        engine.refcount.incref(slot.block_no)  # reprolint: disable=RC001 -- every incref is recorded in `added` and returned by the except-branch decref loop; ownership transfers to the record only when registration succeeds
                        added.append(slot.block_no)
                    files[path] = frozen
            except BaseException:
                # The record is never registered on failure: every
                # reference taken so far must come back or the blocks
                # leak (same contract as copy_file).
                for block_no in added:
                    engine.refcount.decref(block_no)
                raise
            record = SnapshotRecord(name=name, snap_id=self._next_id, files=files)
            self._next_id += 1
            self._records[name] = record
            self._dirty = True
        self._c_creates.inc()
        self._g_count.set(len(self._records))
        return record

    def delete(self, name: str) -> None:
        """Drop a snapshot, releasing every reference it holds.

        Blocks whose last reference was the snapshot's are freed (and
        leave blockHashTable) through the normal release path.
        """
        record = self.get(name)
        engine = self.engine
        with engine.obs.tracer.span("snap.delete", snapshot=name):
            for frozen in record.files.values():
                for slot in frozen.iter_slots():
                    engine.compressor.release(slot)
            del self._records[name]
            self._dirty = True
        self._c_deletes.inc()
        self._g_count.set(len(self._records))

    def rollback(self, name: str) -> None:
        """Reset the live namespace to snapshot ``name``.

        The snapshot survives the rollback (it can be rolled back to
        again).  Implemented as: reference the frozen image once more
        (the new live references), rebuild the inode table from it,
        then release every old live reference — so a failure at any
        point leaves refcounts balanced.
        """
        record = self.get(name)
        engine = self.engine
        engine._pending.clear()  # uncommitted coalesced appends die here
        with engine.obs.tracer.span("snap.rollback", snapshot=name):
            added: list[int] = []
            new_inodes: dict[str, Inode] = {}
            try:
                for path, frozen in record.files.items():
                    inode = Inode(
                        block_size=engine.device.block_size,
                        page_capacity=engine.page_capacity,
                        device=engine.device,
                    )
                    for slot in frozen.iter_slots():
                        engine.refcount.incref(slot.block_no)
                        added.append(slot.block_no)
                        inode.append_slot(Slot(block_no=slot.block_no, used=slot.used))
                    new_inodes[path] = inode
            except BaseException:
                for block_no in added:
                    engine.refcount.decref(block_no)
                raise
            old_slots = [
                slot
                for inode in engine._inodes.values()
                for slot in inode.iter_slots()
            ]
            # Publish the restored namespace in place: engine.holes
            # aliases this dict, so it must keep its identity.  Paths
            # the snapshot lacks leave the namespace like any unlink.
            engine._unlinked.update(engine._inodes)
            engine._inodes.clear()
            engine._inodes.update(new_inodes)
            for slot in old_slots:
                engine.compressor.release(slot)
        self._c_rollbacks.inc()

    def clone(self, name: str, dest_prefix: str) -> list[str]:
        """Materialise snapshot ``name`` as writable files.

        Every file of the snapshot appears under ``dest_prefix`` as an
        ordinary live file sharing all its blocks with the frozen
        image; writes to a clone CoW-diverge through the existing
        compressor paths.  Returns the created paths.
        """
        record = self.get(name)
        engine = self.engine
        prefix = dest_prefix.rstrip("/")
        if not prefix:
            raise SnapshotError("clone needs a non-root destination prefix")
        with engine.obs.tracer.span("snap.clone", snapshot=name, prefix=prefix):
            added: list[int] = []
            created: list[str] = []
            try:
                for path, frozen in record.files.items():
                    dest = prefix + (path if path.startswith("/") else "/" + path)
                    if dest in engine._inodes:
                        raise SnapshotExists(dest)
                    inode = Inode(
                        block_size=engine.device.block_size,
                        page_capacity=engine.page_capacity,
                        device=engine.device,
                    )
                    for slot in frozen.iter_slots():
                        engine.refcount.incref(slot.block_no)
                        added.append(slot.block_no)
                        inode.append_slot(Slot(block_no=slot.block_no, used=slot.used))
                    engine._inodes[dest] = inode
                    created.append(dest)
            except BaseException:
                # Unpublish whole files first, then return every
                # reference (including those of a half-built clone).
                for dest in created:
                    del engine._inodes[dest]
                for block_no in added:
                    engine.refcount.decref(block_no)
                raise
        self._c_clones.inc()
        return created

    # -- time travel ----------------------------------------------------------
    def read(
        self, name: str, path: str, offset: int = 0, size: Optional[int] = None
    ) -> bytes:
        """Read a file exactly as it was when ``name`` was taken."""
        frozen = self.lookup(name, path)
        if frozen is None:
            raise SnapshotNotFound(f"{path} in snapshot {name}")
        if size is None:
            size = frozen.size - offset
        return frozen.read(self.engine.device, offset, size)

    def diff(self, base: str, target: Optional[str] = None) -> list[DiffEntry]:
        """Changed files/extents from snapshot ``base`` to ``target``.

        ``target=None`` diffs against the *live* namespace, which is
        what incremental replication ships.
        """
        base_files = dict(self.get(base).files)
        if target is None:
            self.engine._flush_pending()
            target_files: dict[str, object] = dict(self.engine._inodes)
        else:
            target_files = dict(self.get(target).files)
        return diff_tables(base_files, target_files)

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or "/" in name or name.startswith("."):
            raise SnapshotError(
                f"invalid snapshot name {name!r}: must be non-empty, "
                "without '/', not starting with '.'"
            )
