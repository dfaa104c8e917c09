"""Snapshot records: frozen inode tables and their on-device form.

A snapshot freezes the engine's inode table at one instant.  The frozen
form is deliberately *not* an :class:`~repro.storage.inode.Inode`: it
carries no device handle, charges no metadata cost, and can never be
mutated — it is the pure slot list ``(block_no, used)*`` plus enough
indexing to serve positional reads.  The whole snapshot table
serialises into one byte stream written to a superblock-registered
metadata chain (superblock v4), next to — but independent of — the
live metadata image.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.storage.block_device import BlockDevice
from repro.storage.inode import Slot
from repro.varint import VarintError, read_varint, write_varint


class SnapshotError(Exception):
    """Base class for snapshot failures (bad name, bad target, ...)."""


class CorruptSnapshotTable(SnapshotError):
    """The persisted snapshot table does not decode."""


class FrozenInode:
    """An immutable point-in-time slot table of one file.

    Duck-types the read-side :class:`~repro.storage.inode.Inode`
    surface (``iter_slots``, ``size``, ``num_slots``, ``locate``) so it
    can feed :meth:`Compressor.rebuild_hashtable
    <repro.core.compressor.Compressor.rebuild_hashtable>` and the diff
    walker unchanged.
    """

    __slots__ = ("block_size", "slots", "_ends")

    def __init__(self, block_size: int, slots: Iterable[Slot]) -> None:
        self.block_size = block_size
        self.slots: tuple[Slot, ...] = tuple(slots)
        # Cumulative end offsets, so locate() is a bisect not a scan.
        ends: list[int] = []
        total = 0
        for slot in self.slots:
            total += slot.used
            ends.append(total)
        self._ends = ends

    @classmethod
    def freeze(cls, block_size: int, inode) -> "FrozenInode":
        """Capture a live inode's current slot table."""
        return cls(
            block_size,
            (Slot(block_no=s.block_no, used=s.used) for s in inode.iter_slots()),
        )

    @property
    def size(self) -> int:
        return self._ends[-1] if self._ends else 0

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def iter_slots(self, start: int = 0) -> Iterator[Slot]:
        return iter(self.slots[start:])

    def locate(self, offset: int) -> tuple[int, int]:
        """(slot index, offset within the slot) covering ``offset``."""
        if offset < 0 or offset >= self.size:
            raise ValueError(f"offset {offset} outside frozen file of {self.size} bytes")
        index = bisect_right(self._ends, offset)
        start = self._ends[index - 1] if index else 0
        return index, offset - start

    def read(self, device: BlockDevice, offset: int, size: int) -> bytes:
        """POSIX-style positional read served from the frozen table.

        Every needed block is fetched in one scatter-gather device
        request; short reads at end of file, never an error.
        """
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be non-negative")
        if offset >= self.size or size == 0:
            return b""
        size = min(size, self.size - offset)
        index, within = self.locate(offset)
        run: list[Slot] = []
        covered = -within
        for slot in self.iter_slots(index):
            run.append(slot)
            covered += slot.used
            if covered >= size:
                break
        contents = device.read_blocks([slot.block_no for slot in run])
        parts: list[bytes] = []
        remaining = size
        for slot, content in zip(run, contents):
            piece = content[: slot.used][within : within + remaining]
            parts.append(piece)
            remaining -= len(piece)
            within = 0
        return b"".join(parts)


@dataclass
class SnapshotRecord:
    """One named snapshot: an id, and the frozen table of every file."""

    name: str
    snap_id: int
    files: dict[str, FrozenInode] = field(default_factory=dict)

    @property
    def logical_bytes(self) -> int:
        return sum(frozen.size for frozen in self.files.values())

    @property
    def slot_count(self) -> int:
        return sum(frozen.num_slots for frozen in self.files.values())


# -- serialisation ------------------------------------------------------------

def serialize_snapshots(records: Iterable[SnapshotRecord]) -> bytes:
    """Pack the whole snapshot table into one byte stream."""
    ordered = sorted(records, key=lambda record: record.snap_id)
    out = bytearray()
    write_varint(out, len(ordered))
    for record in ordered:
        raw_name = record.name.encode("utf-8")
        write_varint(out, record.snap_id)
        write_varint(out, len(raw_name))
        out += raw_name
        write_varint(out, len(record.files))
        for path in sorted(record.files):
            raw_path = path.encode("utf-8")
            write_varint(out, len(raw_path))
            out += raw_path
            frozen = record.files[path]
            write_varint(out, frozen.num_slots)
            for slot in frozen.iter_slots():
                write_varint(out, slot.block_no)
                write_varint(out, slot.used)
    return bytes(out)


def deserialize_snapshots(payload: bytes, block_size: int) -> list[SnapshotRecord]:
    """Invert :func:`serialize_snapshots`; a malformed payload raises
    :class:`CorruptSnapshotTable`, never a stray builtin."""

    def text(offset: int) -> tuple[str, int]:
        length, offset = read_varint(payload, offset)
        if offset + length > len(payload):
            raise CorruptSnapshotTable("snapshot table: name runs past the end")
        return payload[offset : offset + length].decode("utf-8"), offset + length

    try:
        count, offset = read_varint(payload, 0)
        records: list[SnapshotRecord] = []
        for __ in range(count):
            snap_id, offset = read_varint(payload, offset)
            name, offset = text(offset)
            file_count, offset = read_varint(payload, offset)
            files: dict[str, FrozenInode] = {}
            for __file in range(file_count):
                path, offset = text(offset)
                slot_count, offset = read_varint(payload, offset)
                slots: list[Slot] = []
                for __slot in range(slot_count):
                    block_no, offset = read_varint(payload, offset)
                    used, offset = read_varint(payload, offset)
                    slots.append(Slot(block_no=block_no, used=used))
                files[path] = FrozenInode(block_size, slots)
            records.append(SnapshotRecord(name=name, snap_id=snap_id, files=files))
    except (VarintError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotTable(f"corrupt snapshot table: {exc}") from exc
    return records
