"""Operation pushdown module: the paper's Section 4.4 operations.

All seven operations — ``extract``, ``replace``, ``insert``, ``delete``,
``append``, ``search``, ``count`` — run directly against the compressed
block representation inside the storage engine, never materialising the
whole file.  Unaligned inserts and deletes create holes instead of
shifting data; ``search``/``count`` exploit block sharing by scanning
each distinct block once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core import match
from repro.fs.errors import InvalidArgument
from repro.obs.metrics import CounterGroup
from repro.storage.inode import Inode, Slot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import CompressDB


class OperationError(InvalidArgument):
    """Invalid operation arguments (a range outside the file): EINVAL."""


#: The seven pushed-down operations plus word_count, registered as
#: ``engine.ops.*`` invocation counters.
OPERATION_FIELDS = (
    "extract",
    "replace",
    "insert",
    "delete",
    "append",
    "search",
    "count",
    "word_count",
)


def _tokenize_block(content: bytes) -> tuple[bool, bytes, Counter, bytes]:
    """Per-block tokenisation for :meth:`OperationModule.word_count`.

    Returns ``(solid, head, middle_counts, tail)``:

    * ``solid`` — the content has no whitespace at all (the whole block
      is one fragment bridging its junctions; ``head`` carries it);
    * ``head`` — the leading fragment (non-empty when the content does
      not start with whitespace);
    * ``middle_counts`` — words that begin *and* end inside the block;
    * ``tail`` — the trailing fragment (non-empty when the content does
      not end with whitespace).
    """
    if not content:
        return False, b"", Counter(), b""
    words = content.split()
    if not words:  # all whitespace
        return False, b"", Counter(), b""
    starts_mid_word = not content[:1].isspace()
    ends_mid_word = not content[-1:].isspace()
    if starts_mid_word and ends_mid_word and len(words) == 1:
        if len(words[0]) == len(content):
            return True, words[0], Counter(), b""
        # A single word with interior whitespace is impossible; this is
        # one word with surrounding whitespace stripped on one side only.
    head = words[0] if starts_mid_word else b""
    tail = words[-1] if ends_mid_word else b""
    middle = words[1 if starts_mid_word else 0 : len(words) - (1 if ends_mid_word else 0)]
    return False, head, Counter(middle), tail


@dataclass
class OperationModule:
    """Binds the seven pushed-down operations to a CompressDB engine."""

    engine: "CompressDB"
    stats: CounterGroup

    # -- helpers -----------------------------------------------------------
    def _inode(self, path: str) -> Inode:
        return self.engine.inode(path)

    def _slot_content(self, slot: Slot) -> bytes:
        """Valid bytes of a slot's block (hole stripped)."""
        return self.engine.device.read_block(slot.block_no)[: slot.used]

    def _chunk_slots(self, data: bytes) -> list[tuple[bytes, int]]:
        """Split ``data`` into (content, used) pieces of at most one block."""
        block_size = self.engine.device.block_size
        pieces = []
        for start in range(0, len(data), block_size):
            piece = data[start : start + block_size]
            pieces.append((piece, len(piece)))
        return pieces

    def _check_range(self, inode: Inode, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > inode.size:
            raise OperationError(
                f"range [{offset}, {offset + length}) outside file of {inode.size} bytes"
            )

    # -- extract ---------------------------------------------------------------
    def extract(self, path: str, offset: int, size: int) -> bytes:
        """Read ``size`` logical bytes starting at ``offset``.

        Reads beyond end-of-file are truncated (POSIX ``read``
        semantics).  The covering slot run is fetched in one
        scatter-gather device transaction via :meth:`CompressDB.readv`.
        """
        self.stats.record("extract")
        self._inode(path)  # existence check + pending-write flush
        if offset < 0 or size < 0:
            raise OperationError("offset and size must be non-negative")
        return self.engine.readv([(path, offset, size)])[0]

    # -- replace ----------------------------------------------------------------
    def replace(self, path: str, offset: int, data: bytes) -> None:
        """Overwrite ``len(data)`` bytes at ``offset`` in place.

        Unlike "delete + insert", replace rewrites the affected blocks
        directly (copy-on-write when shared), leaving the block layout
        and hole structure untouched.

        The slot run covering the range is planned first: fully
        overwritten slots need no device read at all, the partially
        covered boundary slots are fetched in one batched read, and the
        whole run commits through :meth:`Compressor.commit_many` as a
        single scatter-gather write — Algorithm 1 still runs per block.
        """
        self.stats.record("replace")
        inode = self._inode(path)
        self._check_range(inode, offset, len(data))
        if not data:
            return
        slot_index, within = inode.locate(offset)
        # Plan the slot run: (index, slot, offset-in-slot, take, data-offset).
        plan: list[tuple[int, Slot, int, int, int]] = []
        consumed = 0
        index = slot_index
        while consumed < len(data):
            slot = inode.slot_at(index)
            take = min(slot.used - within, len(data) - consumed)
            plan.append((index, slot, within, take, consumed))
            consumed += take
            within = 0
            index += 1
        # Boundary slots keep bytes outside the range: batch-read them.
        boundary = [
            slot.block_no
            for __, slot, begin, take, __ in plan
            if begin > 0 or take < slot.used
        ]
        old_contents = dict(
            zip(boundary, self.engine.device.read_blocks(boundary))
        )
        items: list[tuple[int, bytes, int]] = []
        for index, slot, begin, take, data_offset in plan:
            piece = data[data_offset : data_offset + take]
            if begin == 0 and take == slot.used:
                new_content = piece
            else:
                old = old_contents[slot.block_no][: slot.used]
                new_content = old[:begin] + piece + old[begin + take :]
            items.append((index, new_content, slot.used))
        self.engine.compressor.commit_many(inode, items)

    # -- insert --------------------------------------------------------------------
    def insert(self, path: str, offset: int, data: bytes) -> None:
        """Insert ``data`` at logical ``offset`` without moving other blocks.

        The slot containing ``offset`` is split; the inserted bytes are
        packed after the split point, and any unaligned tail becomes a
        hole (Figure 3c).  Only the affected pointer-page entries change.
        """
        self.stats.record("insert")
        inode = self._inode(path)
        if offset < 0 or offset > inode.size:
            raise OperationError(
                f"insert offset {offset} outside file of {inode.size} bytes"
            )
        if not data:
            return
        if offset == inode.size:
            self._append_data(inode, data)
            return
        slot_index, within = inode.locate(offset)
        if within == 0:
            # Aligned with a slot boundary: splice new slots in directly,
            # storing the whole run as one batched write.
            slots = self.engine.compressor.store_many(self._chunk_slots(data))
            for i, slot in enumerate(slots):
                inode.insert_slot(slot_index + i, slot)
            return
        # Split the slot: left part + inserted data, then the right part.
        slot = inode.slot_at(slot_index)
        old_content = self._slot_content(slot)
        left = old_content[:within]
        right = old_content[within:]
        self.engine.compressor.release(slot)
        inode.remove_slot(slot_index)
        pieces = self._chunk_slots(left + data)
        if right:
            pieces.append((right, len(right)))
        insert_at = slot_index
        for new_slot in self.engine.compressor.store_many(pieces):
            inode.insert_slot(insert_at, new_slot)
            insert_at += 1

    # -- delete ----------------------------------------------------------------------
    def delete(self, path: str, offset: int, length: int, merge_holes: bool = True) -> None:
        """Remove ``length`` bytes at ``offset``, leaving holes.

        Fully covered slots are released; the partial head and tail
        slots keep their remaining data at the front of a block with a
        hole at the end.  With ``merge_holes`` the head and tail
        remainders are packed into a single block when they fit,
        releasing the extra block (the hole-merging process of
        Section 4.4).
        """
        self.stats.record("delete")
        inode = self._inode(path)
        self._check_range(inode, offset, length)
        if length == 0:
            return
        start_index, start_within = inode.locate(offset)
        remaining = length
        # Head fragment: trim the tail of the first slot if the delete
        # starts mid-slot.
        if start_within > 0:
            slot = inode.slot_at(start_index)
            head_cut = min(slot.used - start_within, remaining)
            content = self._slot_content(slot)
            new_content = content[:start_within] + content[start_within + head_cut :]
            self.engine.compressor.commit(inode, start_index, new_content, len(new_content))
            remaining -= head_cut
            start_index += 1
        # Whole slots fully covered by the delete range.
        while remaining > 0:
            slot = inode.slot_at(start_index)
            if slot.used > remaining:
                break
            self.engine.compressor.release(slot)
            inode.remove_slot(start_index)
            remaining -= slot.used
        # Tail fragment: trim the head of the last slot.
        if remaining > 0:
            slot = inode.slot_at(start_index)
            content = self._slot_content(slot)
            new_content = content[remaining:]
            self.engine.compressor.commit(inode, start_index, new_content, len(new_content))
        if merge_holes and start_within > 0 and start_index < inode.num_slots:
            self._merge_adjacent(inode, start_index - 1)

    def _merge_adjacent(self, inode: Inode, left_index: int) -> None:
        """Merge two adjacent holey slots into one block when they fit."""
        if left_index < 0 or left_index + 1 >= inode.num_slots:
            return
        left = inode.slot_at(left_index)
        right = inode.slot_at(left_index + 1)
        if left.used + right.used > inode.block_size:
            return
        if left.used == inode.block_size or right.used == inode.block_size:
            return
        merged = self._slot_content(left) + self._slot_content(right)
        self.engine.compressor.release(right)
        inode.remove_slot(left_index + 1)
        self.engine.compressor.commit(inode, left_index, merged, len(merged))

    # -- append -----------------------------------------------------------------------
    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` at the end of the file.

        The end position is known from the inode, so no search for the
        insert position is needed; a trailing hole in the last slot is
        filled first, then whole blocks are stored (dedup applies).
        """
        self.stats.record("append")
        inode = self._inode(path)
        self._append_data(inode, data)

    def _append_data(self, inode: Inode, data: bytes) -> None:
        if not data:
            return
        block_size = inode.block_size
        if inode.num_slots > 0:
            last_index = inode.num_slots - 1
            last = inode.slot_at(last_index)
            room = block_size - last.used
            if room > 0:
                fill = data[:room]
                content = self._slot_content(last) + fill
                self.engine.compressor.commit(inode, last_index, content, len(content))
                data = data[room:]
        # The tail commits as one scatter-gather store of whole blocks.
        for slot in self.engine.compressor.store_many(self._chunk_slots(data)):
            inode.append_slot(slot)

    # -- analytics pushdown -----------------------------------------------------------
    def word_count(self, path: str) -> Counter:
        """Whitespace-token counts, computed on the compressed form.

        The TADOC-style analytics pushdown of Section 4.1: each
        *distinct* (block, used) pair is tokenised exactly once into
        (head fragment, complete-word counts, tail fragment); the file
        result stitches the per-block triples together, joining the
        fragments that span slot junctions.  A block shared by many
        slots contributes its counts at dictionary-merge cost.
        """
        self.stats.record("word_count")
        inode = self._inode(path)
        total: Counter = Counter()
        if inode.size == 0:
            return total
        slot_offsets, contents = self._gather(inode)
        analysis: dict[tuple[int, int], tuple] = {}
        for slot, __ in slot_offsets:
            key = (slot.block_no, slot.used)
            if key not in analysis:
                analysis[key] = _tokenize_block(contents[slot.block_no][: slot.used])
        pending = b""
        for slot, __ in slot_offsets:
            solid, head, middle, tail = analysis[(slot.block_no, slot.used)]
            if solid:
                # No whitespace at all: the whole block extends the
                # fragment crossing this junction.
                pending += head
                continue
            if head:
                total[pending + head] += 1
            elif pending:
                total[pending] += 1
            total.update(middle)
            pending = tail
        if pending:
            total[pending] += 1
        return total

    # -- search / count ------------------------------------------------------------------
    def search(self, path: str, pattern: bytes) -> list[int]:
        """All logical offsets where ``pattern`` occurs (overlaps included)."""
        self.stats.record("search")
        in_block, crossing = self._scan(path, pattern)
        found = list(crossing)
        for start, local, valid in in_block:
            found.extend([start + offset for offset in local[:valid]])
        found.sort()
        return found

    def count(self, path: str, pattern: bytes) -> int:
        """``len(search(path, pattern))`` — by construction, it is the
        same scan — with no offset materialised: the frequencies are
        read "directly" from the shared-block structure (Section 4.4)."""
        self.stats.record("count")
        in_block, crossing = self._scan(path, pattern)
        return sum(valid for __, __, valid in in_block) + sum(1 for __ in crossing)

    def _scan(
        self, path: str, pattern: bytes
    ) -> tuple[list[tuple[int, list[int], int]], Iterable[int]]:
        """The two stitched passes behind ``search`` and ``count``.

        Pass 1 scans each *distinct* block once — the data-reuse saving
        of Section 4.4 — and returns, per slot whose block has matches,
        ``(slot offset, the block's ascending match offsets, how many of
        them end within the slot's used bytes)``: hole padding never
        completes a match.  Pass 2 is :meth:`_crossing`.
        """
        inode = self._inode(path)
        m = len(pattern)
        if m == 0 or m > inode.size:
            return [], ()
        slot_offsets, contents = self._gather(inode)
        blocks = list(contents)
        hits: dict[int, list[int]] = {}
        for index, offset in match.find_strided(contents.values(), inode.block_size, pattern):
            hits.setdefault(blocks[index], []).append(offset)
        in_block = [
            (start, hits[slot.block_no], bisect_right(hits[slot.block_no], slot.used - m))
            for slot, start in slot_offsets
            if slot.block_no in hits
        ]
        return in_block, self._crossing(slot_offsets, contents, pattern)

    def _crossing(
        self, slot_offsets: list[tuple[Slot, int]], contents: dict[int, bytes], pattern: bytes
    ) -> Iterator[int]:
        """Logical offsets of the matches that cross a slot junction.

        A junction's window is the last ``m-1`` bytes of the slot left
        of it plus the next ``m-1`` bytes of the file, so a match inside
        it starts in that slot: each crossing match belongs to the
        first junction it crosses and is seen once.  Where both slots
        hold ``m-1`` bytes the window is ``2(m-1)`` long; those are
        stitched and scanned together, the rest built one by one.
        """
        edge = len(pattern) - 1
        starts: list[int] = []  # logical offset of each stitched window
        loose: list[int] = []  # matches of the windows scanned one by one

        def slot_bytes(index: int) -> bytes:
            slot = slot_offsets[index][0]
            return contents[slot.block_no][: slot.used]

        def windows() -> Iterator[bytes]:
            for index in range(1, len(slot_offsets)):
                left = slot_offsets[index - 1][0]
                right, junction = slot_offsets[index]
                if left.used >= edge and right.used >= edge:
                    starts.append(junction - edge)
                    tail = contents[left.block_no][left.used - edge : left.used]
                    yield tail + contents[right.block_no][:edge]
                else:
                    tail = slot_bytes(index - 1)[-edge:]
                    following = map(slot_bytes, range(index, len(slot_offsets)))
                    hits = match.find_crossing(tail, following, pattern)
                    loose.extend(junction - len(tail) + hit for hit in hits)

        if edge:  # 2(m-1) >= m, so find_strided drains windows()
            for index, offset in match.find_strided(windows(), 2 * edge, pattern):
                yield starts[index] + offset
            yield from loose

    def _gather(self, inode: Inode) -> tuple[list[tuple[Slot, int]], dict[int, bytes]]:
        """Slots with their logical offsets + each distinct block's bytes.

        Each distinct block is read from the device exactly once — the
        data-reuse saving of Section 4.4; the in-block scans and
        junction windows afterwards work on these buffers.
        """
        slot_offsets: list[tuple[Slot, int]] = []
        offset = 0
        for slot in inode.iter_slots():
            slot_offsets.append((slot, offset))
            offset += slot.used
        # One scatter-gather read over the distinct blocks of the file.
        unique = list(dict.fromkeys(slot.block_no for slot, __ in slot_offsets))
        contents = dict(zip(unique, self.engine.device.read_blocks(unique)))
        return slot_offsets, contents
