"""blockHashTable: content hash -> block number, with chained buckets.

Section 4.2/4.3 of the paper: the key is (the hash of) a block's
content, the value is its block number.  A 64-bit hash is reduced
modulo the table length to pick a bucket; buckets are linked lists, and
on lookup the candidate blocks' contents are compared byte-for-byte so
the system is resilient to hash collisions.

The table additionally keeps a reverse map ``block -> hash`` so a
block's record can be deleted when its content changes (Algorithm 1,
lines 3 and 11).  Both maps count toward the memory figures reported in
Table 3.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Mapping, Optional

#: Per-entry memory estimate (bytes) used for Table 3 reporting: one
#: 64-bit hash, one block number, and chain/bucket overhead.
ENTRY_MEMORY_BYTES = 36


def hash_block(content: bytes) -> int:
    """Stable 64-bit content hash (blake2b truncated to 8 bytes)."""
    digest = hashlib.blake2b(content, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class BlockHashTable:
    """Chained hash table mapping block content to block numbers.

    ``reader`` fetches a block's current content by number; it is used
    to confirm candidate matches byte-for-byte.
    """

    def __init__(
        self,
        reader: Callable[[int], bytes],
        length: int = 1 << 16,
    ) -> None:
        if length <= 0:
            raise ValueError("table length must be positive")
        self._reader = reader
        self._length = length
        # Chains are materialised on first use: a mount (and every
        # crash-matrix iteration) builds a table, and allocating
        # ``length`` empty lists up front cost more than the mount.
        self._buckets: list[Optional[list[tuple[int, int]]]] = [None] * length
        self._block_hash: dict[int, int] = {}
        self._entries = 0
        self.probe_comparisons = 0

    def __len__(self) -> int:
        return self._entries

    def __contains__(self, block_no: int) -> bool:
        return block_no in self._block_hash

    def _bucket_for(self, hashed: int) -> list[tuple[int, int]]:
        index = hashed % self._length
        bucket = self._buckets[index]
        if bucket is None:
            bucket = self._buckets[index] = []
        return bucket

    # -- paper operations -------------------------------------------------
    def find_duplicate(
        self, content: bytes, hashed: Optional[int] = None, fetched: Mapping[int, bytes] = {}
    ) -> Optional[int]:
        """Return the block number of a live block with identical content.

        This is ``hash_find_duplicate`` from Algorithm 1.  Candidates
        with the same 64-bit hash (``hashed``, if the caller has it) are
        verified by comparing the actual block contents: those the
        caller read in advance (``fetched``), the rest read on demand.
        """
        hashed = hash_block(content) if hashed is None else hashed
        for entry_hash, block_no in self._buckets[hashed % self._length] or ():
            if entry_hash != hashed:
                continue
            self.probe_comparisons += 1
            if (fetched.get(block_no) or self._reader(block_no)) == content:
                return block_no
        return None

    def first_candidates(self, hashes: Iterable[int]) -> list[int]:
        """The block :meth:`find_duplicate` would read first, per hash."""
        firsts = []
        for hashed in hashes:
            for entry_hash, block_no in self._buckets[hashed % self._length] or ():
                if entry_hash == hashed:
                    firsts.append(block_no)
                    break
        return firsts

    def add_record(self, block_no: int, content: bytes, hashed: Optional[int] = None) -> None:
        """Register ``block_no`` as holding ``content`` (of hash ``hashed``)."""
        if block_no in self._block_hash:
            raise KeyError(f"block {block_no} already recorded")
        hashed = hash_block(content) if hashed is None else hashed
        self._bucket_for(hashed).append((hashed, block_no))
        self._block_hash[block_no] = hashed
        self._entries += 1

    def delete_record(self, block_no: int) -> None:
        """Remove the record for ``block_no`` (before its content changes)."""
        hashed = self._block_hash.pop(block_no, None)
        if hashed is None:
            raise KeyError(f"block {block_no} not recorded")
        bucket = self._bucket_for(hashed)
        for i, (entry_hash, entry_block) in enumerate(bucket):
            if entry_block == block_no and entry_hash == hashed:
                bucket.pop(i)
                self._entries -= 1
                return
        raise KeyError(f"block {block_no} missing from bucket")  # pragma: no cover

    # -- introspection ------------------------------------------------------
    def memory_bytes(self) -> int:
        """Estimated memory footprint, for Table 3."""
        return self._entries * ENTRY_MEMORY_BYTES

    def clear(self) -> None:
        """Drop every record (the table is not kept across a remount)."""
        self._buckets = [None] * self._length
        self._block_hash.clear()
        self._entries = 0

    def load_factor(self) -> float:
        return self._entries / self._length

    def check_invariants(self) -> None:
        """Verify bucket membership matches the reverse map (for tests)."""
        seen = 0
        for bucket_no, bucket in enumerate(self._buckets):
            for entry_hash, block_no in bucket or ():
                if entry_hash % self._length != bucket_no:
                    raise AssertionError("entry in wrong bucket")
                if self._block_hash.get(block_no) != entry_hash:
                    raise AssertionError("reverse map out of sync")
                seen += 1
        if seen != self._entries:
            raise AssertionError(f"entry count mismatch: {seen} != {self._entries}")
