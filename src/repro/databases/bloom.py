"""Bloom filters for SSTable key lookups.

LevelDB consults a per-table Bloom filter before touching data blocks,
so a ``Get`` for an absent key usually costs no I/O in that table.
MiniLevelDB does the same: each SSTable stores a filter built from its
keys; a negative filter answer skips the table entirely.

The implementation is the standard double-hashing scheme (Kirsch &
Mitzenmacher): two independent 64-bit hashes combine into k probe
positions.  False positives are possible (and measured by tests);
false negatives are not.
"""

from __future__ import annotations

import hashlib
import math

from repro.databases.common import CorruptRecord


class BloomFilter:
    """A fixed-size Bloom filter over byte-string keys."""

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0 or hashes <= 0:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray(-(-bits // 8))

    @classmethod
    def for_capacity(cls, expected_keys: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``expected_keys`` at the target FP rate."""
        expected_keys = max(1, expected_keys)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        bits = int(-expected_keys * math.log(false_positive_rate) / (math.log(2) ** 2))
        hashes = max(1, round(bits / expected_keys * math.log(2)))
        return cls(bits=max(8, bits), hashes=hashes)

    def _probes(self, key: bytes):
        digest = hashlib.blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full cycle
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.bits

    def add(self, key: bytes) -> None:
        for bit in self._probes(key):
            self._array[bit >> 3] |= 1 << (bit & 7)

    def __contains__(self, key: bytes) -> bool:
        return all(
            self._array[bit >> 3] & (1 << (bit & 7)) for bit in self._probes(key)
        )

    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostic for over-full filters)."""
        set_bits = sum(bin(byte).count("1") for byte in self._array)
        return set_bits / self.bits

    # -- serialisation -------------------------------------------------
    def serialize(self) -> bytes:
        header = self.bits.to_bytes(8, "little") + self.hashes.to_bytes(4, "little")
        return header + bytes(self._array)

    @classmethod
    def deserialize(cls, payload: bytes) -> "BloomFilter":
        """Inverse of :meth:`serialize`.  A header that does not match its
        payload, or asks for more than 64 probes (a 1e-9 false-positive
        rate needs 30), raises :class:`CorruptRecord` before allocating."""
        bits = int.from_bytes(payload[:8], "little")
        hashes = int.from_bytes(payload[8:12], "little")
        if bits <= 0 or not 0 < hashes <= 64 or -(-bits // 8) != len(payload) - 12:
            raise CorruptRecord(f"bloom header {bits}/{hashes} vs {len(payload)} bytes")
        instance = cls(bits=bits, hashes=hashes)
        instance._array[:] = payload[12:]
        return instance
