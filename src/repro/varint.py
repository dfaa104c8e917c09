"""The one LEB128 unsigned varint codec.

Every byte format in the tree (superblock image, snapshot records,
wire payloads, database records, the Snappy length header) spells its
lengths and ids this way.  Decoding is bounds- and length-checked and
fails with :class:`VarintError` only; each format translates that into
its own corruption error once, at its decode boundary.
"""

from __future__ import annotations

#: Longest accepted encoding: 10 bytes carry 70 bits, enough for a u64.
MAX_VARINT_BYTES = 10


class VarintError(ValueError):
    """A varint ran off the end of its buffer or past
    :data:`MAX_VARINT_BYTES`."""


def write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative; a negative raises ``ValueError``)."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode the varint at ``offset`` (non-negative); returns
    (value, next offset)."""
    value = shift = 0
    try:
        while True:
            byte = data[offset]
            offset += 1
            if byte < 0x80:
                return value | (byte << shift), offset
            value |= (byte & 0x7F) << shift
            shift += 7
            if shift == 7 * MAX_VARINT_BYTES:
                raise VarintError(f"varint longer than {MAX_VARINT_BYTES} bytes")
    except IndexError:
        raise VarintError("truncated varint") from None
