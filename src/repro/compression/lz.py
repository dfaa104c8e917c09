"""Pure-Python LZ77 codecs standing in for LZ4 and Snappy.

The evaluation uses LZ4 as the general-purpose compressor baseline
("baseline (LZ4)" / "CompressDB (LZ4)", Table 2) and Snappy as
LevelDB's default block compression (Section 6.5).  No native
libraries are available offline, so this module implements both wire
formats over one greedy hash-table matcher:

* :func:`lz4_compress` / :func:`lz4_decompress` — the LZ4 *block*
  format (token byte, literal run, little-endian 16-bit offset,
  extension bytes, min-match 4);
* :func:`snappy_compress` / :func:`snappy_decompress` — the Snappy
  format (uvarint length header, tagged literal/copy elements).

Ratios land in the same regime as the native codecs on text; speed is
whatever pure Python gives, which is why benchmarks report simulated
I/O time separately from codec CPU time.
"""

from __future__ import annotations

from repro.varint import VarintError, read_varint, write_varint

_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
_HASH_LOG = 16


class CorruptStream(Exception):
    """Raised when a compressed stream cannot be decoded."""


def _hash4(data: bytes, i: int) -> int:
    """Multiplicative hash of the 4 bytes at ``i`` (LZ4-style)."""
    word = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16) | (data[i + 3] << 24)
    return ((word * 2654435761) & 0xFFFFFFFF) >> (32 - _HASH_LOG)


def _find_match(data: bytes, i: int, table: dict[int, int]) -> tuple[int, int]:
    """Return (match_position, match_length) at ``i``, or (-1, 0)."""
    if i + _MIN_MATCH > len(data):
        return -1, 0
    h = _hash4(data, i)
    candidate = table.get(h, -1)
    table[h] = i
    if candidate < 0 or i - candidate > _MAX_OFFSET:
        return -1, 0
    if data[candidate : candidate + _MIN_MATCH] != data[i : i + _MIN_MATCH]:
        return -1, 0
    length = _MIN_MATCH
    limit = len(data)
    while i + length < limit and data[candidate + length] == data[i + length]:
        length += 1
    return candidate, length


# ---------------------------------------------------------------------------
# LZ4 block format
# ---------------------------------------------------------------------------

def _write_length(out: bytearray, value: int) -> None:
    """LZ4 length extension: 255-bytes until the remainder fits."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def lz4_compress(data: bytes) -> bytes:
    """Compress ``data`` into an LZ4-block-format byte string."""
    out = bytearray()
    table: dict[int, int] = {}
    i = 0
    anchor = 0
    n = len(data)
    # The format requires the last 5 bytes (and the last match to end
    # 12 bytes before the end) to be literals; emitting the tail of the
    # input as literals satisfies both.
    match_limit = max(0, n - 12)
    while i < match_limit:
        position, length = _find_match(data, i, table)
        if length == 0:
            i += 1
            continue
        length = min(length, n - 5 - i)
        if length < _MIN_MATCH:
            i += 1
            continue
        literal_len = i - anchor
        offset = i - position
        token_literal = min(literal_len, 15)
        token_match = min(length - _MIN_MATCH, 15)
        out.append((token_literal << 4) | token_match)
        if literal_len >= 15:
            _write_length(out, literal_len - 15)
        out.extend(data[anchor:i])
        out.append(offset & 0xFF)
        out.append(offset >> 8)
        if length - _MIN_MATCH >= 15:
            _write_length(out, length - _MIN_MATCH - 15)
        # Index a couple of positions inside the match to help later matches.
        step = max(1, length // 8)
        for j in range(i + 1, min(i + length, match_limit), step):
            table[_hash4(data, j)] = j
        i += length
        anchor = i
    # Final literal run.
    literal_len = n - anchor
    token_literal = min(literal_len, 15)
    out.append(token_literal << 4)
    if literal_len >= 15:
        _write_length(out, literal_len - 15)
    out.extend(data[anchor:])
    return bytes(out)


def lz4_decompress(data: bytes) -> bytes:
    """Decompress an LZ4-block-format byte string."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        token = data[i]
        i += 1
        literal_len = token >> 4
        if literal_len == 15:
            while True:
                if i >= n:
                    raise CorruptStream("truncated literal length")
                extra = data[i]
                i += 1
                literal_len += extra
                if extra != 255:
                    break
        if i + literal_len > n:
            raise CorruptStream("truncated literals")
        out.extend(data[i : i + literal_len])
        i += literal_len
        if i >= n:
            break  # final sequence has no match part
        if i + 2 > n:
            raise CorruptStream("truncated offset")
        offset = data[i] | (data[i + 1] << 8)
        i += 2
        if offset == 0 or offset > len(out):
            raise CorruptStream(f"bad offset {offset}")
        match_len = (token & 0x0F) + _MIN_MATCH
        if (token & 0x0F) == 15:
            while True:
                if i >= n:
                    raise CorruptStream("truncated match length")
                extra = data[i]
                i += 1
                match_len += extra
                if extra != 255:
                    break
        start = len(out) - offset
        for j in range(match_len):  # byte-wise: matches may self-overlap
            out.append(out[start + j])
    return bytes(out)


# ---------------------------------------------------------------------------
# Snappy format
# ---------------------------------------------------------------------------

def _emit_snappy_literal(out: bytearray, chunk: bytes) -> None:
    length = len(chunk) - 1
    if length < 60:
        out.append(length << 2)
    elif length < 1 << 8:
        out.append(60 << 2)
        out.append(length)
    elif length < 1 << 16:
        out.append(61 << 2)
        out.extend(length.to_bytes(2, "little"))
    elif length < 1 << 24:
        out.append(62 << 2)
        out.extend(length.to_bytes(3, "little"))
    else:
        out.append(63 << 2)
        out.extend(length.to_bytes(4, "little"))
    out.extend(chunk)


def _emit_snappy_copy(out: bytearray, offset: int, length: int) -> None:
    # Split long matches into <=64-byte copies (copy-2 element limit).
    while length > 0:
        piece = min(length, 64)
        if piece < 4:
            # copy-2 supports lengths 1..64, so short tails are fine too
            pass
        if 4 <= piece <= 11 and offset < 2048:
            out.append(0b01 | ((piece - 4) << 2) | ((offset >> 8) << 5))
            out.append(offset & 0xFF)
        else:
            out.append(0b10 | ((piece - 1) << 2))
            out.extend(offset.to_bytes(2, "little"))
        length -= piece


def snappy_compress(data: bytes) -> bytes:
    """Compress ``data`` into Snappy format."""
    out = bytearray()
    write_varint(out, len(data))
    table: dict[int, int] = {}
    i = 0
    anchor = 0
    n = len(data)
    while i + _MIN_MATCH <= n:
        position, length = _find_match(data, i, table)
        if length == 0:
            i += 1
            continue
        if i > anchor:
            _emit_snappy_literal(out, data[anchor:i])
        _emit_snappy_copy(out, i - position, length)
        step = max(1, length // 8)
        for j in range(i + 1, min(i + length, n - _MIN_MATCH), step):
            table[_hash4(data, j)] = j
        i += length
        anchor = i
    if anchor < n:
        _emit_snappy_literal(out, data[anchor:])
    return bytes(out)


def snappy_decompress(data: bytes) -> bytes:
    """Decompress a Snappy-format byte string."""
    try:
        expected, i = read_varint(data, 0)
    except VarintError as exc:
        raise CorruptStream(f"bad length header: {exc}") from exc
    out = bytearray()
    n = len(data)
    while i < n:
        tag = data[i]
        kind = tag & 0b11
        i += 1
        if kind == 0b00:  # literal
            length = (tag >> 2) + 1
            if length > 60:
                width = length - 60
                if i + width > n:
                    raise CorruptStream("truncated literal header")
                length = int.from_bytes(data[i : i + width], "little") + 1
                i += width
            if i + length > n:
                raise CorruptStream("truncated literal body")
            out.extend(data[i : i + length])
            i += length
            continue
        if kind == 0b01:  # copy with 1-byte offset
            length = ((tag >> 2) & 0b111) + 4
            if i >= n:
                raise CorruptStream("truncated copy-1")
            offset = ((tag >> 5) << 8) | data[i]
            i += 1
        elif kind == 0b10:  # copy with 2-byte offset
            length = (tag >> 2) + 1
            if i + 2 > n:
                raise CorruptStream("truncated copy-2")
            offset = int.from_bytes(data[i : i + 2], "little")
            i += 2
        else:
            raise CorruptStream("copy-4 elements are not emitted by this codec")
        if offset == 0 or offset > len(out):
            raise CorruptStream(f"bad offset {offset}")
        start = len(out) - offset
        for j in range(length):
            out.append(out[start + j])
    if len(out) != expected:
        raise CorruptStream(f"length mismatch: {len(out)} != {expected}")
    return bytes(out)


# ---------------------------------------------------------------------------
# Codec objects
# ---------------------------------------------------------------------------

class Codec:
    """Uniform compress/decompress interface used by SSTables and benches."""

    name = "identity"

    def compress(self, data: bytes) -> bytes:
        return data

    def decompress(self, data: bytes) -> bytes:
        return data

    def ratio(self, data: bytes) -> float:
        """Original size / compressed size for ``data``."""
        if not data:
            return 1.0
        return len(data) / max(1, len(self.compress(data)))


class IdentityCodec(Codec):
    """No-op codec (compression disabled)."""


class LZ4Codec(Codec):
    name = "lz4"

    def compress(self, data: bytes) -> bytes:
        return lz4_compress(data)

    def decompress(self, data: bytes) -> bytes:
        return lz4_decompress(data)


class SnappyCodec(Codec):
    name = "snappy"

    def compress(self, data: bytes) -> bytes:
        return snappy_compress(data)

    def decompress(self, data: bytes) -> bytes:
        return snappy_decompress(data)
