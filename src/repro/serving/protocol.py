"""Protocol v1: length-prefixed framed messages with CRC and request ids.

The serving layer's wire format (DESIGN.md §14).  Every message —
request or response — is one **frame**::

    +-------+---------+--------+-------+------------+-------------+-------+---------+
    | magic | version | opcode | flags | request_id | payload_len | crc32 | payload |
    |  4 B  |   1 B   |  1 B   |  2 B  |    4 B     |     4 B     |  4 B  |   ...   |
    +-------+---------+--------+-------+------------+-------------+-------+---------+

* ``magic`` (``CDBW``) and ``version`` gate decoding: a peer speaking
  a future protocol is rejected cleanly, not misparsed.
* ``request_id`` is chosen by the client and echoed in the response,
  so one connection can have several requests in flight.
* ``crc32`` covers the payload; a corrupted frame is detected before
  any field of it is interpreted (``ChecksumError``).
* ``flags`` distinguish responses and error responses.

Payloads are dictionaries serialized with a small deterministic tagged
binary encoding (:func:`pack_payload` / :func:`unpack_payload`) that
carries ``bytes`` natively — file contents and key-value pairs never
pay a hex/base64 detour.

The opcode set is **versioned**: :data:`OPCODES` is protocol v1 and is
append-only.  It covers the VFS surface, MVCC session control, the
three database front ends, and the compressed-domain pushdown
operations (search/count/aggregate, insert/delete, word count).

Framing errors subclass :class:`ProtocolError`, which the error table
in :mod:`repro.fs.errors` maps onto stable wire codes; a server
surviving a bad frame answers with that code and keeps the connection.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.fs.errors import FSError
from repro.varint import VarintError, read_varint, write_varint

MAGIC = b"CDBW"
PROTOCOL_VERSION = 1

_HEADER = struct.Struct("!4sBBHII")  # magic, version, opcode, flags, req id, len
_CRC = struct.Struct("!I")
HEADER_BYTES = _HEADER.size + _CRC.size

#: Response frame (server -> client).
FLAG_RESPONSE = 0x0001
#: Response carries an error body instead of a result.
FLAG_ERROR = 0x0002

#: Hard cap on one frame's payload, so a corrupted length field cannot
#: make a reader allocate unbounded memory.
MAX_PAYLOAD = 16 * 1024 * 1024

#: Protocol v1 opcode set.  Append-only: codes are part of the wire
#: format and may never be renumbered.
OPCODES: dict[str, int] = {
    # connection control
    "HELLO": 0x01,
    "PING": 0x02,
    "GOODBYE": 0x03,
    # VFS surface
    "FS_OPEN": 0x10,
    "FS_CLOSE": 0x11,
    "FS_PREAD": 0x12,
    "FS_PWRITE": 0x13,
    "FS_CREATE": 0x14,
    "FS_READ_FILE": 0x15,
    "FS_WRITE_FILE": 0x16,
    "FS_UNLINK": 0x17,
    "FS_STAT": 0x18,
    "FS_LIST": 0x19,
    "FS_RENAME": 0x1A,
    "FS_TRUNCATE": 0x1B,
    "FS_FSYNC": 0x1C,
    # MVCC sessions
    "SESSION_BEGIN": 0x20,
    "SESSION_COMMIT": 0x21,
    "SESSION_ABORT": 0x22,
    # database front ends
    "SQL_EXECUTE": 0x30,
    "KV_PUT": 0x31,
    "KV_GET": 0x32,
    "KV_DELETE": 0x33,
    "KV_SCAN": 0x34,
    "COLUMN_EXECUTE": 0x35,
    # compressed-domain pushdown
    "OPS_SEARCH": 0x40,
    "OPS_COUNT": 0x41,
    "AGGREGATE": 0x42,
    "OPS_INSERT": 0x43,
    "OPS_DELETE": 0x44,
    "OPS_WORD_COUNT": 0x45,
}

OPCODE_NAMES: dict[int, str] = {code: name for name, code in OPCODES.items()}


class ProtocolError(FSError):
    """A malformed or unparseable frame (EPROTO on the wire)."""

    errno_code = 71


class TruncatedFrame(ProtocolError):
    """The buffer ended before the advertised frame did (raised by
    :func:`decode_frame`'s header and length checks only — a stream
    reader treats it as "need more bytes")."""


class BadMagic(ProtocolError):
    """The frame does not start with the protocol magic."""


class BadVersion(ProtocolError):
    """The peer speaks a protocol revision we do not."""


class ChecksumError(ProtocolError):
    """The payload CRC does not match (EBADMSG on the wire)."""

    errno_code = 74


class UnknownOpcode(ProtocolError):
    """The opcode is not in this protocol version's table (ENOSYS)."""

    errno_code = 38


# ---------------------------------------------------------------------------
# payload encoding: deterministic tagged binary values
# ---------------------------------------------------------------------------
# Tags: N none, T true, F false, i zigzag-varint int64, f 8-byte float,
# s utf-8 string, b raw bytes, l list, d dict (insertion order).

#: Most lists/dicts (the root included) a payload value may sit in, so
#: a hostile frame cannot exhaust the decoder's stack.
MAX_NESTING = 64
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _pack_value(value: object, out: bytearray, depth: int = 0) -> None:
    if depth > MAX_NESTING:
        raise ProtocolError(f"payload nests deeper than {MAX_NESTING}")
    if value is None:
        out.append(ord("N"))
    elif value is True:
        out.append(ord("T"))
    elif value is False:
        out.append(ord("F"))
    elif isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ProtocolError(f"payload int {value} is outside int64")
        out.append(ord("i"))
        zigzag = (value << 1) ^ (value >> 63) if value < 0 else value << 1
        write_varint(out, zigzag)
    elif isinstance(value, float):
        out.append(ord("f"))
        out += struct.pack("!d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(ord("s"))
        write_varint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(ord("b"))
        write_varint(out, len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(ord("l"))
        write_varint(out, len(value))
        for item in value:
            _pack_value(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(ord("d"))
        write_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(f"payload dict keys must be str, got {key!r}")
            _pack_value(key, out, depth + 1)
            _pack_value(item, out, depth + 1)
    else:
        raise ProtocolError(f"unencodable payload value {type(value).__name__}")


def _unpack_value(data: bytes, offset: int, depth: int = 0) -> tuple[object, int]:
    # ``data`` is always one whole CRC-checked payload, so running off
    # its end is a structural error, not "wait for more bytes".
    if depth > MAX_NESTING:
        raise ProtocolError(f"payload nests deeper than {MAX_NESTING}")
    if offset >= len(data):
        raise ProtocolError("truncated payload value")
    tag = data[offset]
    offset += 1
    if tag == ord("N"):
        return None, offset
    if tag == ord("T"):
        return True, offset
    if tag == ord("F"):
        return False, offset
    if tag == ord("i"):
        zigzag, offset = read_varint(data, offset)
        return (zigzag >> 1) ^ -(zigzag & 1), offset
    if tag == ord("f"):
        if offset + 8 > len(data):
            raise ProtocolError("truncated float")
        return struct.unpack_from("!d", data, offset)[0], offset + 8
    if tag in (ord("s"), ord("b")):
        length, offset = read_varint(data, offset)
        if offset + length > len(data):
            raise ProtocolError("truncated string/bytes")
        raw = data[offset : offset + length]
        offset += length
        return (raw.decode("utf-8") if tag == ord("s") else raw), offset
    if tag == ord("l"):
        count, offset = read_varint(data, offset)
        items = []
        for __ in range(count):
            item, offset = _unpack_value(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == ord("d"):
        count, offset = read_varint(data, offset)
        table: dict = {}
        for __ in range(count):
            key, offset = _unpack_value(data, offset, depth + 1)
            if not isinstance(key, str):
                raise ProtocolError("payload dict key is not a string")
            table[key], offset = _unpack_value(data, offset, depth + 1)
        return table, offset
    raise ProtocolError(f"unknown payload tag {tag:#04x}")


def pack_payload(payload: dict) -> bytes:
    """Serialize one payload dictionary."""
    out = bytearray()
    _pack_value(payload, out)
    return bytes(out)


def unpack_payload(data: bytes) -> dict:
    """Deserialize one whole payload; anything malformed inside it —
    truncation, an overlong varint, invalid UTF-8, trailing garbage — is
    a :class:`ProtocolError`."""
    try:
        value, offset = _unpack_value(data, 0)
    except (VarintError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed payload: {exc}") from exc
    if offset != len(data):
        raise ProtocolError(f"{len(data) - offset} trailing payload byte(s)")
    if not isinstance(value, dict):
        raise ProtocolError("payload root must be a dict")
    return value


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """One decoded frame."""

    opcode: int
    request_id: int
    payload: dict
    flags: int = 0

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)

    @property
    def opcode_name(self) -> str:
        return OPCODE_NAMES.get(self.opcode, f"0x{self.opcode:02X}")


def encode_frame(
    opcode: int, request_id: int, payload: dict, flags: int = 0
) -> bytes:
    """Serialize one frame (header + CRC-protected payload)."""
    raw = pack_payload(payload)
    if len(raw) > MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(raw)} bytes exceeds MAX_PAYLOAD")
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, opcode, flags, request_id, len(raw)
    )
    return header + _CRC.pack(zlib.crc32(raw)) + raw


def decode_frame(buffer: bytes, offset: int = 0) -> tuple[Frame, int]:
    """Decode the frame at ``offset``; returns (frame, next offset).

    Raises :class:`TruncatedFrame` when the buffer ends mid-frame (a
    stream reader treats that as "wait for more bytes"), and other
    :class:`ProtocolError` subclasses for structurally bad frames.
    """
    if offset + HEADER_BYTES > len(buffer):
        raise TruncatedFrame(
            f"need {HEADER_BYTES} header bytes, have {len(buffer) - offset}"
        )
    magic, version, opcode, flags, request_id, length = _HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise BadVersion(f"peer speaks protocol {version}, we speak {PROTOCOL_VERSION}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"advertised payload of {length} bytes exceeds MAX_PAYLOAD")
    (crc,) = _CRC.unpack_from(buffer, offset + _HEADER.size)
    body_start = offset + HEADER_BYTES
    if body_start + length > len(buffer):
        raise TruncatedFrame(
            f"need {length} payload bytes, have {len(buffer) - body_start}"
        )
    raw = buffer[body_start : body_start + length]
    if zlib.crc32(raw) != crc:
        raise ChecksumError(
            f"payload CRC mismatch on request {request_id} "
            f"(opcode {OPCODE_NAMES.get(opcode, hex(opcode))})"
        )
    return Frame(opcode, request_id, unpack_payload(raw), flags), body_start + length


class FrameDecoder:
    """Incremental decoder for a byte stream carrying frames.

    Feed arbitrary chunks; complete frames come out.  A framing error
    (bad magic/CRC) raises and poisons the decoder — on a real stream
    there is no way to resynchronise, the connection must drop.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned: Optional[ProtocolError] = None

    def feed(self, chunk: bytes) -> list[Frame]:
        if self._poisoned is not None:
            raise self._poisoned
        self._buffer += chunk
        data = bytes(self._buffer)  # one copy per feed, not one per frame
        frames: list[Frame] = []
        offset = 0
        while True:
            try:
                frame, offset = decode_frame(data, offset)
            except TruncatedFrame:
                break
            except ProtocolError as exc:
                self._poisoned = exc
                del self._buffer[:offset]
                raise
            frames.append(frame)
        del self._buffer[:offset]
        return frames
