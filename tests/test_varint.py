"""The one LEB128 codec every byte format shares."""

import pytest

from repro.varint import MAX_VARINT_BYTES, VarintError, read_varint, write_varint


def encode(value: int) -> bytes:
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def test_known_encodings_are_frozen():
    # These bytes are inside every golden (image, wire frame, SSTable).
    assert encode(0) == b"\x00"
    assert encode(127) == b"\x7f"
    assert encode(128) == b"\x80\x01"
    assert encode(300) == b"\xac\x02"
    assert encode(2**64 - 1) == b"\xff" * 9 + b"\x01"


@pytest.mark.parametrize("value", [0, 1, 127, 128, 16383, 16384, 2**32, 2**63, 2**64 - 1])
def test_round_trip_at_an_offset(value):
    data = b"\xff\xff" + encode(value) + b"tail"
    assert read_varint(data, 2) == (value, len(data) - 4)


def test_running_off_the_buffer_is_typed():
    for data, offset in ((b"", 0), (b"\x80", 0), (b"\x01", 1), (b"\x80\x80", 0)):
        with pytest.raises(VarintError, match="truncated"):
            read_varint(data, offset)


def test_overlong_encoding_is_typed():
    with pytest.raises(VarintError, match="longer"):
        read_varint(b"\x80" * MAX_VARINT_BYTES + b"\x01", 0)


def test_negative_values_do_not_encode():
    with pytest.raises(ValueError):
        encode(-1)
