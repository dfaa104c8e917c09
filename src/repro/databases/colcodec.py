"""Lightweight column-block codecs for the MiniColumn store.

CompressDB's thesis — process data *in its compressed form* — applied
to the column store: an insert batch is written as one encoded block,
chosen per batch by a small stats-driven picker, and the scan path
hands the executor *encoded vectors* instead of materialised cells:

* ``PLAIN``  — the original fixed-width cells (8 bytes per value);
* ``RLE``    — (value, run length) pairs; a predicate touches each run
  once, aggregates weight a run's value by its length;
* ``DELTA``  — first value + bit-packed deltas (frame-of-reference on
  the per-batch minimum delta); sorted/near-sorted integer columns
  collapse to a few bits per row;
* ``DICT``   — per-block string dictionary + bit-packed codes; a TEXT
  predicate is evaluated once per *distinct* value.

This module is the **only** place column block payloads are decoded —
reprolint rule ENC001 taints struct-unpacking of ``.col`` payloads
anywhere outside :mod:`repro.databases`, so other layers (the cluster,
benchmarks, workloads) go through the public helpers here, e.g.
:func:`fold_int_cells` for pushed-down cell aggregation.

All codecs round-trip NULLs: fixed-width cells reserve sentinel values
(:data:`NULL_INT`, :data:`NULL_REAL`), RLE runs carry the sentinel,
and a dictionary may contain a NULL entry.
"""

from __future__ import annotations

import struct
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Optional, Sequence, Union

from repro.databases.common import DatabaseError

#: Encoding identifiers persisted in the block directory.
PLAIN = 0
RLE = 1
DELTA = 2
DICT = 3

ENCODING_NAMES = {PLAIN: "plain", RLE: "rle", DELTA: "delta", DICT: "dict"}

#: NULL encodings inside fixed-width cells.
NULL_INT = -(2**62) - 1
NULL_REAL = float("-inf")
NULL_LENGTH = (1 << 64) - 1  # TEXT NULL marker in an offset-pair length

_INT_CELL = struct.Struct("<q")
_REAL_CELL = struct.Struct("<d")
_RUN_HEADER = struct.Struct("<I")
_INT_RUN = struct.Struct("<qI")
_REAL_RUN = struct.Struct("<dI")
_DELTA_HEADER = struct.Struct("<qqB")
_DICT_HEADER = struct.Struct("<I")
_DICT_ENTRY = struct.Struct("<I")
_DICT_NULL = (1 << 32) - 1  # dictionary-entry length marking NULL
_CODE_HEADER = struct.Struct("<B")

#: An encoded block must beat plain by at least this factor to be worth
#: the decode step; otherwise the picker keeps the plain format.
PICK_THRESHOLD = 0.9

#: Widest delta the bit-packer will take; beyond this the frame of
#: reference stops paying (and sentinel-bearing batches are excluded).
MAX_DELTA_BITS = 56

Value = Union[int, float, str, None]


class CodecError(DatabaseError):
    """A block payload does not decode under its declared encoding."""


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

def pack_bits(values: Sequence[int], width: int) -> bytes:
    """Pack non-negative ints of ``width`` bits each, little-endian."""
    if width == 0 or not values:
        return b""
    acc = 0
    shift = 0
    for value in values:
        acc |= value << shift
        shift += width
    return acc.to_bytes((shift + 7) // 8, "little")


def unpack_bits(data: bytes, width: int, count: int) -> list[int]:
    """Inverse of :func:`pack_bits` for ``count`` values.

    Eight values fill exactly ``width`` bytes, so each group of eight is
    read as one small int and split: no shift ever touches the whole
    payload, and the cost stays linear in ``count``.
    """
    if width == 0:
        return [0] * count
    mask = (1 << width) - 1
    shifts = range(0, 8 * width, width)
    return [
        (word >> shift) & mask
        for word in [
            int.from_bytes(data[start : start + width], "little")
            for start in range(0, (count + 7) // 8 * width, width)
        ]
        for shift in shifts
    ][:count]


def _bit_width(value: int) -> int:
    return max(1, value.bit_length()) if value else 0


# ---------------------------------------------------------------------------
# storage-value mapping (logical value <-> sentinel-bearing cell value)
# ---------------------------------------------------------------------------

def _to_storage(type_name: str, value: Value) -> Union[int, float]:
    if value is None:
        return NULL_INT if type_name == "INT" else NULL_REAL
    return int(value) if type_name == "INT" else float(value)  # type: ignore[arg-type]


def _from_storage(type_name: str, cell: Union[int, float]) -> Value:
    if type_name == "INT":
        return None if cell == NULL_INT else cell
    return None if cell == NULL_REAL else cell


# ---------------------------------------------------------------------------
# column vectors: what the scan hands the vectorized executor
# ---------------------------------------------------------------------------

class ColumnVector:
    """One column of one block, possibly still encoded."""

    encoding: int = PLAIN
    #: Values are non-NULL and non-decreasing: a range is found by bisection.
    sorted: bool = False

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def materialize(self) -> list[Value]:
        """Logical values, one per row."""
        raise NotImplementedError

    def pred_bools(self, predicate: Callable[[Value], bool]) -> list[bool]:
        """Per-row predicate results, evaluated encoding-aware."""
        raise NotImplementedError


class PlainVector(ColumnVector):
    """Materialised values (plain blocks, or decoded delta blocks)."""

    __slots__ = ("values", "sorted")
    encoding = PLAIN

    def __init__(self, values: list[Value], sorted: bool = False) -> None:
        self.values = values
        self.sorted = sorted

    def __len__(self) -> int:
        return len(self.values)

    def materialize(self) -> list[Value]:
        return self.values

    def pred_bools(self, predicate: Callable[[Value], bool]) -> list[bool]:
        return [predicate(value) for value in self.values]


class RLEVector(ColumnVector):
    """Run-length encoded values: the predicate touches each run once."""

    __slots__ = ("run_values", "run_lengths")
    encoding = RLE

    def __init__(self, run_values: list[Value], run_lengths: list[int]) -> None:
        self.run_values = run_values
        self.run_lengths = run_lengths

    def __len__(self) -> int:
        return sum(self.run_lengths)

    def materialize(self) -> list[Value]:
        out: list[Value] = []
        for value, length in zip(self.run_values, self.run_lengths):
            out.extend([value] * length)
        return out

    def pred_bools(self, predicate: Callable[[Value], bool]) -> list[bool]:
        out: list[bool] = []
        for value, length in zip(self.run_values, self.run_lengths):
            out.extend([predicate(value)] * length)  # one test per run
        return out


class DictVector(ColumnVector):
    """Dictionary-encoded strings: the predicate tests the dictionary."""

    __slots__ = ("dictionary", "codes")
    encoding = DICT

    def __init__(self, dictionary: list[Value], codes: list[int]) -> None:
        self.dictionary = dictionary
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def materialize(self) -> list[Value]:
        dictionary = self.dictionary
        return [dictionary[code] for code in self.codes]

    def pred_bools(self, predicate: Callable[[Value], bool]) -> list[bool]:
        verdicts = [predicate(value) for value in self.dictionary]
        return [verdicts[code] for code in self.codes]


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

def encode_plain(type_name: str, values: Sequence[Value]) -> bytes:
    """Fixed-width cells for INT/REAL (TEXT plain blocks live in the
    heap + offsets form and are assembled by the column file)."""
    if type_name == "INT":
        return b"".join(_INT_CELL.pack(_to_storage("INT", v)) for v in values)  # type: ignore[arg-type]
    if type_name == "REAL":
        return b"".join(_REAL_CELL.pack(_to_storage("REAL", v)) for v in values)  # type: ignore[arg-type]
    raise CodecError(f"no plain cell format for {type_name}")


def decode_plain(type_name: str, payload: bytes) -> list[Value]:
    """All cells in one ``struct.unpack``; sentinels become NULL only in
    a block that holds one."""
    cells, torn = divmod(len(payload), _INT_CELL.size)
    if torn:
        raise CodecError("plain: payload is not whole cells")
    if type_name == "INT":
        values: list[Value] = list(struct.unpack(f"<{cells}q", payload))
        null: Union[int, float] = NULL_INT
    elif type_name == "REAL":
        values = list(struct.unpack(f"<{cells}d", payload))
        null = NULL_REAL
    else:
        raise CodecError(f"no plain cell format for {type_name}")
    if null in values:
        return [None if value == null else value for value in values]
    return values


def _runs_of(values: Sequence[Value]) -> list[tuple[Value, int]]:
    runs: list[tuple[Value, int]] = []
    for value in values:
        if runs and runs[-1][0] == value and type(runs[-1][0]) is type(value):
            runs[-1] = (value, runs[-1][1] + 1)
        else:
            runs.append((value, 1))
    return runs


def encode_rle(type_name: str, values: Sequence[Value]) -> bytes:
    cell = _INT_RUN if type_name == "INT" else _REAL_RUN
    runs = _runs_of(values)
    out = bytearray(_RUN_HEADER.pack(len(runs)))
    for value, length in runs:
        out += cell.pack(_to_storage(type_name, value), length)  # type: ignore[arg-type]
    return bytes(out)


def decode_rle_runs(type_name: str, payload: bytes) -> tuple[list[Value], list[int]]:
    cell = _INT_RUN if type_name == "INT" else _REAL_RUN
    if len(payload) < _RUN_HEADER.size:
        raise CodecError("rle: truncated header")
    (run_count,) = _RUN_HEADER.unpack_from(payload, 0)
    if len(payload) != _RUN_HEADER.size + run_count * cell.size:
        raise CodecError(f"rle: {run_count} runs do not fill {len(payload)} bytes")
    run_values: list[Value] = []
    run_lengths: list[int] = []
    for raw, length in cell.iter_unpack(payload[_RUN_HEADER.size :]):
        run_values.append(_from_storage(type_name, raw))
        run_lengths.append(length)
    return run_values, run_lengths


def encode_delta(values: Sequence[int]) -> bytes:
    """First value + frame-of-reference bit-packed deltas (INT, no NULLs)."""
    if not values:
        return b""
    first = values[0]
    deltas = [b - a for a, b in zip(values, values[1:])]
    if deltas:
        low = min(deltas)
        width = _bit_width(max(delta - low for delta in deltas))
    else:
        low, width = 0, 0
    if width > MAX_DELTA_BITS:
        raise CodecError(f"delta width {width} exceeds {MAX_DELTA_BITS}")
    packed = pack_bits([delta - low for delta in deltas], width)
    return _DELTA_HEADER.pack(first, low, width) + packed


def decode_delta(payload: bytes, count: int) -> list[Value]:
    if count == 0:
        return []
    if len(payload) < _DELTA_HEADER.size:
        raise CodecError("delta: truncated header")
    first, low, width = _DELTA_HEADER.unpack_from(payload, 0)
    packed_bytes = payload[_DELTA_HEADER.size :]
    if width > MAX_DELTA_BITS or len(packed_bytes) * 8 < (count - 1) * width:
        raise CodecError(f"delta: {count} rows of width {width} exceed the payload")
    packed = unpack_bits(packed_bytes, width, count - 1)
    return list(accumulate(map(add, packed, repeat(low)), initial=first))


def encode_dict(values: Sequence[Value]) -> bytes:
    """Per-block dictionary + bit-packed codes for TEXT values."""
    dictionary: list[Value] = []
    index: dict[Value, int] = {}
    codes = []
    for value in values:
        code = index.get(value)
        if code is None:
            code = len(dictionary)
            index[value] = code
            dictionary.append(value)
        codes.append(code)
    width = _bit_width(len(dictionary) - 1) if len(dictionary) > 1 else 0
    out = bytearray(_DICT_HEADER.pack(len(dictionary)))
    for entry in dictionary:
        if entry is None:
            out += _DICT_ENTRY.pack(_DICT_NULL)
        else:
            raw = str(entry).encode("utf-8")
            out += _DICT_ENTRY.pack(len(raw))
            out += raw
    out += _CODE_HEADER.pack(width)
    out += pack_bits(codes, width)
    return bytes(out)


def decode_dict_parts(payload: bytes, count: int) -> tuple[list[Value], list[int]]:
    dictionary: list[Value] = []
    try:
        (entry_count,) = _DICT_HEADER.unpack_from(payload, 0)
        offset = _DICT_HEADER.size
        # Every entry consumes payload, so a hostile count runs out of
        # bytes (struct.error) before it runs long.
        for __ in range(entry_count):
            (length,) = _DICT_ENTRY.unpack_from(payload, offset)
            offset += _DICT_ENTRY.size
            if length == _DICT_NULL:
                dictionary.append(None)
            else:
                dictionary.append(payload[offset : offset + length].decode("utf-8"))
                offset += length
        (width,) = _CODE_HEADER.unpack_from(payload, offset)
    except (struct.error, UnicodeDecodeError) as exc:
        raise CodecError(f"dict: {exc}") from None
    packed_bytes = payload[offset + _CODE_HEADER.size :]
    if len(packed_bytes) * 8 < count * width:
        raise CodecError(f"dict: {count} codes of width {width} exceed the payload")
    codes = unpack_bits(packed_bytes, width, count)
    if codes and max(codes) >= len(dictionary):
        raise CodecError("dict: code outside the dictionary")
    return dictionary, codes


# ---------------------------------------------------------------------------
# the picker: per-batch statistics decide the block format
# ---------------------------------------------------------------------------

def estimate_sizes(type_name: str, values: Sequence[Value]) -> dict[int, int]:
    """Estimated payload bytes per applicable encoding (PLAIN included)."""
    n = len(values)
    sizes: dict[int, int] = {}
    if type_name == "TEXT":
        distinct = set(values)
        heap = sum(len(str(v).encode("utf-8")) for v in values if v is not None)
        sizes[PLAIN] = 16 * n + heap
        dict_bytes = _DICT_HEADER.size + sum(
            _DICT_ENTRY.size + (0 if v is None else len(str(v).encode("utf-8")))
            for v in distinct
        )
        width = _bit_width(len(distinct) - 1) if len(distinct) > 1 else 0
        sizes[DICT] = dict_bytes + _CODE_HEADER.size + (n * width + 7) // 8
        return sizes
    sizes[PLAIN] = 8 * n
    run_cell = _INT_RUN.size if type_name == "INT" else _REAL_RUN.size
    sizes[RLE] = _RUN_HEADER.size + len(_runs_of(values)) * run_cell
    if type_name == "INT" and n > 0 and all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        ints = [int(v) for v in values]  # type: ignore[arg-type]
        deltas = [b - a for a, b in zip(ints, ints[1:])]
        if deltas:
            low = min(deltas)
            width = _bit_width(max(d - low for d in deltas))
        else:
            width = 0
        if width <= MAX_DELTA_BITS:
            sizes[DELTA] = _DELTA_HEADER.size + ((n - 1) * width + 7) // 8
    return sizes


def choose_encoding(type_name: str, values: Sequence[Value]) -> int:
    """Stats-driven per-batch format choice with a plain fallback."""
    if not values:
        return PLAIN
    sizes = estimate_sizes(type_name, values)
    plain = sizes.pop(PLAIN)
    if not sizes:
        return PLAIN
    best = min(sizes, key=lambda enc: sizes[enc])
    if sizes[best] < plain * PICK_THRESHOLD:
        return best
    return PLAIN


# ---------------------------------------------------------------------------
# block encode/decode entry points (numeric + dictionary blocks; plain
# TEXT blocks are heap-backed and assembled by the column file)
# ---------------------------------------------------------------------------

def encode_block(type_name: str, encoding: int, values: Sequence[Value]) -> bytes:
    if encoding == PLAIN:
        return encode_plain(type_name, values)
    if encoding == RLE:
        return encode_rle(type_name, values)
    if encoding == DELTA:
        return encode_delta([int(v) for v in values])  # type: ignore[arg-type]
    if encoding == DICT:
        return encode_dict(values)
    raise CodecError(f"unknown encoding {encoding}")


def decode_block(type_name: str, encoding: int, payload: bytes, count: int) -> list[Value]:
    return decode_vector(type_name, encoding, payload, count).materialize()


def decode_vector(
    type_name: str, encoding: int, payload: bytes, count: int
) -> ColumnVector:
    """Decode a block payload into its natural vector representation."""
    if encoding == PLAIN:
        cells = decode_plain(type_name, payload)
        if len(cells) != count:
            raise CodecError(f"plain: {len(cells)} cells, not {count}")
        return PlainVector(cells)
    if encoding == RLE:
        run_values, run_lengths = decode_rle_runs(type_name, payload)
        if sum(run_lengths) != count:
            raise CodecError(f"rle: runs cover {sum(run_lengths)} rows, not {count}")
        return RLEVector(run_values, run_lengths)
    if encoding == DELTA:
        values = decode_delta(payload, count)
        # Every delta is ``low`` plus a non-negative packed value, so a
        # frame of reference >= 0 makes the block non-decreasing.
        ascending = count < 2 or _DELTA_HEADER.unpack_from(payload, 0)[1] >= 0
        return PlainVector(values, sorted=ascending)
    if encoding == DICT:
        dictionary, codes = decode_dict_parts(payload, count)
        return DictVector(dictionary, codes)
    raise CodecError(f"unknown encoding {encoding}")


# ---------------------------------------------------------------------------
# cell folding: the cluster's pushed-down aggregate primitive
# ---------------------------------------------------------------------------

def pack_int_cells(values: Sequence[Optional[int]]) -> bytes:
    """Little-endian int64 cells with the NULL sentinel (the `.col`
    plain INT wire format, exposed so non-database layers never pack
    or unpack it by hand)."""
    return encode_plain("INT", list(values))


def fold_int_cells(data: bytes) -> tuple[int, int, Optional[int], Optional[int]]:
    """Fold raw plain-INT cells into ``(count, sum, min, max)``.

    ``count`` is the number of non-NULL cells; NULL sentinels are
    skipped, matching SQL aggregate semantics.  This is what a chunk
    server runs locally for a pushed-down aggregate: the cells never
    cross the network, only this 4-tuple does.
    """
    cells = [cell for cell in decode_plain("INT", data) if isinstance(cell, int)]
    if not cells:
        return 0, 0, None, None
    return len(cells), sum(cells), min(cells), max(cells)


def merge_folds(
    parts: Sequence[tuple[int, int, Optional[int], Optional[int]]]
) -> tuple[int, int, Optional[int], Optional[int]]:
    """Combine partial ``fold_int_cells`` results from several servers."""
    count = 0
    total = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    for part_count, part_total, part_min, part_max in parts:
        count += part_count
        total += part_total
        if part_min is not None and (minimum is None or part_min < minimum):
            minimum = part_min
        if part_max is not None and (maximum is None or part_max > maximum):
            maximum = part_max
    return count, total, minimum, maximum
