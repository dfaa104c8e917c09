"""Compressed-domain column encodings: codecs, picker, scans, morphing.

Three layers of coverage:

* codec round trips (:mod:`repro.databases.colcodec`) over edge cases —
  empty batches, single runs, maximum delta bit width, NULL handling;
* Hypothesis equivalence: a MiniColumn with encoded blocks returns
  exactly what one with plain fixed-width blocks returns, and both
  return what the row interpreter (``run_select`` over ``scan()``, the
  oracle) returns, through inserts, updates (which demote encoded
  blocks), deletes, and ``optimize()`` compaction — plus an
  error-parity table for the shapes that raise;
* the update/morph life cycle and the zone-map regression of this PR
  (widening patches only the covering ``.zmap`` entry in place).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.databases import colcodec
from repro.databases.colcodec import (
    DELTA,
    DICT,
    MAX_DELTA_BITS,
    PLAIN,
    RLE,
    CodecError,
    PlainVector,
    choose_encoding,
    decode_block,
    decode_delta,
    decode_dict_parts,
    decode_rle_runs,
    decode_vector,
    encode_block,
    encode_delta,
    encode_dict,
    encode_rle,
    estimate_sizes,
    fold_int_cells,
    pack_bits,
    pack_int_cells,
    unpack_bits,
)
from repro.databases.minicolumn import ColumnStoreError, MiniColumn
from repro.databases.sql_executor import EvaluationError, run_select
from repro.databases.sql_parser import parse
from repro.fs import PassthroughFS
from tests.conftest import mutate


def _column_db(encodings):
    return MiniColumn(PassthroughFS(block_size=256), encodings=encodings)


def _oracle(db, sql):
    """The row interpreter over the table's row view."""
    statement = parse(sql)
    return run_select(statement, db.table(statement.table).scan())


# ---------------------------------------------------------------------------
# codec round trips
# ---------------------------------------------------------------------------

class TestBitPacking:
    @given(
        st.lists(st.integers(0, 2**56 - 1), max_size=60),
        st.just(56),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_max_width(self, values, width):
        assert unpack_bits(pack_bits(values, width), width, len(values)) == values

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_width(self, data):
        width = data.draw(st.integers(1, 56))
        values = data.draw(st.lists(st.integers(0, 2**width - 1), max_size=80))
        assert unpack_bits(pack_bits(values, width), width, len(values)) == values

    def test_zero_width(self):
        assert pack_bits([0, 0, 0], 0) == b""
        assert unpack_bits(b"", 0, 3) == [0, 0, 0]


class TestCodecEdgeCases:
    def test_empty_batches(self):
        for encoding in (PLAIN, RLE):
            payload = encode_block("INT", encoding, [])
            assert decode_block("INT", encoding, payload, 0) == []
        # Plain TEXT lives in the heap + offsets form, so only the
        # dictionary codec sees TEXT batches.
        payload = encode_block("TEXT", DICT, [])
        assert decode_block("TEXT", DICT, payload, 0) == []
        assert encode_delta([]) == b""
        assert decode_delta(b"", 0) == []

    def test_single_run(self):
        payload = encode_rle("INT", [7, 7, 7])
        assert decode_rle_runs("INT", payload) == ([7], [3])

    def test_rle_null_runs(self):
        values = [None, None, 3, 3, None]
        payload = encode_rle("INT", values)
        assert decode_block("INT", RLE, payload, len(values)) == values

    def test_rle_real(self):
        values = [1.5, 1.5, None, -2.25]
        payload = encode_rle("REAL", values)
        assert decode_block("REAL", RLE, payload, len(values)) == values

    def test_delta_single_value(self):
        assert decode_delta(encode_delta([42]), 1) == [42]

    def test_delta_descending(self):
        values = [100, 90, 95, 10]
        assert decode_delta(encode_delta(values), len(values)) == values

    def test_delta_max_bit_width(self):
        # Frame-of-reference: the width is the spread between the
        # smallest and largest delta, here exactly MAX_DELTA_BITS.
        values = [0, 0, 2**MAX_DELTA_BITS - 1]
        assert decode_delta(encode_delta(values), len(values)) == values

    def test_delta_single_jump_is_width_zero(self):
        # One delta has zero spread, so any jump fits the frame.
        values = [0, 2**60]
        assert decode_delta(encode_delta(values), len(values)) == values

    @pytest.mark.parametrize(
        "values, ascending",
        [([3], True), ([1, 1, 2, 2, 9], True), ([4, 5, 6], True), ([5, 3, 4], False)],
        ids=["single", "duplicate-runs", "strictly-ascending", "descending-step"],
    )
    def test_delta_block_is_sorted_when_its_low_is_not_negative(self, values, ascending):
        vector = decode_vector("INT", DELTA, encode_delta(values), len(values))
        assert vector.materialize() == values
        assert vector.sorted is ascending

    def test_delta_overflow_raises(self):
        with pytest.raises(CodecError):
            encode_delta([0, 0, 2**MAX_DELTA_BITS])

    def test_delta_rejected_by_picker_when_too_wide(self):
        wide = [0, 2**60, 5, 2**59, 17]
        assert DELTA not in estimate_sizes("INT", wide)

    def test_dict_with_nulls_and_duplicates(self):
        values = ["a", None, "b", "a", None, ""]
        dictionary, codes = decode_dict_parts(encode_dict(values), len(values))
        assert [dictionary[code] for code in codes] == values

    def test_dict_single_distinct(self):
        values = ["x"] * 9
        payload = encode_dict(values)
        assert decode_block("TEXT", DICT, payload, len(values)) == values

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_int_block_round_trip_any_encoding(self, values):
        for encoding in (PLAIN, RLE):
            payload = encode_block("INT", encoding, values)
            assert decode_block("INT", encoding, payload, len(values)) == values
            vector = decode_vector("INT", encoding, payload, len(values))
            assert vector.materialize() == values
        if None not in values:
            payload = encode_block("INT", DELTA, values)
            assert decode_block("INT", DELTA, payload, len(values)) == values

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["", "aa", "bb", "cc-long-value"])),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_text_dict_round_trip(self, values):
        payload = encode_block("TEXT", DICT, values)
        assert decode_block("TEXT", DICT, payload, len(values)) == values
        vector = decode_vector("TEXT", DICT, payload, len(values))
        assert vector.materialize() == values
        # A dictionary predicate evaluates each distinct entry once but
        # must produce the per-row answer.
        wanted = vector.pred_bools(lambda v: v == "aa")
        assert wanted == [v == "aa" for v in values]


def _fold_reference(cells):
    """The cell-at-a-time fold ``fold_int_cells`` must agree with."""
    count, total, minimum, maximum = 0, 0, None, None
    for cell in cells:
        if cell is None:
            continue
        count += 1
        total += cell
        if minimum is None or cell < minimum:
            minimum = cell
        if maximum is None or cell > maximum:
            maximum = cell
    return count, total, minimum, maximum


@pytest.mark.parametrize(
    "cells",
    [
        [],
        [None, None, None],
        [5, None, -3, 2**62, None, 0, -(2**62)],
        [random.Random(7).randrange(-(2**62), 2**62) for __ in range(500)],
    ],
    ids=["empty", "null-only", "mixed", "seeded-500"],
)
def test_fold_int_cells_matches_a_reference_loop(cells):
    assert fold_int_cells(pack_int_cells(cells)) == _fold_reference(cells)


class TestPicker:
    def test_constant_column_is_rle(self):
        assert choose_encoding("INT", [5] * 100) == RLE

    def test_sequential_column_is_delta(self):
        assert choose_encoding("INT", list(range(100))) == DELTA

    def test_repetitive_text_is_dict(self):
        assert choose_encoding("TEXT", ["north", "south"] * 50) == DICT

    def test_incompressible_stays_plain(self):
        # All-distinct long strings: the dictionary repeats the whole
        # heap and adds codes, so the estimate cannot clear the
        # PICK_THRESHOLD margin over plain.
        distinct = [f"unique-{i:04d}-" + "x" * 100 for i in range(64)]
        assert choose_encoding("TEXT", distinct) == PLAIN

    def test_picker_tracks_estimates(self):
        values = list(range(0, 400, 3))
        sizes = estimate_sizes("INT", values)
        chosen = choose_encoding("INT", values)
        assert chosen in sizes or chosen == PLAIN
        if chosen != PLAIN:
            assert sizes[chosen] < sizes[PLAIN] * colcodec.PICK_THRESHOLD


# ---------------------------------------------------------------------------
# property: encoded blocks == plain blocks == the row interpreter
# ---------------------------------------------------------------------------

_INT_VALUES = st.one_of(st.none(), st.integers(-1000, 1000))
_TEXT_VALUES = st.one_of(st.none(), st.sampled_from(["red", "green", "blue", "x"]))
#: Magnitudes far apart, so a REAL sum taken in another order (per
#: block, or compensated) differs in its last bits.
_REAL_VALUES = st.one_of(
    st.none(), st.sampled_from([1e16, -1e16, 1.0, 0.1]), st.floats(-1e3, 1e3)
)


@st.composite
def _workload(draw):
    batches = draw(
        st.lists(
            st.lists(
                st.tuples(_INT_VALUES, _TEXT_VALUES, _REAL_VALUES),
                min_size=1,
                max_size=30,
            ),
            min_size=1,
            max_size=4,
        )
    )
    total = sum(len(batch) for batch in batches)
    updates = draw(
        st.lists(
            st.tuples(st.integers(0, total - 1), _INT_VALUES), max_size=5
        )
    )
    deletes = draw(st.lists(st.integers(0, total - 1), max_size=5))
    bounds = sorted(
        (draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000)))
    )
    return batches, updates, deletes, bounds


_QUERIES = [
    "SELECT id, v, s FROM t",
    "SELECT id FROM t WHERE v >= {lo} AND v <= {hi}",
    "SELECT s, count(*) c, sum(v) sv, min(v) mn, max(v) mx FROM t GROUP BY s",
    "SELECT count(s) c, count(*) n FROM t",
    "SELECT id, v FROM t WHERE v != {lo} ORDER BY v DESC, id LIMIT 7",
    # The shapes that used to fall back to the row interpreter:
    "SELECT id FROM t WHERE v < {lo} OR v > {hi}",
    "SELECT id FROM t WHERE NOT v >= {lo}",
    "SELECT id, v FROM t WHERE v > id",
    "SELECT id FROM t WHERE v + id > {hi}",
    "SELECT * FROM t",
    "SELECT s, sum(v + id) x FROM t GROUP BY s",
    "SELECT s, count(v) c FROM t GROUP BY s ORDER BY sum(v) DESC, s",
    "SELECT id, s FROM t WHERE v >= {lo} AND (s = 'red' OR v > id) AND id >= 2",
    "SELECT s, sum(r) sr, min(r) mn, max(r) mx, count(r) c, avg(r) a FROM t GROUP BY s",
    "SELECT s, k, count(*) c, sum(v) sv, max(r) mr FROM t GROUP BY s, k",
    # Bounds on the sorted (delta) columns: id ascends, k = id // 3
    # repeats each value (a frame of reference of 0).
    "SELECT id FROM t WHERE id < 2.5",
    "SELECT id, v FROM t WHERE id >= 3.0 AND k <= 6",
    "SELECT id FROM t WHERE id = 4",
    "SELECT k, count(*) c, sum(v) sv FROM t WHERE k > 1 AND k <= 4 GROUP BY k",
    "SELECT id FROM t WHERE k >= 2 AND k < 4",
    "SELECT id FROM t WHERE k = 2",
    "SELECT id FROM t WHERE v < NULL",
    "SELECT id FROM t WHERE k >= NULL",
    "SELECT id FROM t WHERE id < 'red'",
]


def _outcome(run, *args):
    """The rows ``run(*args)`` returns, or the message it fails with."""
    try:
        return run(*args)
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


def _compare(dbs, bounds):
    lo, hi = bounds
    for query in _QUERIES:
        sql = query.format(lo=lo, hi=hi)
        results = [_outcome(db.execute, sql) for db in dbs]
        assert results[0] == results[1], sql
        for db in dbs:
            assert results[0] == _outcome(_oracle, db, sql), sql


@given(_workload())
# Two blocks whose REAL cells sum to 1.0 in order, but to 0.0 summed per
# block and to 2.0 compensated (``sum`` of floats on Python 3.12).
@example(
    (
        [[(1, "red", 1e16), (2, "red", 1.0)], [(3, "red", -1e16), (4, "red", 1.0)]],
        [],
        [],
        [0, 0],
    )
)
@settings(max_examples=25, deadline=None)
def test_encoded_scan_equals_plain_scan(workload):
    batches, updates, deletes, bounds = _workload_rows(workload)
    dbs = []
    for encodings in (False, True):
        db = _column_db(encodings)
        db.execute("CREATE TABLE t (id INT, v INT, s TEXT, r REAL, k INT)")
        for batch in batches:
            db.table("t").insert_rows(batch)
        dbs.append(db)
    _compare(dbs, bounds)
    for row_id, value in updates:
        literal = "NULL" if value is None else str(value)
        for db in dbs:
            db.execute(f"UPDATE t SET v = {literal} WHERE id = {row_id}")
    _compare(dbs, bounds)  # UPDATE-after-encode: demoted blocks
    for row_id in deletes:
        for db in dbs:
            db.execute(f"DELETE FROM t WHERE id = {row_id}")
    _compare(dbs, bounds)
    for db in dbs:
        db.table("t").optimize()  # compaction re-runs the picker
    _compare(dbs, bounds)


def test_sorted_block_answers_a_bound_by_bisection(monkeypatch):
    db = _column_db(True)
    db.execute("CREATE TABLE t (id INT, k INT)")
    db.table("t").insert_rows([{"id": i, "k": i // 3} for i in range(40)])
    assert db.table("t").column_encodings() == {"id": [DELTA], "k": [DELTA]}
    queries = [
        "SELECT id FROM t WHERE id < 2.5",
        "SELECT id FROM t WHERE id >= 3.0 AND k <= 6",
        "SELECT count(*) c FROM t WHERE id = 4",
        "SELECT k, count(*) c FROM t WHERE k > 1 AND k <= 4 GROUP BY k",
        "SELECT id FROM t WHERE k >= 2 AND k < 4",
        "SELECT id FROM t WHERE k = 2",
    ]
    expected = [_oracle(db, sql) for sql in queries]

    def per_row_predicate(vector, predicate):
        raise AssertionError("a sorted block tested a bound row by row")

    monkeypatch.setattr(PlainVector, "pred_bools", per_row_predicate)
    assert [db.execute(sql) for sql in queries] == expected


def _workload_rows(workload):
    batches, updates, deletes, bounds = workload
    rows = []
    next_id = 0
    for batch in batches:
        batch_rows = []
        for value, text, real in batch:
            batch_rows.append(
                {"id": next_id, "v": value, "s": text, "r": real, "k": next_id // 3}
            )
            next_id += 1
        rows.append(batch_rows)
    return rows, updates, deletes, bounds


_ERRORS = [
    "SELECT *, count(*) FROM t",
    "SELECT sum(*) FROM t",
    "SELECT nope FROM t",
    "SELECT id FROM t WHERE nope = 1",
    "SELECT id FROM t WHERE v > 0 AND nope + 1 = 2",
    "SELECT count(*) c FROM t GROUP BY nope",
    "SELECT sum(nope) FROM t",
    "SELECT id FROM t WHERE s < 1",
    "SELECT id FROM t WHERE v > 0 AND (s < 1 OR id = 0)",
]


@pytest.mark.parametrize("encodings", [False, True], ids=["plain", "encoded"])
class TestErrorParity:
    """A statement that cannot run fails in ``execute`` with the type
    and message the row interpreter gives it."""

    @pytest.fixture
    def db(self, encodings):
        database = _column_db(encodings)
        database.execute("CREATE TABLE t (id INT, v INT, s TEXT)")
        database.table("t").insert_rows(
            [{"id": i, "v": i % 3 + 1, "s": "ab"[i % 2]} for i in range(12)]
        )
        return database

    @pytest.mark.parametrize("sql", _ERRORS)
    def test_same_error_as_the_row_interpreter(self, db, sql):
        with pytest.raises(EvaluationError) as expected:
            _oracle(db, sql)
        with pytest.raises(EvaluationError) as got:
            db.execute(sql)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_join_rejected_before_any_io(self, db):
        db.execute("CREATE TABLE u (id INT)")
        db.fs.device.stats.reset()
        with pytest.raises(ColumnStoreError, match="does not support JOIN"):
            db.execute("SELECT t.id FROM t JOIN u ON t.id = u.id")
        assert db.fs.device.stats.snapshot().bytes_read == 0

    def test_the_switch_selects_nothing(self, db):
        MiniColumn(db.fs, vectorized=True)
        with pytest.raises(ColumnStoreError):
            MiniColumn(db.fs, vectorized=False)


# ---------------------------------------------------------------------------
# update/demote/morph life cycle
# ---------------------------------------------------------------------------

class TestMorphing:
    def _constant_table(self, rows=64):
        db = _column_db(True)
        db.execute("CREATE TABLE t (id INT, v INT)")
        db.table("t").insert_rows([{"id": i, "v": 5} for i in range(rows)])
        return db

    def test_update_demotes_to_plain(self):
        db = self._constant_table()
        assert db.table("t").column_encodings()["v"] == [RLE]
        db.execute("UPDATE t SET v = 9 WHERE id = 3")
        assert db.table("t").column_encodings()["v"] == [PLAIN]
        assert db.execute("SELECT v FROM t WHERE id = 3") == [{"v": 9}]

    def test_scan_heavy_mix_remorphs(self):
        db = self._constant_table()
        db.execute("UPDATE t SET v = 9 WHERE id = 3")
        db.execute("UPDATE t SET v = 5 WHERE id = 3")
        for __ in range(db.table("t").MORPH_AFTER_SCANS):
            db.execute("SELECT v FROM t WHERE id >= 0")
        # Back to a constant column: the picker re-chooses RLE.
        assert db.table("t").column_encodings()["v"] == [RLE]

    def test_forced_morph(self):
        db = self._constant_table()
        table = db.table("t")
        assert table.morph(column="v", encoding=PLAIN) == 1
        assert table.column_encodings()["v"] == [PLAIN]
        assert table.morph(column="v") == 1  # picker restores RLE
        assert table.column_encodings()["v"] == [RLE]

    def test_optimize_reencodes_after_deletes(self):
        db = self._constant_table()
        db.execute("UPDATE t SET v = 9 WHERE id = 3")
        db.execute("DELETE FROM t WHERE id = 3")
        assert db.table("t").optimize() == 1
        assert db.table("t").column_encodings()["v"] == [RLE]
        rows = db.execute("SELECT count(*) c, min(v) mn, max(v) mx FROM t")
        assert rows == [{"c": 63, "mn": 5, "mx": 5}]

    def test_large_batch_splits_into_blocks(self):
        db = _column_db(True)
        db.execute("CREATE TABLE t (id INT)")
        rows = db.table("t").BLOCK_ROWS + 10
        db.table("t").insert_rows([{"id": i} for i in range(rows)])
        assert len(db.table("t").column_encodings()["id"]) == 2


# ---------------------------------------------------------------------------
# zone maps after in-place updates (the `_widen_zone` regression)
# ---------------------------------------------------------------------------

class TestZoneWidening:
    @pytest.fixture(params=[False, True], ids=["plain", "encoded"])
    def db(self, request):
        database = _column_db(request.param)
        database.execute("CREATE TABLE t (id INT, v INT)")
        for batch in range(8):
            database.table("t").insert_rows(
                [{"id": batch * 25 + i, "v": batch} for i in range(25)]
            )
        return database

    def test_pruning_correct_after_update(self, db):
        db.execute("UPDATE t SET id = 90000 WHERE id = 30")  # batch 1
        db.execute("UPDATE t SET id = -90000 WHERE id = 120")  # batch 4
        assert db.execute("SELECT id FROM t WHERE id >= 80000") == [{"id": 90000}]
        assert db.execute("SELECT id FROM t WHERE id <= -80000") == [{"id": -90000}]
        # Unaffected ranges still prune and still answer exactly.
        rows = db.execute("SELECT id FROM t WHERE id >= 50 AND id <= 60")
        assert [row["id"] for row in rows] == list(range(50, 61))

    def test_only_covering_entry_patched(self, db):
        column = db.table("t")._files["id"]
        before = column.zone_entries()
        db.execute("UPDATE t SET id = 90000 WHERE id = 30")
        after = column.zone_entries()
        assert len(after) == len(before)
        for index, (old, new) in enumerate(zip(before, after)):
            if index == 1:  # rows 25..49 hold id 30
                assert new[2] == old[2] and new[3] == 90000.0
            else:
                assert new == old

    def test_null_update_sets_has_null(self, db):
        db.execute("UPDATE t SET id = NULL WHERE id = 10")
        entries = db.table("t")._files["id"].zone_entries()
        assert entries[0][4] is True
        assert db.execute("SELECT count(id) c FROM t")[0]["c"] == 199


# ---------------------------------------------------------------------------
# hostile bytes: block payloads, the block directory, the zone map
# ---------------------------------------------------------------------------

class TestHostileBytes:
    """Mutated stored bytes decode or fail with the decoder's own typed
    error — never ``struct.error``, ``IndexError``, ``UnicodeDecodeError``,
    ``MemoryError`` or a hang."""

    def test_fuzz_block_payloads(self):
        rng = random.Random(20261003)
        blocks = [
            ("INT", PLAIN, [5, None, -3, 2**62, 0]),
            ("REAL", PLAIN, [1.5, None, -2.25, 1e300]),
            ("INT", RLE, [4, 4, 4, None, None, 9, 9, 4]),
            ("REAL", RLE, [1.5, 1.5, None, -2.25, -2.25]),
            ("INT", DELTA, [10, 13, 19, 19, 40, 41]),
            ("INT", DELTA, [50, 40, 45, 44, 90, 1]),
            ("TEXT", DICT, ["north", None, "south", "north", "", "nörd"]),
        ]
        for type_name, encoding, values in blocks:
            base = encode_block(type_name, encoding, values)
            for __ in range(1500):
                try:
                    vector = decode_vector(
                        type_name, encoding, mutate(rng, base), len(values)
                    )
                except CodecError:
                    continue
                decoded = vector.materialize()
                assert len(decoded) == len(values)
                assert not vector.sorted or decoded == sorted(decoded)

    def test_delta_low_flipped_negative_is_not_sorted(self):
        db = self._table()
        column = db.table("t")._files["id"]
        segment = column.segments()[0]
        assert segment.encoding == DELTA
        # Header: first value, frame of reference, width.  Ids 0..19 have
        # low 1; low -1 decodes 0, -1, ..., -19, which is descending.
        flipped = (-1).to_bytes(8, "little", signed=True)
        db.fs._pwrite(column.data_path, segment.offset + 8, flipped)
        payload = db.fs._pread(column.data_path, segment.offset, segment.length)
        assert not decode_vector("INT", DELTA, payload, segment.count).sorted
        sql = "SELECT id FROM t WHERE id >= -5 AND id < 10"
        assert db.execute(sql) == _oracle(db, sql) == [{"id": -i} for i in range(6)]

    def _table(self):
        db = _column_db(True)
        db.execute("CREATE TABLE t (id INT, v INT, s TEXT, w TEXT)")
        for block in range(4):
            db.table("t").insert_rows(
                [
                    {
                        "id": block * 20 + i,
                        "v": block,
                        "s": "ab"[i % 2],
                        "w": f"unique-{block}-{i}-" + "x" * 40,
                    }
                    for i in range(20)
                ]
            )
        db.execute("UPDATE t SET v = 7 WHERE id = 3")  # a demoted (plain) block
        assert set(sum(db.table("t").column_encodings().values(), [])) == {
            PLAIN, RLE, DELTA, DICT,
        }
        return db

    _SELECTS = [
        "SELECT * FROM t",
        "SELECT s, count(*) c, sum(v) x, min(id) mn FROM t WHERE id >= 15 AND id < 65 GROUP BY s",
        "SELECT count(*), min(v), max(id) FROM t",
    ]

    @pytest.mark.parametrize("suffix", ["id.seg", "v.seg", "s.seg", "w.seg", "id.zmap", "v.zmap"])
    def test_fuzz_directory_and_zone_map(self, suffix):
        rng = random.Random(sum(suffix.encode()))
        db = self._table()
        table = db.table("t")
        path = f"{table.base}/{suffix}"
        column = table._files[suffix.split(".")[0]]
        parse_file = column.segments if suffix.endswith(".seg") else column.zone_entries
        base = db.fs.read_file(path)
        for __ in range(500):
            db.fs.write_file(path, mutate(rng, base))
            for run in [parse_file] + [
                lambda sql=sql: db.execute(sql) for sql in self._SELECTS
            ]:
                try:
                    run()
                except (CodecError, ColumnStoreError):
                    pass
        db.fs.write_file(path, base)
        assert db.execute("SELECT count(*) c FROM t WHERE id >= 0") == [{"c": 80}]

    # -- every crash the fuzzers found, by name ------------------------------
    @pytest.mark.parametrize(
        "type_name, encoding, payload",
        [
            ("INT", RLE, encode_rle("INT", [7, 7, 8])[:-1]),
            ("INT", RLE, b"\x01\x00"),
            ("INT", DELTA, encode_delta([1, 5, 6])[:9]),
            ("INT", DELTA, encode_delta([1, 5, 6])[:-1]),
            ("TEXT", DICT, encode_dict(["a", "b", "a"])[:7]),
            ("TEXT", DICT, encode_dict(["a", "b", "a"])[:-1]),
        ],
        ids=["rle-tail", "rle-header", "delta-header", "delta-tail", "dict-entry", "dict-codes"],
    )
    def test_regression_truncated_payload_was_struct_error(
        self, type_name, encoding, payload
    ):
        with pytest.raises(CodecError):
            decode_vector(type_name, encoding, payload, 3)

    def test_regression_rle_run_longer_than_the_block_was_memory_error(self):
        payload = bytearray(encode_rle("INT", [7, 7, 8]))
        payload[12:16] = b"\xff\xff\xff\xff"  # first run: 2**32 - 1 rows
        with pytest.raises(CodecError, match="rows, not 3"):
            decode_vector("INT", RLE, bytes(payload), 3)

    def test_regression_rle_run_count_is_bounded_by_the_payload(self):
        payload = b"\xff\xff\xff\xff" + encode_rle("INT", [7])[4:]
        with pytest.raises(CodecError, match="runs do not fill"):
            decode_vector("INT", RLE, payload, 1)

    def test_regression_delta_width_beyond_the_packer_was_accepted(self):
        payload = bytearray(encode_delta([1, 5, 6]))
        payload[16] = 200
        with pytest.raises(CodecError, match="width 200"):
            decode_vector("INT", DELTA, bytes(payload), 3)

    def test_regression_dict_code_outside_dictionary_was_index_error(self):
        payload = bytearray(encode_dict(["a", "b", "c", "a"]))
        payload[-1] = 0xFF  # 2-bit codes 3,3,3,3 against three entries
        with pytest.raises(CodecError, match="outside the dictionary"):
            decode_vector("TEXT", DICT, bytes(payload), 4)

    def test_regression_dict_invalid_utf8_was_unicode_error(self):
        payload = encode_dict(["north", "south"]).replace(b"north", b"n\xffrth")
        with pytest.raises(CodecError, match="utf-8"):
            decode_vector("TEXT", DICT, payload, 2)

    def test_regression_dict_entry_count_is_bounded_by_the_payload(self):
        payload = b"\xff\xff\xff\xff" + encode_dict(["a", "b"])[4:]
        with pytest.raises(CodecError):
            decode_vector("TEXT", DICT, payload, 2)

    def _patched(self, column="id", index=-1, **fields):
        """A table whose ``column`` directory entry ``index`` is edited."""
        db = self._table()
        target = db.table("t")._files[column]
        segments = target.segments()
        position = index % len(segments)
        target._patch_segment(position, segments[position]._replace(**fields))
        return db, target

    @pytest.mark.parametrize("suffix", ["id.seg", "id.zmap"])
    def test_regression_torn_file_was_struct_error(self, suffix):
        db = self._table()
        path = f"{db.table('t').base}/{suffix}"
        db.fs.write_file(path, db.fs.read_file(path)[:-1])
        with pytest.raises(ColumnStoreError, match="truncated"):
            db.execute("SELECT id FROM t WHERE id >= 15")

    @pytest.mark.parametrize("column", ["id", "v"])
    def test_regression_hostile_row_count_was_memory_error(self, column):
        db, target = self._patched(column, count=1 << 40)
        with pytest.raises(ColumnStoreError, match="bad entry"):
            target.segments()
        with pytest.raises(ColumnStoreError):
            db.execute("SELECT * FROM t")

    def test_regression_directory_gap_was_index_error(self):
        db, target = self._patched("v", index=1, start=21)
        with pytest.raises(ColumnStoreError, match="bad entry for row 20"):
            db.execute("SELECT * FROM t")

    def test_regression_columns_of_different_height_was_index_error(self):
        db = self._table()
        short = db.table("t")._files["s"]
        raw = db.fs.read_file(short.seg_path)
        db.fs.write_file(short.seg_path, raw[: len(raw) // 2])
        with pytest.raises(ColumnStoreError, match="columns disagree"):
            db.execute("SELECT id, s FROM t")

    @pytest.mark.parametrize("column", ["v", "s"])
    def test_regression_block_past_end_of_file_was_struct_error(self, column):
        db, __ = self._patched(column, index=0, offset=1 << 30)
        with pytest.raises(ColumnStoreError, match="past end of file"):
            db.execute("SELECT * FROM t")

    def test_regression_plain_text_cells_into_garbage_heap(self):
        db = self._table()
        db.execute("UPDATE t SET w = 'é' WHERE id = 0")  # demotes w's block 0
        column = db.table("t")._files["w"]
        heap = bytearray(db.fs.read_file(column.heap_path))
        heap[-2:] = b"\xff\xff"
        db.fs.write_file(column.heap_path, bytes(heap))
        with pytest.raises(ColumnStoreError, match="utf-8"):
            db.execute("SELECT w FROM t WHERE id = 0")
