"""The match kernel (``repro.core.match``) against its two oracles:
the byte-at-a-time KMP matcher it replaced (``tests/kmp_oracle.py``)
and a naive scan."""

import pytest
from hypothesis import given, strategies as st

from repro.core import match
from repro.core.match import count_matches, find_all, find_crossing, find_strided
from tests import kmp_oracle
from tests.kmp_oracle import failure_function


def naive_find_all(text: bytes, pattern: bytes) -> list[int]:
    """Every offset whose slice equals the pattern — no search at all."""
    if not pattern:
        return []
    return [
        i for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    ]


class TestFailureFunction:
    def test_no_repeats(self):
        assert failure_function(b"abcd") == [0, 0, 0, 0]

    def test_full_prefix(self):
        assert failure_function(b"aaaa") == [0, 1, 2, 3]

    def test_mixed(self):
        assert failure_function(b"ababc") == [0, 0, 1, 2, 0]


class TestFindAll:
    def test_single_match(self):
        assert find_all(b"hello world", b"world") == [6]

    def test_multiple_matches(self):
        assert find_all(b"abcabcabc", b"abc") == [0, 3, 6]

    def test_overlapping_matches_reported(self):
        assert find_all(b"aaaa", b"aa") == [0, 1, 2]

    def test_empty_pattern(self):
        assert find_all(b"abc", b"") == []

    def test_pattern_longer_than_text(self):
        assert find_all(b"ab", b"abc") == []

    def test_no_match(self):
        assert find_all(b"abcdef", b"xyz") == []

    def test_match_at_both_ends(self):
        assert find_all(b"xyz-middle-xyz", b"xyz") == [0, 11]

    def test_binary_content(self):
        assert find_all(b"\x00\x01\x00\x01\x00", b"\x01\x00") == [1, 3]

    def test_end_cuts_a_match_in_half(self):
        assert find_all(b"abcabc", b"abc", 0, 5) == [0]
        assert find_all(b"abcabc", b"abc", 0, 6) == [0, 3]

    def test_start_skips_a_match_it_cuts(self):
        assert find_all(b"abcabc", b"abc", 1) == [3]


class TestCount:
    def test_count_matches(self):
        assert count_matches(b"banana", b"ana") == 2  # overlapping

    def test_count_zero(self):
        assert count_matches(b"banana", b"q") == 0

    def test_empty_pattern_counts_nothing(self):
        assert count_matches(b"abc", b"") == 0

    @pytest.mark.parametrize(
        "pattern, uses_bytes_count",
        [(b"ab", True), (b"a", True), (b"aa", False), (b"aba", False), (b"abcab", False)],
    )
    def test_border_switch(self, pattern, uses_bytes_count, monkeypatch):
        """A borderless pattern is counted by ``bytes.count`` (no list);
        one with a border can overlap itself and takes the find loop."""
        calls = []
        monkeypatch.setattr(
            match, "find_all", lambda *args: calls.append(args) or find_all(*args)
        )
        text = pattern * 3 + b"x" + pattern[:-1] + pattern
        assert count_matches(text, pattern) == len(naive_find_all(text, pattern))
        assert (not calls) == uses_bytes_count

    def test_bounds(self):
        assert count_matches(b"abab", b"ab", 1) == 1
        assert count_matches(b"aaaa", b"aa", 0, 3) == 2


class TestFindStrided:
    def test_drops_hits_that_run_into_the_next_piece(self):
        assert list(find_strided([b"xxab", b"cdab", b"abab"], 4, b"ab")) == [
            (0, 2), (1, 2), (2, 0), (2, 2),
        ]
        assert list(find_strided([b"xxab", b"cdxx"], 4, b"abcd")) == []

    def test_batches_agree_with_one_buffer(self, monkeypatch):
        pieces = [bytes([65 + i % 3]) * 5 + b"ab" + bytes(1) for i in range(40)]
        whole = list(find_strided(pieces, 8, b"ab"))
        monkeypatch.setattr(match, "STITCH_BYTES", 24)  # three pieces a batch
        assert list(find_strided(iter(pieces), 8, b"ab")) == whole
        assert whole == [(i, 5) for i in range(40)]

    def test_pattern_longer_than_a_piece(self):
        assert list(find_strided([b"abab", b"abab"], 4, b"ababa")) == []
        assert list(find_strided([b"abab"], 4, b"")) == []


class TestFindCrossing:
    def test_matches_start_left_of_the_junction(self):
        assert find_crossing(b"xab", [b"ab", b"zz"], b"abab") == [1]
        assert find_crossing(b"aa", [b"a", b"", b"a", b"aaaa"], b"aaa") == [0, 1]

    def test_a_match_wholly_right_of_the_junction_is_not_reported(self):
        assert find_crossing(b"x", [b"abab"], b"ab") == []

    def test_following_is_read_only_as_far_as_needed(self):
        def following():
            yield b"bc"
            raise AssertionError("m-1 bytes were already in hand")

        assert find_crossing(b"a", following(), b"abc") == [0]

    def test_file_ends_before_the_match_does(self):
        assert find_crossing(b"ab", [b"c"], b"abcd") == []


_ALPHABETS = st.sampled_from([b"ab", b"a", b"abc\x00", bytes(range(256))])


@st.composite
def _text_pattern_bounds(draw):
    alphabet = draw(_ALPHABETS)
    symbols = st.sampled_from([bytes([b]) for b in alphabet])
    text = b"".join(draw(st.lists(symbols, max_size=60)))
    pattern = b"".join(draw(st.lists(symbols, max_size=7)))
    start = draw(st.integers(0, len(text) + 2))
    end = draw(st.integers(0, len(text) + 2))
    return text, pattern, start, end


@given(_text_pattern_bounds())
def test_kernel_agrees_with_both_oracles_within_bounds(case):
    """``find_all``/``count_matches`` over ``(text, pattern, start, end)``
    — self-overlapping patterns, an empty one, one longer than the text
    and an ``end`` that cuts a match in half are all in the strategy."""
    text, pattern, start, end = case
    stop = min(end, len(text))
    expected = [
        offset for offset in naive_find_all(text, pattern)
        if start <= offset and offset + len(pattern) <= stop
    ]
    assert find_all(text, pattern, start, end) == expected
    assert count_matches(text, pattern, start, end) == len(expected)
    assert [start + o for o in kmp_oracle.find_all(text[start:stop], pattern)] == expected


@given(
    text=st.binary(max_size=200),
    pattern=st.binary(min_size=1, max_size=6),
)
def test_kmp_agrees_with_naive_search(text, pattern):
    expected = naive_find_all(text, pattern)
    assert find_all(text, pattern) == expected
    assert kmp_oracle.find_all(text, pattern) == expected
    assert count_matches(text, pattern) == kmp_oracle.count_matches(text, pattern)


@given(data=st.data())
def test_kmp_finds_planted_occurrences(data):
    """Every planted copy of the pattern is reported."""
    pattern = data.draw(st.binary(min_size=1, max_size=5))
    pieces = data.draw(st.lists(st.binary(max_size=8), min_size=1, max_size=6))
    text = pattern.join(pieces)
    matches = find_all(text, pattern)
    assert matches == naive_find_all(text, pattern) == kmp_oracle.find_all(text, pattern)
    # At least the number of explicit joins must be found.
    assert len(matches) >= len(pieces) - 1


_AB = st.sampled_from([b"a", b"b"])


@given(
    pieces=st.lists(st.lists(_AB, min_size=6, max_size=6).map(b"".join), max_size=12),
    pattern=st.lists(_AB, min_size=1, max_size=8).map(b"".join),
)
def test_find_strided_equals_a_scan_per_piece(pieces, pattern):
    assert list(find_strided(pieces, 6, pattern)) == [
        (index, offset)
        for index, piece in enumerate(pieces)
        for offset in naive_find_all(piece, pattern)
    ]


@given(
    left=st.lists(_AB, max_size=4).map(b"".join),
    following=st.lists(st.lists(_AB, max_size=3).map(b"".join), max_size=6),
    pattern=st.lists(_AB, min_size=5, max_size=7).map(b"".join),
)
def test_find_crossing_equals_a_scan_of_the_joined_bytes(left, following, pattern):
    """``left`` is at most ``m-1`` bytes, as at every call site."""
    joined = left + b"".join(following)
    assert find_crossing(left, following, pattern) == [
        offset for offset in naive_find_all(joined, pattern) if offset < len(left)
    ]
