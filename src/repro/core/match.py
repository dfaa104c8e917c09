"""The match kernel: every pattern scan in the system runs through here.

``search``/``count`` (Section 4.4) report *overlapping* occurrences.
The scans are ``bytes.find``/``bytes.count`` — C loops — so a scan's
Python work is one iteration per match, never one per byte.  (The
Knuth-Morris-Pratt matcher this replaced is the tests' oracle.)
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional

#: Largest transient buffer :func:`find_strided` joins at once.
STITCH_BYTES = 256 * 1024


def find_all(text: bytes, pattern: bytes, start: int = 0, end: Optional[int] = None) -> list[int]:
    """Offsets of every (possibly overlapping) match of ``pattern`` that
    lies wholly inside ``text[start:end]``; none for an empty pattern."""
    if not pattern:
        return []
    found = []
    find = text.find
    hit = find(pattern, start, end)
    while hit != -1:
        found.append(hit)
        hit = find(pattern, hit + 1, end)
    return found


def count_matches(text: bytes, pattern: bytes, start: int = 0, end: Optional[int] = None) -> int:
    """``len(find_all(...))`` without the list when ``pattern`` has no
    border (no proper prefix that is also a suffix): such a pattern
    cannot overlap itself, so ``bytes.count`` sees every occurrence."""
    if not pattern:
        return 0
    if any(pattern.startswith(pattern[k:]) for k in range(1, len(pattern))):
        return len(find_all(text, pattern, start, end))
    return text.count(pattern, start, end)


def find_crossing(left: bytes, following: Iterable[bytes], pattern: bytes) -> list[int]:
    """Offsets in ``left`` — the up-to-``m-1`` bytes before a junction —
    of the matches that start there and run on into ``following``, the
    pieces after the junction (read only until ``m-1`` bytes are in)."""
    end = len(left) + len(pattern) - 1
    window = bytearray(left)
    for piece in following:
        window += piece
        if len(window) >= end:
            break
    return find_all(window, pattern, 0, end)  # ``end``: the match starts in ``left``


def find_strided(pieces: Iterable[bytes], stride: int, pattern: bytes) -> Iterator[tuple[int, int]]:
    """``(piece index, offset in piece)`` of every match inside one piece.

    ``pieces`` are buffers of exactly ``stride`` bytes.  They are joined
    ``STITCH_BYTES`` at a time and each joined buffer is scanned once;
    ``divmod`` maps a hit back, and a hit that runs past the end of its
    piece — into the next one — is dropped.  Pairs ascend.
    """
    last = stride - len(pattern)
    if not pattern or last < 0:
        return
    pieces = iter(pieces)
    base = 0
    while batch := list(islice(pieces, max(1, STITCH_BYTES // stride))):
        for hit in find_all(b"".join(batch), pattern):
            index, offset = divmod(hit, stride)
            if offset <= last:
                yield base + index, offset
        base += len(batch)
