"""Knuth-Morris-Pratt string matching over bytes — a test oracle.

The byte-at-a-time matcher ``search``/``count`` (Section 4.4) ran on
until ``repro.core.match`` took its place; kept here as the reference
the kernel is tested against.  Occurrences may overlap; all are
reported.
"""

from __future__ import annotations

from typing import Iterator


def failure_function(pattern: bytes) -> list[int]:
    """Classic KMP prefix (failure) table for ``pattern``."""
    table = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = table[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        table[i] = k
    return table


def iter_matches(text: bytes, pattern: bytes) -> Iterator[int]:
    """Yield every (possibly overlapping) match offset of pattern in text."""
    m = len(pattern)
    if m == 0 or m > len(text):
        return
    table = failure_function(pattern)
    k = 0
    for i, byte in enumerate(text):
        while k > 0 and byte != pattern[k]:
            k = table[k - 1]
        if byte == pattern[k]:
            k += 1
        if k == m:
            yield i - m + 1
            k = table[k - 1]


def find_all(text: bytes, pattern: bytes) -> list[int]:
    """All (possibly overlapping) match offsets of pattern in text."""
    return list(iter_matches(text, pattern))


def count_matches(text: bytes, pattern: bytes) -> int:
    """Number of (possibly overlapping) occurrences of pattern in text."""
    return sum(1 for _ in iter_matches(text, pattern))
