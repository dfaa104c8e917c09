"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program is made here from ``--seed``;
the program receives only the generated inputs.  The text generator
and redundancy profiles follow ``repro.workloads.datasets`` (datasets D
and E of the paper's Table 1) but are copied, not imported, so a change
to the program's own generators cannot silently change the benchmark.
"""

from __future__ import annotations

import hashlib
import random

_WORDS = (
    "the of and to in is was for that on as with by at from it an be this "
    "which or are not have has had were their its data system time page "
    "history article section content reference external link category "
    "wikipedia encyclopedia research award abstract university science "
    "network traffic request response packet server node cluster storage "
    "compression block file database query update insert delete search"
).split()

_HTML_OPEN = '<div class="mw-parser-output"><p id="par">'
_HTML_CLOSE = "</p></div>\n"

BLOCK = 1024


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per (seed, purpose)."""
    return random.Random(f"{seed}-{purpose}")


def _sentence(rng: random.Random) -> str:
    words = rng.choices(_WORDS, k=rng.randint(6, 14))
    return " ".join(words).capitalize() + ". "


def text_block(rng: random.Random, html: bool) -> bytes:
    """One block of prose, exactly ``BLOCK`` bytes."""
    pieces = []
    length = 0
    while length < BLOCK:
        text = _sentence(rng)
        if html:
            text = _HTML_OPEN + text + _HTML_CLOSE
        pieces.append(text)
        length += len(text)
    return "".join(pieces).encode("ascii")[:BLOCK]


def corpus(
    rng: random.Random,
    total_bytes: int,
    duplicate_fraction: float,
    pool_blocks: int,
    html: bool,
) -> bytes:
    """Block-redundant text: ``duplicate_fraction`` of the blocks are
    drawn from a shared pool, the rest are fresh."""
    pool = [text_block(rng, html) for __ in range(pool_blocks)]
    blocks = []
    for __ in range(total_bytes // BLOCK):
        if rng.random() < duplicate_fraction:
            blocks.append(rng.choice(pool))
        else:
            blocks.append(text_block(rng, html))
    return b"".join(blocks)


def dataset_d(rng: random.Random) -> bytes:
    """1 MiB with dataset D's profile (HTML pages, 34 % shared blocks)."""
    return corpus(rng, 1024 * 1024, 0.34, 64, html=True)


def dataset_e(rng: random.Random) -> bytes:
    """512 KiB with dataset E's profile (plain abstracts, 20 % shared)."""
    return corpus(rng, 512 * 1024, 0.20, 48, html=False)


def aligned_slice(rng: random.Random, source: bytes, size: int) -> bytes:
    """A ``size``-aligned slice, so repeated draws reuse identical
    payloads the way re-saved documents do."""
    start = (rng.randrange(len(source) - size) // size) * size
    return source[start : start + size]


class Zipfian:
    """YCSB's zipfian generator (Gray et al.), ranks scattered over the
    key space by a seeded permutation so hot keys are not neighbours."""

    def __init__(self, rng: random.Random, items: int, theta: float = 0.99) -> None:
        self._rng = rng
        self._items = items
        self._theta = theta
        self._zetan = sum(1.0 / (i**theta) for i in range(1, items + 1))
        zeta2 = 1.0 + 0.5**theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / items) ** (1.0 - theta)) / (1.0 - zeta2 / self._zetan)
        self._scatter = list(range(items))
        rng.shuffle(self._scatter)

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5**self._theta:
            rank = 1
        else:
            rank = int(self._items * ((self._eta * u - self._eta + 1.0) ** self._alpha))
        return self._scatter[min(rank, self._items - 1)]


def sha256_of(*parts: object) -> str:
    """Digest of a workload's generated inputs, so drift is visible."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return digest.hexdigest()
