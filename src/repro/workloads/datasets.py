"""Scaled-down stand-ins for the paper's six evaluation datasets.

Table 1 of the paper uses 580 MB – 300 GB of real data (Wikipedia HTML
dumps, NSF research-award abstracts, a structured traffic dataset).
What the evaluation actually depends on is each dataset's *redundancy
profile* — how often whole blocks repeat (CompressDB's opportunity),
how compressible the text is byte-wise (LZ4's opportunity), and the
file-count/size shape.  These generators reproduce those profiles
deterministically at megabyte scale:

======= ======================= ============ ==================
dataset paper content            CompressDB≈  character
======= ======================= ============ ==================
A       50 GB wiki, 109 files    1.30         HTML-ish pages
B       150 GB wiki, 309 files   1.77         HTML-ish pages
C       300 GB wiki, 618 files   2.58         HTML-ish pages
D       2.1 GB wiki, 4 files     1.34         4 large files
E       580 MB NSFRAA, 134 631   1.12         many small files
F       26 GB structured         2.80         CSV-like rows
======= ======================= ============ ==================

The CompressDB column is the paper's Table 2 target; the generators'
``duplicate_fraction`` knobs are tuned so block-level dedup at the
default 1 KiB block size lands near those ratios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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


@dataclass
class Dataset:
    """A generated dataset: named files plus its generation profile."""

    name: str
    files: dict[str, bytes]
    block_size: int
    seed: int
    description: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(len(data) for data in self.files.values())

    @property
    def file_count(self) -> int:
        return len(self.files)

    def concatenated(self) -> bytes:
        """All files joined in name order (for whole-corpus experiments)."""
        return b"".join(self.files[name] for name in sorted(self.files))


@dataclass(frozen=True)
class DatasetSpec:
    """Generation knobs for one paper dataset."""

    name: str
    total_bytes: int
    file_count: int
    duplicate_fraction: float  # fraction of blocks drawn from the shared pool
    pool_blocks: int  # size of the shared (repeating) block pool
    style: str  # "html", "plain", "structured"
    description: str


#: Scaled-down profiles of the paper's Table 1 datasets.  The
#: duplicate fractions are calibrated so CompressDB's block dedup at
#: 1 KiB approaches the Table 2 ratios (1.30 / 1.77 / 2.58 / 1.34 /
#: 1.12 / 2.80).
DATASET_SPECS: dict[str, DatasetSpec] = {
    "A": DatasetSpec("A", 2 * 1024 * 1024, 8, 0.30, 96, "html",
                     "Wikipedia dump slice (109 files, 50 GB in the paper)"),
    "B": DatasetSpec("B", 3 * 1024 * 1024, 12, 0.46, 96, "html",
                     "Wikipedia dump slice (309 files, 150 GB in the paper)"),
    "C": DatasetSpec("C", 4 * 1024 * 1024, 16, 0.63, 96, "html",
                     "Wikipedia dump slice (618 files, 300 GB in the paper)"),
    "D": DatasetSpec("D", 1 * 1024 * 1024, 4, 0.34, 64, "html",
                     "Wikipedia dataset of 4 large files (2.1 GB in the paper)"),
    "E": DatasetSpec("E", 512 * 1024, 384, 0.20, 48, "plain",
                     "NSFRAA: many small abstract files (134 631 in the paper)"),
    "F": DatasetSpec("F", 2 * 1024 * 1024, 6, 0.66, 64, "structured",
                     "Structured traffic-forecast dataset (26 GB in the paper)"),
}

#: Datasets used with the document databases (Section 6.1 benchmark).
DOCUMENT_DATASETS = ("A", "B", "C", "D", "E")
#: Dataset used with the column store.
STRUCTURED_DATASETS = ("F",)


def _sentence(rng: random.Random) -> str:
    words = rng.choices(_WORDS, k=rng.randint(6, 14))
    return " ".join(words).capitalize() + ". "


def _text_block(rng: random.Random, block_size: int, style: str) -> bytes:
    """One block of content, exactly ``block_size`` bytes."""
    if style == "structured":
        # Low-entropy telemetry rows: long shared prefixes and a tiny
        # value vocabulary, so byte-level codecs compress them hard
        # (dataset F has the paper's highest LZ4 ratio).
        rows = []
        length = 0
        while length < block_size:
            row = "traffic,region-%02d,2021-%02d-01T00:00:00Z,count=%03d,status=ok,intervention=none\n" % (
                rng.randrange(8),
                rng.randint(1, 12),
                rng.randrange(40),
            )
            rows.append(row)
            length += len(row)
        raw = "".join(rows).encode("ascii")
        return raw[:block_size]
    pieces = []
    length = 0
    while length < block_size:
        text = _sentence(rng)
        if style == "html":
            text = _HTML_OPEN + text + _HTML_CLOSE
        pieces.append(text)
        length += len(text)
    raw = "".join(pieces).encode("ascii")
    return raw[:block_size]


def generate_dataset(
    name: str,
    block_size: int = 1024,
    scale: float = 1.0,
    seed: int = 20220612,
) -> Dataset:
    """Generate one of the paper's datasets at ``scale`` of its default size.

    The same (name, block_size, scale, seed) always produces identical
    bytes, so experiments are reproducible.
    """
    spec = DATASET_SPECS[name.upper()]
    rng = random.Random(f"{seed}-{spec.name}")
    total_blocks = max(spec.file_count, int(spec.total_bytes * scale) // block_size)
    pool = [
        _text_block(rng, block_size, spec.style) for __ in range(spec.pool_blocks)
    ]
    files: dict[str, bytes] = {}
    blocks_per_file = max(1, total_blocks // spec.file_count)
    for index in range(spec.file_count):
        blocks: list[bytes] = []
        for __ in range(blocks_per_file):
            if rng.random() < spec.duplicate_fraction:
                blocks.append(rng.choice(pool))
            else:
                blocks.append(_text_block(rng, block_size, spec.style))
        files[f"/{spec.name}/file{index:05d}"] = b"".join(blocks)
    return Dataset(
        name=spec.name,
        files=files,
        block_size=block_size,
        seed=seed,
        description=spec.description,
        meta={
            "duplicate_fraction": spec.duplicate_fraction,
            "style": spec.style,
            "scale": scale,
        },
    )


#: Size of the shared (repeating) block pool of a redundancy sweep point.
SWEEP_POOL_BLOCKS = 64


def generate_redundancy_sweep(
    duplicate_fraction: float,
    total_bytes: int = 512 * 1024,
    block_size: int = 1024,
    seed: int = 7,
) -> Dataset:
    """A single-knob dataset for the Figure 9 compression-ratio sweep."""
    rng = random.Random(f"{seed}-{duplicate_fraction:.4f}")
    pool = [_text_block(rng, block_size, "html") for __ in range(SWEEP_POOL_BLOCKS)]
    blocks: list[bytes] = []
    for __ in range(max(1, total_bytes // block_size)):
        if rng.random() < duplicate_fraction:
            blocks.append(rng.choice(pool))
        else:
            blocks.append(_text_block(rng, block_size, "html"))
    return Dataset(
        name=f"sweep-{duplicate_fraction:.2f}",
        files={"/sweep/data": b"".join(blocks)},
        block_size=block_size,
        seed=seed,
        description="redundancy sweep point",
        meta={"duplicate_fraction": duplicate_fraction},
    )


def structured_rows(count: int, seed: int = 11) -> list[dict[str, object]]:
    """Rows for the column-store benchmarks (dataset F's schema)."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        rows.append(
            {
                "id": i,
                "idx": i % 10,
                "cnt": rng.randrange(500),
                "dt": "2021-%02d-%02d" % (rng.randint(1, 12), rng.randint(1, 28)),
                "body": "region-%02d status-%d " % (rng.randrange(16), rng.randrange(2)) * 8,
            }
        )
    return rows
