"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.analysis import Analyzer, LintReport, build_program_for, default_target
from repro.core.engine import CompressDB
from repro.fs.compressfs import CompressFS
from repro.fs.sessionfs import SessionFS
from repro.fs.vfs import PassthroughFS
from repro.serving import LoopbackTransport, NamespaceFS, Server, WireClient
from repro.storage.block_device import MemoryBlockDevice
from repro.storage.simclock import SimClock


def mutate(rng: random.Random, base: bytes) -> bytes:
    """One seeded mutation of ``base``: flip a few bytes, truncate, or
    extend — the three ways stored or received bytes go wrong.  Decoder
    fuzz tests draw thousands of these and accept only the decoder's
    own typed error."""
    data = bytearray(base)
    kind = rng.randrange(3)
    if kind == 0 and data:
        for __ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif kind == 1:
        del data[rng.randrange(len(data) + 1) :]
    else:
        data += rng.randbytes(rng.randint(1, 8))
    return bytes(data)


@pytest.fixture(scope="session")
def shipped_tree():
    """``(program, report)`` of the shipped ``src/repro`` tree, indexed
    and linted once per session — every "the shipped tree ..." assertion
    reads this instead of re-analysing the whole tree."""
    program = build_program_for([default_target()])
    report = LintReport(
        findings=Analyzer().run_program(program), files_scanned=len(program.files)
    )
    return program, report


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def device(clock: SimClock) -> MemoryBlockDevice:
    return MemoryBlockDevice(block_size=64, clock=clock)


@pytest.fixture
def engine() -> CompressDB:
    """A small-block engine with a tiny pointer-page capacity so page
    splits and multi-page files are exercised by ordinary tests."""
    return CompressDB(block_size=64, page_capacity=4)


@pytest.fixture
def compress_fs() -> CompressFS:
    return CompressFS(block_size=64, page_capacity=4)


@pytest.fixture
def passthrough_fs() -> PassthroughFS:
    return PassthroughFS(block_size=64)


def build_fs_stack(kind: str):
    """One of the seven VFS stacks a database may be mounted on.

    ``passthrough`` and ``compress`` own storage; the rest wrap a
    ``CompressFS``: ``session`` binds an MVCC session, ``namespace`` is
    a tenant's jailed view, ``remote`` crosses the wire to a loopback
    ``Server`` — alone or, with ``+session``, inside a transaction.
    """
    if kind == "passthrough":
        return PassthroughFS(block_size=64)
    base = CompressFS(block_size=64, page_capacity=4)
    if kind == "compress":
        return base
    if kind.startswith("remote"):
        server = Server(fs=base)
        server.add_tenant("t")
        wire = WireClient(LoopbackTransport(server, "t"))
        return wire.fs(wire.session_begin() if kind == "remote+session" else None)
    if kind.endswith("session"):
        base = SessionFS(base, base.engine.mvcc.begin())
    return NamespaceFS(base, "t") if kind.startswith("namespace") else base


FS_STACKS = (
    "passthrough",
    "compress",
    "session",
    "namespace",
    "namespace+session",
    "remote",
    "remote+session",
)


@pytest.fixture(params=FS_STACKS)
def any_fs(request):
    """Parametrized over every stack — they must behave identically."""
    return build_fs_stack(request.param)
