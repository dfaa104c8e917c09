"""Tests for the non-POSIX operations through ``repro.api``.

The paper's operation API (extract/replace/insert/delete/append/
search/count, plus word count) has one client surface,
:func:`repro.api.connect`: in-process over an engine, or over
protocol v1 — here carried by a real unix socket, the deployment the
deleted JSON socket used to cover.  replace/append/extract are
positional writes and reads on ``client.fs``.
"""

import contextlib
import threading

import pytest

import repro.api as api
from repro.core.engine import CompressDB
from repro.fs import fd as fdmod
from repro.fs.errors import FileNotFound
from repro.fs.vfs import FileSystem
from repro.serving import (
    FramedSocketServer,
    RemoteFS,
    Server,
    SocketTransport,
    WireClient,
)

DOC = b"alpha beta gamma alpha beta " * 4


def extract(fs: FileSystem, path: str, offset: int, size: int) -> bytes:
    fd = fs.open(path)
    try:
        return fs.pread(fd, size, offset)
    finally:
        fs.close(fd)


def replace(fs: FileSystem, path: str, offset: int, data: bytes) -> None:
    fd = fs.open(path, fdmod.O_WRONLY)
    try:
        fs.pwrite(fd, data, offset)
    finally:
        fs.close(fd)


@pytest.fixture
def engine_with_file():
    engine = CompressDB(block_size=64)
    engine.write_file("/doc", DOC)
    return engine


class TestDirectAPI:
    def test_extract(self, engine_with_file):
        client = api.connect(engine_with_file)
        assert extract(client.fs, "/doc", 0, 5) == b"alpha"

    def test_insert_and_delete(self, engine_with_file):
        client = api.connect(engine_with_file)
        client.insert("/doc", 6, b"INS ")
        assert extract(client.fs, "/doc", 0, 14) == b"alpha INS beta"
        client.delete("/doc", 6, 4)
        assert extract(client.fs, "/doc", 0, 10) == b"alpha beta"

    def test_replace(self, engine_with_file):
        client = api.connect(engine_with_file)
        replace(client.fs, "/doc", 0, b"ALPHA")
        assert extract(client.fs, "/doc", 0, 5) == b"ALPHA"

    def test_append(self, engine_with_file):
        client = api.connect(engine_with_file)
        size = engine_with_file.file_size("/doc")
        client.fs.append_file("/doc", b"tail")
        assert extract(client.fs, "/doc", size, 4) == b"tail"

    def test_search_and_count(self, engine_with_file):
        client = api.connect(engine_with_file)
        offsets = client.search("/doc", b"beta")
        assert len(offsets) == 8
        assert client.count("/doc", b"beta") == 8


@pytest.fixture
def socket_server(tmp_path):
    """One tenant holding ``/doc``, served on a unix socket."""
    server = Server(engine=CompressDB(block_size=64))
    server.add_tenant("t")
    api.connect(server, tenant="t").fs.write_file("/doc", DOC)
    path = str(tmp_path / "compressdb.sock")
    with FramedSocketServer(server, path):
        yield server, path


@contextlib.contextmanager
def socket_client(path: str):
    """One tenant connection: (wire client, its remote file system)."""
    with SocketTransport(path) as transport:
        wire = WireClient(transport)
        wire.hello("t")
        yield wire, RemoteFS(wire)


class TestSocketProtocol:
    def test_extract_over_socket(self, socket_server):
        with socket_client(socket_server[1]) as (client, fs):
            assert extract(fs, "/doc", 0, 5) == b"alpha"

    def test_manipulation_over_socket(self, socket_server):
        with socket_client(socket_server[1]) as (client, fs):
            client.insert("/doc", 0, b">> ")
            replace(fs, "/doc", 0, b"## ")
            fs.append_file("/doc", b" <<")
            client.delete("/doc", 0, 3)
            assert extract(fs, "/doc", 0, 5) == b"alpha"

    def test_search_over_socket(self, socket_server):
        with socket_client(socket_server[1]) as (client, fs):
            offsets = client.search("/doc", b"alpha")
            assert offsets and all(isinstance(off, int) for off in offsets)
            assert client.count("/doc", b"alpha") == len(offsets)

    def test_binary_payload_roundtrip(self, socket_server):
        payload = bytes(range(256))
        with socket_client(socket_server[1]) as (client, fs):
            fs.append_file("/doc", payload)
            assert extract(fs, "/doc", len(DOC), 256) == payload

    def test_error_propagates_to_client(self, socket_server):
        with socket_client(socket_server[1]) as (client, fs):
            with pytest.raises(FileNotFound):
                extract(fs, "/missing", 0, 1)
            with pytest.raises(FileNotFound):
                client.insert("/missing", 0, b"x")

    def test_multiple_sequential_clients(self, socket_server):
        for __ in range(3):
            with socket_client(socket_server[1]) as (client, fs):
                assert client.count("/doc", b"gamma") == 4


class TestConcurrentClients:
    def test_parallel_clients_are_served(self, socket_server):
        server, path = socket_server
        errors: list[Exception] = []

        def worker(worker_no: int) -> None:
            try:
                with socket_client(path) as (client, fs):
                    for i in range(10):
                        client.insert("/doc", 0, b"w%d-%02d " % (worker_no, i))
                        assert client.count("/doc", b"alpha") >= 8
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # All 40 inserts landed and the engine is consistent.
        with socket_client(path) as (client, fs):
            total = sum(client.count("/doc", b"w%d-" % n) for n in range(4))
        assert total == 40
        server.engine.check_invariants()

    def test_two_simultaneous_connections(self, socket_server):
        with socket_client(socket_server[1]) as (first, first_fs):
            with socket_client(socket_server[1]) as (second, second_fs):
                # Interleaved requests on two open connections.
                assert first.count("/doc", b"alpha") == 8
                assert second.count("/doc", b"beta") == 8
                first_fs.append_file("/doc", b" one")
                second_fs.append_file("/doc", b" two")
                assert first.count("/doc", b"two") == 1


class TestWordCountAPI:
    def test_direct_api(self, engine_with_file):
        counts = api.connect(engine_with_file).word_count("/doc")
        assert counts[b"alpha"] == 8

    def test_over_socket(self, socket_server):
        with socket_client(socket_server[1]) as (client, fs):
            counts = client.word_count("/doc")
        assert counts[b"beta"] == 8
        assert counts[b"gamma"] == 4
