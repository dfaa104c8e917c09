"""Tests for the MooseFS-like cluster: master, chunk servers, client."""

import random

import pytest

from repro.databases.colcodec import pack_int_cells
from repro.distributed import (
    ChunkServer,
    Master,
    build_replicated_cluster,
)
from repro.core.operations import OperationModule
from repro.fs.errors import FileExists, FileNotFound
from repro.fs.posix_ops import PosixOperations
from repro.storage.simclock import SimClock


class TestMaster:
    @pytest.fixture
    def master(self):
        m = Master(["n0", "n1", "n2"], chunk_capacity=100)
        # Mutating metadata RPCs declare require_held(): the caller owns
        # the master lock (as ClusterClient does around composites).
        with m.lock:
            yield m

    def test_create_and_lookup(self, master):
        master.create("/f")
        assert master.exists("/f")
        assert master.lookup("/f").size == 0

    def test_duplicate_create(self, master):
        master.create("/f")
        with pytest.raises(FileExists):
            master.create("/f")

    def test_lookup_missing(self, master):
        with pytest.raises(FileNotFound):
            master.lookup("/missing")

    def test_round_robin_allocation(self, master):
        master.create("/f")
        servers = [master.allocate_chunk("/f").server for __ in range(6)]
        assert servers == ["n0", "n1", "n2", "n0", "n1", "n2"]

    def test_locate_within_chunks(self, master):
        master.create("/f")
        a = master.allocate_chunk("/f")
        b = master.allocate_chunk("/f")
        a.length = 100
        b.length = 50
        index, chunk, within = master.locate("/f", 120)
        assert (index, chunk.chunk_id, within) == (1, b.chunk_id, 20)

    def test_locate_at_end(self, master):
        master.create("/f")
        chunk = master.allocate_chunk("/f")
        chunk.length = 10
        index, located, within = master.locate("/f", 10)
        assert (index, within) == (0, 10)

    def test_chunks_in_range(self, master):
        master.create("/f")
        for __ in range(3):
            master.allocate_chunk("/f").length = 100
        covered = master.chunks_in_range("/f", 50, 200)
        assert [(c[2], c[3]) for c in covered] == [(50, 50), (0, 100), (0, 50)]

    def test_drop_chunk(self, master):
        master.create("/f")
        chunk = master.allocate_chunk("/f")
        master.drop_chunk("/f", chunk.chunk_id)
        assert master.lookup("/f").chunks == []

    def test_requires_servers(self):
        with pytest.raises(ValueError):
            Master([])


class TestChunkServer:
    @pytest.fixture(params=[True, False])
    def server(self, request):
        return ChunkServer("n0", clock=SimClock(), compressed=request.param)

    def test_chunk_lifecycle(self, server):
        server.create_chunk("c1")
        assert server.chunk_ids() == ["c1"]
        server.delete_chunk("c1")
        assert server.chunk_ids() == []

    def test_read_write(self, server):
        server.create_chunk("c1")
        server.write("c1", 0, b"hello chunk")
        assert server.read("c1", 0, 11) == b"hello chunk"
        assert server.chunk_length("c1") == 11

    def test_local_insert_delete(self, server):
        server.create_chunk("c1")
        server.write("c1", 0, b"abcdef")
        server.insert("c1", 3, b"XY")
        assert server.read("c1", 0, 8) == b"abcXYdef"
        server.delete_range("c1", 1, 4)
        assert server.read("c1", 0, 4) == b"adef"

    def test_local_search_count(self, server):
        server.create_chunk("c1")
        server.write("c1", 0, b"ab ab ab")
        assert server.search("c1", b"ab") == [0, 3, 6]
        assert server.count("c1", b"ab") == 3
        assert server.search_with_edges("c1", b"ab a") == ([0, 3], b"ab ", b" ab")
        assert server.count_with_edges("c1", b"ab a") == (2, b"ab ", b" ab")

    def test_append_and_replace(self, server):
        server.create_chunk("c1")
        server.append("c1", b"1234")
        server.replace("c1", 0, b"ab")
        assert server.read("c1", 0, 4) == b"ab34"

    def test_dispatched_ops_round_trip_against_a_byte_model(self, server):
        """The operations object is chosen once, at construction: the
        engine's own module on a CompressDB server (called directly, so
        no adapter sits on the RPC path), POSIX emulation on a baseline
        one.  A wrong choice fails every step below."""
        expected = OperationModule if server.compressed else PosixOperations
        assert type(server._ops) is expected
        rng = random.Random(18)
        model = bytearray()
        server.create_chunk("c1")
        for step in range(120):
            data = bytes(rng.choices(b"abc ", k=rng.randrange(1, 2500)))
            at = rng.randrange(len(model) + 1)
            op = rng.choice(["append", "insert", "replace", "delete_range"])
            if op == "append":
                server.append("c1", data)
                model += data
            elif op == "insert":
                server.insert("c1", at, data)
                model[at:at] = data
            elif op == "replace":
                data = data[: len(model) - at]  # replace never extends
                server.replace("c1", at, data)
                model[at : at + len(data)] = data
            else:
                length = rng.randrange(len(model) - at + 1)
                server.delete_range("c1", at, length)
                del model[at : at + length]
            assert server.read("c1", 0, len(model) + 1) == bytes(model), (step, op)
            pattern = bytes(rng.choices(b"abc ", k=rng.randrange(1, 4)))
            offsets = [i for i in range(len(model)) if model.startswith(pattern, i)]
            assert server.search("c1", pattern) == offsets
            assert server.count("c1", pattern) == len(offsets)


class TestCluster:
    def test_write_read_roundtrip(self):
        cluster = build_replicated_cluster(nodes=3, masters=1, chunk_capacity=64)
        data = b"0123456789" * 30
        cluster.client.write_file("/f", data)
        assert cluster.client.read_file("/f") == data
        assert cluster.master.chunk_count() == -(-len(data) // 64)

    def test_chunks_spread_across_servers(self):
        cluster = build_replicated_cluster(nodes=3, masters=1, chunk_capacity=32)
        cluster.client.write_file("/f", b"x" * 200)
        populated = [s for s in cluster.servers.values() if s.chunk_ids()]
        assert len(populated) == 3

    def test_unlink_removes_chunks(self):
        cluster = build_replicated_cluster(nodes=2, masters=1, chunk_capacity=32)
        cluster.client.write_file("/f", b"x" * 100)
        cluster.client.unlink("/f")
        assert all(not s.chunk_ids() for s in cluster.servers.values())

    def test_overwrite_within_file(self):
        cluster = build_replicated_cluster(nodes=2, masters=1, chunk_capacity=32)
        cluster.client.write_file("/f", b"a" * 100)
        cluster.client.write("/f", 30, b"BBBB")
        data = cluster.client.read_file("/f")
        assert data == b"a" * 30 + b"BBBB" + b"a" * 66

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_insert_delete_equivalence(self, pushdown):
        cluster = build_replicated_cluster(nodes=3, masters=1, pushdown=pushdown, chunk_capacity=48)
        reference = bytearray(b"The distributed quick brown fox. " * 20)
        cluster.client.write_file("/f", bytes(reference))
        rng = random.Random(5)
        for __ in range(10):
            if rng.random() < 0.5:
                offset = rng.randrange(len(reference) + 1)
                payload = bytes(rng.randrange(97, 123) for __ in range(rng.randrange(30)))
                cluster.client.insert("/f", offset, payload)
                reference[offset:offset] = payload
            else:
                offset = rng.randrange(len(reference))
                length = rng.randrange(min(60, len(reference) - offset))
                cluster.client.delete("/f", offset, length)
                del reference[offset : offset + length]
        assert cluster.client.read_file("/f") == bytes(reference)

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_search_matches_naive(self, pushdown):
        cluster = build_replicated_cluster(nodes=3, masters=1, pushdown=pushdown, chunk_capacity=40)
        data = b"needle in a haystack, needle again, neeneedle " * 8
        cluster.client.write_file("/f", data)
        expected = []
        index = data.find(b"needle")
        while index != -1:
            expected.append(index)
            index = data.find(b"needle", index + 1)
        assert cluster.client.search("/f", b"needle") == expected
        assert cluster.client.count("/f", b"needle") == len(expected)

    def test_search_finds_cross_chunk_match(self):
        cluster = build_replicated_cluster(nodes=2, masters=1, chunk_capacity=32)
        data = b"a" * 30 + b"SPLIT" + b"b" * 30  # straddles the 32-byte chunk
        cluster.client.write_file("/f", data)
        assert cluster.client.search("/f", b"SPLIT") == [30]

    @pytest.mark.parametrize("compressed", [True, False])
    @pytest.mark.parametrize("chunk_capacity", [3, 7, 40])
    def test_count_is_len_search_across_short_chunks(self, chunk_capacity, compressed):
        """Chunks shorter than the pattern: a match crosses several
        boundaries and belongs to the first; self-overlapping patterns."""
        cluster = build_replicated_cluster(nodes=3, masters=1, chunk_capacity=chunk_capacity, compressed=compressed)
        data = b"aaaaaaaaaa" + b"abaababaab" * 6 + b"aaaa"
        cluster.client.write_file("/f", data)
        cluster.client.insert("/f", 17, b"ab")
        cluster.client.delete("/f", 40, 9)
        data = data[:17] + b"ab" + data[17:]
        data = data[:40] + data[49:]
        for pattern in (b"a", b"aa", b"aba", b"abaab", b"aaaaaaaaa", b"baababaabab", b"zz"):
            expected = [
                i for i in range(len(data) - len(pattern) + 1)
                if data[i : i + len(pattern)] == pattern
            ]
            assert cluster.client.search("/f", pattern) == expected
            assert cluster.client.count("/f", pattern) == len(expected)
        assert cluster.client.count("/f", b"") == 0

    def test_count_ships_counts_not_offsets(self):
        """A count's network bytes depend on the chunks, not the matches."""
        cluster = build_replicated_cluster(nodes=2, masters=1, chunk_capacity=1024)
        cluster.client.write_file("/f", b"a" * 4096)
        counter = cluster.client.obs.registry.counter("cluster.rpc.bytes")

        def traffic(call, pattern):
            before = counter.value
            call("/f", pattern)
            return counter.value - before

        envelopes = 4 * (64 + 1)  # four chunks: RPC overhead + pattern, no edges at m = 1
        assert cluster.client.count("/f", b"a") == 4096
        assert traffic(cluster.client.count, b"a") == envelopes + 4 * 8
        assert traffic(cluster.client.count, b"b") == envelopes + 4 * 8
        assert traffic(cluster.client.search, b"a") == envelopes + 4096 * 8

    def test_pushdown_is_cheaper_than_rewrite(self):
        data = b"payload block " * 4000
        slow = build_replicated_cluster(nodes=3, masters=1, compressed=False, pushdown=False)
        fast = build_replicated_cluster(nodes=3, masters=1, compressed=True, pushdown=True)
        for cluster in (slow, fast):
            cluster.client.write_file("/f", data)
            cluster.clock.reset()
            cluster.client.insert("/f", 10, b"tiny")
            cluster.client.delete("/f", 100, 50)
        assert fast.clock.now < slow.clock.now / 5

    def test_compression_ratio_of_redundant_data(self):
        cluster = build_replicated_cluster(nodes=2, masters=1, compressed=True, chunk_capacity=4096)
        block = b"Z" * 1024
        cluster.client.write_file("/f", block * 64)
        assert cluster.compression_ratio() > 10

    def test_stats_registry_tracks_all_nodes(self):
        cluster = build_replicated_cluster(nodes=4, masters=1)
        cluster.client.write_file("/f", b"x" * 5000)
        counters = cluster.metrics().counters
        writes = [counters[f"cluster.node{i}.device.block_writes"] for i in range(4)]
        assert sum(writes) > 0


class TestAggregatePushdown:
    """count/sum/min/max over packed int64 cells, folded on the servers."""

    @staticmethod
    def _cells(rng, count):
        values = [
            None if rng.random() < 0.1 else rng.randrange(-1000, 1000)
            for __ in range(count)
        ]
        return values, pack_int_cells(values)

    @staticmethod
    def _fold(values):
        live = [value for value in values if value is not None]
        if not live:
            return 0, 0, None, None
        return len(live), sum(live), min(live), max(live)

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_matches_local_fold(self, pushdown):
        # chunk_capacity=100 is not a multiple of 8: every chunk boundary
        # splits a cell, exercising the client-side straddle handling.
        cluster = build_replicated_cluster(nodes=3, masters=1, pushdown=pushdown, chunk_capacity=100)
        values, payload = self._cells(random.Random(11), 200)
        cluster.client.write_file("/cells", payload)
        assert cluster.client.aggregate("/cells") == self._fold(values)

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_subrange(self, pushdown):
        cluster = build_replicated_cluster(nodes=2, masters=1, pushdown=pushdown, chunk_capacity=96)
        values, payload = self._cells(random.Random(12), 150)
        cluster.client.write_file("/cells", payload)
        assert cluster.client.aggregate("/cells", 80, 400) == self._fold(
            values[10:60]
        )

    def test_empty_and_misaligned(self):
        cluster = build_replicated_cluster(nodes=1, masters=1)
        cluster.client.write_file("/cells", b"")
        assert cluster.client.aggregate("/cells") == (0, 0, None, None)
        cluster.client.write_file("/cells", pack_int_cells([1, 2]))
        with pytest.raises(ValueError):
            cluster.client.aggregate("/cells", 4, 8)

    def test_pushdown_ships_fewer_bytes(self):
        values, payload = self._cells(random.Random(13), 4000)
        costs = {}
        for pushdown in (True, False):
            cluster = build_replicated_cluster(
                nodes=3, masters=1, pushdown=pushdown, chunk_capacity=4096
            )
            cluster.client.write_file("/cells", payload)
            rpc_bytes = cluster.client.obs.registry.counter("cluster.rpc.bytes")
            before = rpc_bytes.value
            assert cluster.client.aggregate("/cells") == self._fold(values)
            costs[pushdown] = rpc_bytes.value - before
        # The operation ships instead of the data: a fold result per
        # chunk versus the full 32 000-byte column over the network.
        assert costs[True] * 10 < costs[False]
