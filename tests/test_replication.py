"""Tests for chunk replication and node-failure handling."""

import pytest

from repro.distributed import (
    Master,
    NoLiveReplica,
    ServerDown,
    build_cluster,
)


class TestMasterReplication:
    def test_replication_bounds_validated(self):
        with pytest.raises(ValueError):
            Master(["a", "b"], replication=3)
        with pytest.raises(ValueError):
            Master(["a", "b"], replication=0)

    # Mutating metadata RPCs declare require_held(): the caller owns the
    # master lock (as ClusterClient does around composites).
    def test_replicas_are_distinct_servers(self):
        master = Master(["a", "b", "c"], replication=2)
        with master.lock:
            master.create("/f")
            for __ in range(6):
                chunk = master.allocate_chunk("/f")
                assert len(set(chunk.servers)) == 2

    def test_primary_accessor(self):
        master = Master(["a", "b"], replication=2)
        with master.lock:
            master.create("/f")
            chunk = master.allocate_chunk("/f")
        assert chunk.server == chunk.servers[0]

    def test_rotation_spreads_primaries(self):
        master = Master(["a", "b", "c"], replication=2)
        with master.lock:
            master.create("/f")
            primaries = [master.allocate_chunk("/f").server for __ in range(6)]
        assert set(primaries) == {"a", "b", "c"}


class TestServerFailure:
    def test_offline_server_rejects_requests(self):
        cluster = build_cluster(nodes=2)
        cluster.client.write_file("/f", b"data")
        server = next(iter(cluster.servers.values()))
        server.fail()
        with pytest.raises(ServerDown):
            server.read("c00000000", 0, 1)
        server.recover()

    def test_recovered_server_serves_again(self):
        cluster = build_cluster(nodes=1)
        cluster.client.write_file("/f", b"payload")
        server = cluster.servers["node0"]
        server.fail()
        server.recover()
        assert cluster.client.read_file("/f") == b"payload"


class TestReplicatedCluster:
    def test_data_written_to_all_replicas(self):
        cluster = build_cluster(nodes=3, replication=2, chunk_capacity=64)
        cluster.client.write_file("/f", b"replicated " * 20)
        for chunk in cluster.master.lookup("/f").chunks:
            contents = {
                cluster.servers[name].read(chunk.chunk_id, 0, chunk.length)
                for name in chunk.servers
            }
            assert len(contents) == 1  # replicas agree

    def test_read_survives_primary_failure(self):
        cluster = build_cluster(nodes=3, replication=2, chunk_capacity=64)
        data = b"failover payload " * 30
        cluster.client.write_file("/f", data)
        # Kill the primary of the first chunk.
        primary = cluster.master.lookup("/f").chunks[0].server
        cluster.servers[primary].fail()
        assert cluster.client.read_file("/f") == data

    def test_search_survives_failure(self):
        cluster = build_cluster(nodes=3, replication=2, chunk_capacity=48)
        data = b"find the needle in here, the needle " * 10
        cluster.client.write_file("/f", data)
        cluster.servers["node0"].fail()
        expected = []
        index = data.find(b"needle")
        while index != -1:
            expected.append(index)
            index = data.find(b"needle", index + 1)
        assert cluster.client.search("/f", b"needle") == expected

    def test_manipulation_survives_failure(self):
        cluster = build_cluster(nodes=3, replication=2, chunk_capacity=64)
        cluster.client.write_file("/f", b"0123456789" * 20)
        cluster.servers["node1"].fail()
        cluster.client.insert("/f", 5, b"INS")
        cluster.client.delete("/f", 0, 2)
        assert cluster.client.read_file("/f").startswith(b"234INS56789")

    def test_unreplicated_chunk_fails_hard(self):
        cluster = build_cluster(nodes=2, replication=1, chunk_capacity=64)
        cluster.client.write_file("/f", b"x" * 200)
        for server in cluster.servers.values():
            server.fail()
        with pytest.raises(NoLiveReplica):
            cluster.client.read_file("/f")

    def test_replication_doubles_storage(self):
        # Baseline (non-dedup) servers so replica copies are visible;
        # on CompressDB servers identical replicas dedup away locally.
        single = build_cluster(nodes=3, replication=1, chunk_capacity=64, compressed=False)
        double = build_cluster(nodes=3, replication=2, chunk_capacity=64, compressed=False)
        data = bytes(range(256)) * 4
        single.client.write_file("/f", data)
        double.client.write_file("/f", data)
        assert double.physical_bytes() == 2 * single.physical_bytes()

    def test_compressdb_absorbs_replica_overhead_per_node(self):
        """On CompressDB servers, a replica that lands on a node already
        holding identical blocks costs no extra data blocks — dedup and
        replication compose."""
        cluster = build_cluster(nodes=2, replication=2, chunk_capacity=1024)
        block = b"R" * 1024
        cluster.client.write_file("/f", block * 8)
        for server in cluster.servers.values():
            assert server.physical_bytes() == 1024  # one unique block each

    def test_write_after_failure_updates_survivors(self):
        cluster = build_cluster(nodes=2, replication=2, chunk_capacity=1024)
        cluster.client.write_file("/f", b"a" * 100)
        cluster.servers["node0"].fail()
        cluster.client.write("/f", 0, b"B" * 10)
        assert cluster.client.read_file("/f") == b"B" * 10 + b"a" * 90
        # The failed node keeps its stale copy until an explicit resync.
        cluster.servers["node0"].recover()
        chunk = cluster.master.lookup("/f").chunks[0]
        replicas = {
            name: cluster.servers[name].read(chunk.chunk_id, 0, 10)
            for name in chunk.servers
        }
        assert replicas["node1"] == b"B" * 10


class TestResync:
    def test_resync_repairs_stale_replica(self):
        cluster = build_cluster(nodes=2, replication=2, chunk_capacity=1024)
        cluster.client.write_file("/f", b"a" * 100)
        cluster.servers["node0"].fail()
        cluster.client.write("/f", 0, b"B" * 50)  # node0 misses this
        cluster.servers["node0"].recover()
        repaired = cluster.client.resync("node0")
        assert repaired == 1
        # node0 now serves the current bytes even if node1 dies.
        cluster.servers["node1"].fail()
        assert cluster.client.read_file("/f") == b"B" * 50 + b"a" * 50

    def test_resync_noop_when_consistent(self):
        cluster = build_cluster(nodes=3, replication=2, chunk_capacity=256)
        cluster.client.write_file("/f", b"consistent " * 40)
        assert cluster.client.resync("node0") == 0
        assert cluster.client.resync("node1") == 0

    def test_resync_recreates_missing_chunks(self):
        cluster = build_cluster(nodes=2, replication=2, chunk_capacity=64)
        cluster.client.write_file("/f", b"x" * 200)
        # Wipe node0's chunks entirely (disk loss, then recovery).
        node0 = cluster.servers["node0"]
        for chunk_id in node0.chunk_ids():
            node0.delete_chunk(chunk_id)
        repaired = cluster.client.resync("node0")
        assert repaired >= 1
        cluster.servers["node1"].fail()
        assert cluster.client.read_file("/f") == b"x" * 200

    def test_resync_offline_server_rejected(self):
        import pytest as _pytest

        cluster = build_cluster(nodes=2, replication=2)
        cluster.servers["node0"].fail()
        with _pytest.raises(ValueError):
            cluster.client.resync("node0")
