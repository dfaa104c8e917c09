"""A five-node CompressDB cluster — the paper's MooseFS deployment.

Builds the evaluation platform of Section 6.1 (five nodes, ESSD-class
devices, datacenter LAN), stores a redundant corpus, and shows why
operation pushdown matters in a distributed setting: an insert ships a
few bytes to one chunk server instead of dragging the file tail across
the network twice.

Run with::

    python examples/distributed_cluster.py
"""

from repro.distributed import build_replicated_cluster
from repro.workloads import generate_dataset


def main() -> None:
    data = generate_dataset("C", scale=0.2).concatenated()

    print(f"corpus: {len(data)} bytes\n")
    results = {}
    for label, compressed in (("MooseFS baseline", False), ("CompressDB", True)):
        cluster = build_replicated_cluster(
            nodes=5, masters=1, compressed=compressed, pushdown=compressed,
            chunk_capacity=32 * 1024,
        )
        start = cluster.clock.now  # after the builder's leader election
        cluster.client.write_file("/corpus", data)
        ingest = cluster.clock.now - start

        cluster.clock.reset()
        cluster.client.insert("/corpus", 12345, b"[pushed-down insert]")
        insert_time = cluster.clock.now

        cluster.clock.reset()
        cluster.client.delete("/corpus", 999, 500)
        delete_time = cluster.clock.now

        cluster.clock.reset()
        matches = cluster.client.search("/corpus", b"wikipedia")
        search_time = cluster.clock.now

        results[label] = (ingest, insert_time, delete_time, search_time)
        print(f"{label}:")
        print(f"  chunks: {cluster.master.chunk_count()} across "
              f"{len(cluster.servers)} nodes")
        print(f"  cluster compression ratio: {cluster.compression_ratio():.2f}x")
        print(f"  ingest: {ingest * 1e3:9.2f} ms   insert: {insert_time * 1e3:7.3f} ms   "
              f"delete: {delete_time * 1e3:7.3f} ms   search: {search_time * 1e3:8.2f} ms "
              f"({len(matches)} hits)")
        print()

    base = results["MooseFS baseline"]
    comp = results["CompressDB"]
    print("pushdown speedups: "
          f"insert {base[1] / comp[1]:.0f}x, "
          f"delete {base[2] / comp[2]:.0f}x, "
          f"search {base[3] / comp[3]:.1f}x")


if __name__ == "__main__":
    main()
