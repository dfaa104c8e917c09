"""Figure 11: operation latency in the five-node cluster.

The paper runs the individual operations against MooseFS with and
without CompressDB on cloud nodes.  Expected shape: every operation's
latency drops with CompressDB + pushdown; ``extract`` has the lowest
latency (no writes), ``search``/``count`` the highest (full-range
traversal); insert/delete benefit the most because the baseline drags
the file tail across the network.
"""

import random

from repro.bench import print_table
from repro.distributed import build_replicated_cluster
from repro.workloads import LatencyRecorder, generate_dataset

OP_NAMES = ("extract", "replace", "insert", "delete", "append", "search", "count")
OPERATIONS_PER_TYPE = 15


def _run_cluster(compressed: bool):
    cluster = build_replicated_cluster(
        nodes=5, masters=1, compressed=compressed, pushdown=compressed, chunk_capacity=16 * 1024
    )
    data = generate_dataset("A", scale=0.1).concatenated()
    cluster.client.write_file("/target", data)
    rng = random.Random(23)
    latencies: dict[str, LatencyRecorder] = {op: LatencyRecorder() for op in OP_NAMES}
    size = len(data)
    for op_name in OP_NAMES:
        for op_no in range(OPERATIONS_PER_TYPE):
            offset = rng.randrange(max(1, size - 4096))
            start = cluster.clock.now
            if op_name == "extract":
                cluster.client.extract("/target", offset, 512)
            elif op_name == "replace":
                cluster.client.replace("/target", offset, b"replacement!")
            elif op_name == "insert":
                cluster.client.insert("/target", offset, b"inserted")
                size += 8
            elif op_name == "delete":
                cluster.client.delete("/target", offset, 8)
                size -= 8
            elif op_name == "append":
                cluster.client.append("/target", b"tail %05d " % op_no)
                size += 11
            elif op_name == "search":
                cluster.client.search("/target", b"the")
            elif op_name == "count":
                cluster.client.count("/target", b"data")
            latencies[op_name].record(cluster.clock.now - start)
    return latencies


def test_fig11_cluster_latency(benchmark):
    def run_both():
        return _run_cluster(False), _run_cluster(True)

    baseline, compressdb = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    for op_name in OP_NAMES:
        base_ms = baseline[op_name].summary().mean * 1e3
        comp_ms = compressdb[op_name].summary().mean * 1e3
        rows.append(
            [op_name, f"{base_ms:.2f}", f"{comp_ms:.2f}", f"{base_ms / comp_ms:.1f}x"]
        )
    print_table(
        ["operation", "MooseFS baseline (ms)", "CompressDB (ms)", "reduction"],
        rows,
        title="Figure 11: cluster operation latency (simulated, 5 nodes)",
    )
    comp_means = {op: compressdb[op].summary().mean for op in OP_NAMES}
    # extract is the cheapest operation; search/count the most expensive.
    assert comp_means["extract"] == min(comp_means.values())
    slowest_two = sorted(comp_means, key=comp_means.get)[-2:]
    assert set(slowest_two) == {"search", "count"}
    # insert/delete gain the most from pushdown.
    gains = {
        op: baseline[op].summary().mean / comp_means[op] for op in OP_NAMES
    }
    assert gains["insert"] > gains["extract"]
    assert gains["delete"] > gains["extract"]
    assert gains["insert"] > 5 and gains["delete"] > 5
