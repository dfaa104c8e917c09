"""Replicated metadata plane: failover, rebalancing, and scaling cost.

Three experiments on the Raft-backed master group, all on the
simulated clock:

1. **Failover time** — kill the leased leader and measure simulated
   time until a successor holds a lease, across several election-RNG
   seeds.  Every failover must land within the analytic bound
   (lease expiry + a few randomized election timeouts).
2. **Diff-based rebalancing** — heal a cluster after a node eviction,
   then rejoin the node and rebalance back onto its stale replicas:
   payload bytes shipped as post-snapshot deltas vs what a delta-blind
   rebalancer would copy for the same plan.
3. **Metadata-op throughput vs group size** — create-op commands per
   simulated second through the replicated facade with 1, 3, and 5
   master replicas, plus the Raft transport bytes each run generates:
   the price of availability, made visible.  The leader replicates to
   every peer in parallel, so past one replica that price is paid in
   Raft bytes and messages, which grow with the group, not in latency:
   5 masters keep the 3-master ops/s.

A full standalone run writes ``BENCH_failover.json``; a ``--smoke`` or
pytest run writes ``benchmarks/out/BENCH_failover.json`` instead.
Runnable standalone (``python benchmarks/bench_failover.py [--smoke]``)
or under pytest with the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _shared import trajectory_path

from repro.distributed import build_replicated_cluster
from repro.raft.node import RaftConfig

JSON_NAME = "BENCH_failover.json"

FAILOVER_SEEDS_FULL = 20
FAILOVER_SEEDS_SMOKE = 5
#: Failovers must complete within lease expiry + this many full
#: election timeouts (split votes re-randomize, so a small multiple).
TIMEOUT_BUDGET = 10

THROUGHPUT_OPS_FULL = 300
THROUGHPUT_OPS_SMOKE = 60
GROUP_SIZES = (1, 3, 5)

REBALANCE_CHUNK = 1024
REBALANCE_CHUNKS = 24
REBALANCE_EDIT_BYTES = 16


def bench_failover_time(smoke: bool) -> dict:
    config = RaftConfig()
    seeds = FAILOVER_SEEDS_SMOKE if smoke else FAILOVER_SEEDS_FULL
    bound_s = config.lease_duration + TIMEOUT_BUDGET * config.election_timeout_max
    times = []
    for seed in range(seeds):
        cluster = build_replicated_cluster(nodes=3, masters=3, seed=seed)
        group = cluster.group()
        cluster.client.write_file("/keep", b"k" * 512)
        group.crash_leader()
        start = cluster.clock.now
        group.elect()
        times.append(cluster.clock.now - start)
        assert cluster.client.read_file("/keep") == b"k" * 512
    return {
        "seeds": seeds,
        "election_timeout_ms": [
            config.election_timeout_min * 1e3,
            config.election_timeout_max * 1e3,
        ],
        "bound_ms": bound_s * 1e3,
        "min_ms": min(times) * 1e3,
        "mean_ms": sum(times) / len(times) * 1e3,
        "max_ms": max(times) * 1e3,
    }


def bench_rebalance(smoke: bool) -> dict:
    chunks = REBALANCE_CHUNKS // 2 if smoke else REBALANCE_CHUNKS
    cluster = build_replicated_cluster(
        nodes=3, masters=3, replication=2, chunk_capacity=REBALANCE_CHUNK
    )
    client = cluster.client
    data = bytes(
        (i * 31 + j) % 251 for i in range(chunks) for j in range(REBALANCE_CHUNK)
    )
    client.write_file("/corpus", data)
    client.snapshot("base")
    # Evict node1; the cluster heals with full copies while node1's
    # replicas rot on its (offline) disk.
    cluster.servers["node1"].fail()
    cluster.master.remove_server("node1")
    heal_moves, heal_shipped, __ = client.rebalance()
    # A small post-snapshot edit, then node1 rejoins empty-handed: the
    # rebalancer ships only what changed since the snapshot.
    client.replace("/corpus", 64, b"#" * REBALANCE_EDIT_BYTES)
    cluster.servers["node1"].recover()
    cluster.master.register_server("node1", "")
    moves, shipped, full = client.rebalance(base_snap="base")
    return {
        "chunks": chunks,
        "chunk_bytes": REBALANCE_CHUNK,
        "heal_moves": heal_moves,
        "heal_shipped_bytes": heal_shipped,
        "rejoin_moves": moves,
        "delta_shipped_bytes": shipped,
        "full_copy_bytes": full,
        "savings_ratio": (full - shipped) / full if full else 0.0,
    }


def bench_throughput_vs_masters(smoke: bool) -> list[dict]:
    operations = THROUGHPUT_OPS_SMOKE if smoke else THROUGHPUT_OPS_FULL
    rows = []
    for masters in GROUP_SIZES:
        cluster = build_replicated_cluster(nodes=3, masters=masters)
        group = cluster.group()
        group.elect()
        start = cluster.clock.now
        sent_before = group.transport.bytes_sent
        for index in range(operations):
            cluster.master.create(f"/ops/file{index}")
        elapsed = cluster.clock.now - start
        rows.append(
            {
                "masters": masters,
                "operations": operations,
                "elapsed_s": elapsed,
                "ops_per_s": operations / elapsed if elapsed else float("inf"),
                "raft_bytes": group.transport.bytes_sent - sent_before,
                "raft_messages": group.transport.messages,
            }
        )
    return rows


def run_all(smoke: bool = False) -> dict:
    return {
        "failover": bench_failover_time(smoke),
        "rebalance": bench_rebalance(smoke),
        "throughput": bench_throughput_vs_masters(smoke),
    }


def report(results: dict, path: Path) -> dict:
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return results


def _check(results: dict) -> None:
    failover = results["failover"]
    assert failover["max_ms"] <= failover["bound_ms"], (
        f"failover {failover['max_ms']:.0f}ms exceeds the "
        f"{failover['bound_ms']:.0f}ms election bound"
    )
    rebalance = results["rebalance"]
    assert rebalance["rejoin_moves"] > 0, "the rejoin produced no moves"
    assert rebalance["delta_shipped_bytes"] < rebalance["full_copy_bytes"], (
        "diff-based rebalance must ship fewer bytes than full chunk copies"
    )
    by_masters = {row["masters"]: row for row in results["throughput"]}
    assert by_masters[1]["ops_per_s"] > by_masters[3]["ops_per_s"], (
        "replication has a cost: a single master must outrun a 3-group"
    )
    # Equal round costs, summed in another order, differ in the last bits.
    assert by_masters[5]["ops_per_s"] >= by_masters[3]["ops_per_s"] * (1 - 1e-9), (
        "a parallel replication round must not slow down as peers are added"
    )
    assert by_masters[3]["raft_bytes"] > 0


def test_failover(benchmark):
    results = benchmark.pedantic(lambda: run_all(smoke=True), rounds=1, iterations=1)
    _check(report(results, trajectory_path(JSON_NAME, committed=False)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="reduced volume for CI smoke runs"
    )
    args = parser.parse_args(argv)
    path = trajectory_path(JSON_NAME, committed=not args.smoke)
    _check(report(run_all(smoke=args.smoke), path))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
