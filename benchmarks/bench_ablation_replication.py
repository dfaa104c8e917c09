"""Ablation: MooseFS replication goal × CompressDB.

Replication multiplies write traffic and raw storage by the goal; this
ablation quantifies that cost on the cluster and shows the interaction
the paper's design enables: on CompressDB chunk servers, replicas of
content a node already holds dedup away locally, so the *storage*
multiplier stays below the goal even though the *network* multiplier
does not.  Also measures that reads survive a node failure with goal=2
at unchanged latency.
"""

from repro.bench import print_table
from repro.distributed import build_replicated_cluster
from repro.workloads import generate_dataset

GOALS = (1, 2, 3)


def _run_goal(goal: int, compressed: bool, data: bytes):
    cluster = build_replicated_cluster(
        nodes=5, masters=1, compressed=compressed, pushdown=compressed,
        replication=goal, chunk_capacity=16 * 1024,
    )
    start = cluster.clock.now  # after the builder's leader election
    cluster.client.write_file("/corpus", data)
    ingest = cluster.clock.now - start
    cluster.clock.reset()
    for offset in range(0, len(data) - 4096, len(data) // 20):
        cluster.client.read(path="/corpus", offset=offset, size=4096)
    read_time = cluster.clock.now
    return ingest, read_time, cluster.physical_bytes(), cluster


def _run_all():
    data = generate_dataset("C", scale=0.15).concatenated()
    results = {}
    for goal in GOALS:
        for compressed in (False, True):
            results[(goal, compressed)] = _run_goal(goal, compressed, data)
    # Failover: goal=2 CompressDB cluster, primary of chunk 0 dies.
    cluster = results[(2, True)][3]
    primary = cluster.master.lookup("/corpus").chunks[0].server
    cluster.clock.reset()
    healthy = cluster.client.read("/corpus", 0, 4096)
    healthy_time = cluster.clock.now
    cluster.servers[primary].fail()
    cluster.clock.reset()
    failover = cluster.client.read("/corpus", 0, 4096)
    failover_time = cluster.clock.now
    assert healthy == failover
    return len(data), results, healthy_time, failover_time


def test_ablation_replication(benchmark):
    data_bytes, results, healthy_time, failover_time = benchmark.pedantic(
        _run_all, rounds=1, iterations=1
    )
    rows = []
    for goal in GOALS:
        for compressed in (False, True):
            ingest, read_time, physical, __ = results[(goal, compressed)]
            rows.append(
                [
                    goal,
                    "CompressDB" if compressed else "baseline",
                    f"{ingest * 1e3:.1f}",
                    f"{read_time * 1e3:.2f}",
                    f"{physical / data_bytes:.2f}x",
                ]
            )
    print_table(
        ["goal", "servers", "ingest (ms)", "20 reads (ms)", "storage multiplier"],
        rows,
        title="Ablation: replication goal (5 nodes, dataset C slice)",
    )
    print(
        f"\nfailover read (goal=2): healthy {healthy_time * 1e3:.3f} ms, "
        f"after primary failure {failover_time * 1e3:.3f} ms"
    )
    # Write cost scales with the goal.
    for compressed in (False, True):
        ingests = [results[(goal, compressed)][0] for goal in GOALS]
        assert ingests[0] < ingests[1] < ingests[2]
    # Baseline storage multiplies by the goal; CompressDB stays below it.
    for goal in GOALS:
        base_mult = results[(goal, False)][2] / data_bytes
        comp_mult = results[(goal, True)][2] / data_bytes
        assert base_mult == pytest_approx(goal, 0.2)
        assert comp_mult < base_mult
    # Failover costs no extra simulated time (a different replica serves).
    assert failover_time <= healthy_time * 1.5


def pytest_approx(value, rel):
    import pytest

    return pytest.approx(value, rel=rel)
