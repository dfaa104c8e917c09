"""Serving layer under open-loop load: admission, fairness, scale.

Three experiments on the multi-tenant serving layer, all on the
simulated clock (arrival schedules are Poisson, *open loop*: arrivals
never wait for completions, so an overloaded server sees the full
offered rate):

1. **Graceful degradation** — the same 2x-overload schedule with and
   without admission control.  With admission on, the accepted-request
   p99 must stay within ``P99_BOUND``x of the uncontended p99 (the rest
   is shed with retry-after); with admission off, queueing delay grows
   without bound.  Per-tenant accepted counts from the admitted run
   must be fair (Jain index >= ``FAIRNESS_BOUND`` for equal weights).
2. **Workload mixes** — YCSB A-F plus a Filebench-style fileserver
   mix, each mapped onto the wire opcode set, at a comfortable rate:
   per-mix throughput and latency percentiles.
3. **Tenant scale** — ``TENANTS_FULL`` (1000+) namespaces on one
   server, every tenant issuing a handful of requests: provisioning
   and per-tenant accounting must not collapse aggregate throughput.

A full standalone run writes ``BENCH_serving.json``; a ``--smoke`` or
pytest run writes ``benchmarks/out/BENCH_serving.json`` instead.
Runnable standalone (``python benchmarks/bench_serving.py [--smoke]``)
or under pytest with the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _shared import trajectory_path

from repro.fs.compressfs import CompressFS
from repro.serving import (
    Server,
    ServerConfig,
    ServingRequest,
    TenantConfig,
    jain_fairness,
)
from repro.serving.protocol import OPCODES
from repro.workloads import open_loop_arrivals, percentile

JSON_NAME = "BENCH_serving.json"

#: 2x-overload experiment (validated: uncontended p99 ~1ms, admitted
#: overload p99 ~4ms, unadmitted baseline p99 ~450ms).
TENANTS = 8
RATE_UNCONTENDED = 60.0  # per tenant, requests/s
RATE_OVERLOAD = 600.0  # per tenant: ~2x the admitted capacity
DURATION_S = 0.5
BUCKET_RATE = 400.0  # per-tenant admission bucket
BUCKET_BURST = 8.0
MAX_QUEUE_DELAY_S = 0.002
P99_BOUND = 5.0
FAIRNESS_BOUND = 0.9

#: Workload-mix experiment.
MIX_TENANTS = 4
MIX_RATE = 100.0
MIX_DURATION_S = 0.25

#: Tenant-scale experiment.
TENANTS_FULL = 1024
TENANTS_SMOKE = 128
REQUESTS_PER_TENANT = 4
SCALE_SPAN_S = 4.0  # arrival window: keeps the server under capacity

PRELOAD_FILES = 20
PRELOAD_BYTES = 80


def make_server(admission: bool = True) -> Server:
    config = ServerConfig(
        admission=admission,
        max_queue_delay_s=MAX_QUEUE_DELAY_S,
        default_rate_per_s=BUCKET_RATE,
    )
    return Server(fs=CompressFS(block_size=256, page_capacity=8), config=config)


def provision(server: Server, names: list[str]) -> None:
    """Add tenants and preload a small working set in each namespace.

    Preloading happens through the unadmitted ``handle`` path and the
    clock is reset afterwards, so measured latencies are pure serving.
    """
    payload = b"x" * PRELOAD_BYTES
    for name in names:
        server.add_tenant(TenantConfig(name=name, burst=BUCKET_BURST))
        for i in range(PRELOAD_FILES):
            server.handle(
                name,
                OPCODES["FS_WRITE_FILE"],
                {"path": f"/y{i}", "data": payload},
            )
    server.clock.reset()


def ycsb_requests(
    tenants: list[str], workload: str, rate_per_s: float, duration_s: float
) -> list[ServingRequest]:
    """Map one YCSB arrival schedule per tenant onto wire opcodes.

    Reads and scans become whole-file reads of the preloaded set;
    updates, inserts, and read-modify-writes become whole-file writes.
    Each tenant gets an independent Poisson stream (distinct seed).
    """
    payload = b"y" * PRELOAD_BYTES
    requests: list[ServingRequest] = []
    for index, tenant in enumerate(tenants):
        schedule = open_loop_arrivals(
            workload, rate_per_s, duration_s, record_count=50, seed=11 + index
        )
        for timed in schedule:
            path = f"/y{timed.op.key % PRELOAD_FILES}"
            if timed.op.kind in ("read", "scan"):
                opcode, body = OPCODES["FS_READ_FILE"], {"path": path}
            else:
                opcode, body = OPCODES["FS_WRITE_FILE"], {"path": path, "data": payload}
            requests.append(ServingRequest(timed.arrival_s, tenant, opcode, body))
    return requests


def fileserver_requests(
    tenants: list[str], rate_per_s: float, duration_s: float
) -> list[ServingRequest]:
    """A Filebench fileserver personality on the wire: 1/3 whole-file
    reads, 1/3 whole-file writes, 1/3 appends (read + rewrite), plus a
    sprinkle of directory listings."""
    import random

    payload = b"z" * PRELOAD_BYTES
    requests: list[ServingRequest] = []
    for index, tenant in enumerate(tenants):
        rng = random.Random(f"fileserver-{index}")
        now = 0.0
        while True:
            now += rng.expovariate(rate_per_s)
            if now >= duration_s:
                break
            path = f"/y{rng.randrange(PRELOAD_FILES)}"
            roll = rng.random()
            if roll < 1 / 3:
                opcode, body = OPCODES["FS_READ_FILE"], {"path": path}
            elif roll < 2 / 3:
                opcode, body = OPCODES["FS_WRITE_FILE"], {"path": path, "data": payload}
            elif roll < 0.95:
                opcode, body = OPCODES["FS_PWRITE"], {
                    "path": path,
                    "offset": PRELOAD_BYTES,
                    "data": payload[:16],
                }
            else:
                opcode, body = OPCODES["FS_LIST"], {}
            requests.append(ServingRequest(now, tenant, opcode, body))
    return requests


def _latency_summary(outcome: dict) -> dict:
    latencies = sorted(lat for entry in outcome.values() for lat in entry["latencies"])
    return {
        "completed": len(latencies),
        "accepted": sum(e["accepted"] for e in outcome.values()),
        "shed": sum(e["shed"] for e in outcome.values()),
        "errors": sum(e["errors"] for e in outcome.values()),
        "p50_ms": percentile(latencies, 0.50) * 1e3,
        "p95_ms": percentile(latencies, 0.95) * 1e3,
        "p99_ms": percentile(latencies, 0.99) * 1e3,
    }


def run_overload(tenant_count: int, duration_s: float) -> dict:
    """Uncontended vs 2x overload, admission on vs off."""
    names = [f"t{i}" for i in range(tenant_count)]

    def one(admission: bool, rate: float) -> dict:
        server = make_server(admission=admission)
        provision(server, names)
        outcome = server.run_open_loop(
            ycsb_requests(names, "A", rate, duration_s)
        )
        summary = _latency_summary(outcome)
        summary["offered_per_tenant_per_s"] = rate
        summary["per_tenant_accepted"] = {
            name: outcome[name]["accepted"] for name in names
        }
        return summary

    uncontended = one(admission=True, rate=RATE_UNCONTENDED)
    admitted = one(admission=True, rate=RATE_OVERLOAD)
    unadmitted = one(admission=False, rate=RATE_OVERLOAD)
    admitted["jain_fairness"] = jain_fairness(
        list(admitted["per_tenant_accepted"].values())
    )
    return {
        "tenants": tenant_count,
        "duration_s": duration_s,
        "uncontended": uncontended,
        "overload_admitted": admitted,
        "overload_unadmitted": unadmitted,
    }


def run_mixes(smoke: bool) -> dict:
    """YCSB A-F and the fileserver mix through the serving layer."""
    names = [f"m{i}" for i in range(MIX_TENANTS)]
    duration = MIX_DURATION_S / (2 if smoke else 1)
    mixes: dict[str, dict] = {}
    for workload in "ABCDEF":
        server = make_server(admission=True)
        provision(server, names)
        outcome = server.run_open_loop(
            ycsb_requests(names, workload, MIX_RATE, duration)
        )
        mixes[f"ycsb_{workload}"] = _latency_summary(outcome)
    server = make_server(admission=True)
    provision(server, names)
    outcome = server.run_open_loop(fileserver_requests(names, MIX_RATE, duration))
    mixes["fileserver"] = _latency_summary(outcome)
    return mixes


def run_scale(tenant_count: int) -> dict:
    """Many tenants, a few requests each: per-tenant accounting at scale."""
    server = make_server(admission=True)
    names = [f"s{i}" for i in range(tenant_count)]
    payload = b"w" * PRELOAD_BYTES
    for name in names:
        server.add_tenant(TenantConfig(name=name, burst=BUCKET_BURST))
        # One seeded file per namespace so reads never depend on a
        # write that admission control may have shed.
        server.handle(
            name, OPCODES["FS_WRITE_FILE"], {"path": "/seed", "data": payload}
        )
    server.clock.reset()
    requests: list[ServingRequest] = []
    for index, name in enumerate(names):
        # Stagger tenants across the arrival window; each issues a
        # small burst of writes and reads inside its slot.
        base = SCALE_SPAN_S * index / tenant_count
        for r in range(REQUESTS_PER_TENANT):
            opcode, body = (
                (OPCODES["FS_WRITE_FILE"], {"path": f"/f{r}", "data": payload})
                if r % 2 == 0
                else (OPCODES["FS_READ_FILE"], {"path": "/seed"})
            )
            requests.append(
                ServingRequest(base + r * 1e-4, name, opcode, body)
            )
    outcome = server.run_open_loop(requests)
    summary = _latency_summary(outcome)
    summary["tenants"] = tenant_count
    summary["requests"] = len(requests)
    summary["sim_seconds"] = server.clock.now
    summary["throughput_per_s"] = (
        summary["completed"] / server.clock.now if server.clock.now else 0.0
    )
    return summary


def run_all(smoke: bool = False) -> dict:
    tenant_count = max(TENANTS // (2 if smoke else 1), 4)
    duration = DURATION_S / (2 if smoke else 1)
    return {
        "overload": run_overload(tenant_count, duration),
        "mixes": run_mixes(smoke),
        "scale": run_scale(TENANTS_SMOKE if smoke else TENANTS_FULL),
    }


def _print_table(headers: list[str], rows: list[list[str]], title: str) -> None:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    print(f"\n{title}")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


def report(results: dict, path: Path) -> dict:
    overload = results["overload"]
    rows = []
    for label in ("uncontended", "overload_admitted", "overload_unadmitted"):
        entry = overload[label]
        rows.append(
            [
                label,
                f"{entry['offered_per_tenant_per_s']:.0f}/s",
                str(entry["accepted"]),
                str(entry["shed"]),
                f"{entry['p50_ms']:.2f}",
                f"{entry['p99_ms']:.2f}",
            ]
        )
    _print_table(
        ["run", "offered/tenant", "accepted", "shed", "p50 (ms)", "p99 (ms)"],
        rows,
        title="Serving: 2x overload, admission on vs off (simulated)",
    )
    print(
        f"jain fairness over accepted (equal weights): "
        f"{overload['overload_admitted']['jain_fairness']:.3f}"
    )
    mix_rows = [
        [
            name,
            str(entry["completed"]),
            str(entry["shed"]),
            f"{entry['p50_ms']:.2f}",
            f"{entry['p95_ms']:.2f}",
            f"{entry['p99_ms']:.2f}",
        ]
        for name, entry in results["mixes"].items()
    ]
    _print_table(
        ["mix", "completed", "shed", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        mix_rows,
        title="Serving: workload mixes (YCSB A-F + fileserver)",
    )
    scale = results["scale"]
    _print_table(
        ["tenants", "requests", "completed", "p99 (ms)", "throughput"],
        [
            [
                str(scale["tenants"]),
                str(scale["requests"]),
                str(scale["completed"]),
                f"{scale['p99_ms']:.2f}",
                f"{scale['throughput_per_s']:.0f}/s",
            ]
        ],
        title="Serving: tenant scale",
    )
    path.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _check(results: dict) -> None:
    overload = results["overload"]
    uncontended_p99 = overload["uncontended"]["p99_ms"]
    admitted = overload["overload_admitted"]
    unadmitted = overload["overload_unadmitted"]
    assert admitted["shed"] > 0, "2x overload must shed under admission control"
    assert unadmitted["shed"] == 0
    assert admitted["p99_ms"] <= P99_BOUND * uncontended_p99, (
        f"admitted p99 {admitted['p99_ms']:.2f}ms exceeds "
        f"{P99_BOUND}x uncontended ({uncontended_p99:.2f}ms)"
    )
    assert unadmitted["p99_ms"] > admitted["p99_ms"], (
        "without admission the overload p99 must degrade past the admitted one"
    )
    assert admitted["jain_fairness"] >= FAIRNESS_BOUND, (
        f"fairness {admitted['jain_fairness']:.3f} below {FAIRNESS_BOUND}"
    )
    for name, entry in results["mixes"].items():
        assert entry["errors"] == 0, f"mix {name} saw request errors"
        assert entry["completed"] > 0, f"mix {name} completed nothing"
    assert results["scale"]["errors"] == 0
    assert results["scale"]["completed"] == results["scale"]["accepted"]


def test_serving(benchmark):
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
