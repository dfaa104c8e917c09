"""``compressdb`` — a command-line front end for persistent engine images.

The engine persists to a single image file (see
:mod:`repro.core.superblock`), so the full query + manipulation surface
is usable from the shell::

    compressdb init store.img
    compressdb put store.img ./corpus.txt /corpus.txt
    compressdb search store.img /corpus.txt "needle"
    compressdb insert store.img /corpus.txt 100 "spliced in"
    compressdb stats store.img
    compressdb serve store.img /tmp/compressdb.sock   # unix-socket API
    compressdb lint --json                            # reprolint static analysis

Every mutating command syncs (``engine.flush``) before exiting.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core import superblock as sb
from repro.core.engine import CompressDB
from repro.fs.errors import FSError
from repro.snap.manager import SnapshotError
from repro.storage.block_device import FileBlockDevice


class CLIError(Exception):
    """User-facing command failure (bad arguments, missing files)."""


def _mount(
    image: str, block_size: int = 1024, journal_blocks: int | None = None
) -> CompressDB:
    # An existing image dictates its own geometry; mounting it with any
    # other block size would misread every block boundary.  The journal
    # region, likewise, is fixed at format time — ``journal_blocks``
    # only matters when the image is being created.
    recorded = sb.probe_block_size(image)
    if recorded is not None:
        block_size = recorded
    device = FileBlockDevice(image, block_size=block_size)
    return CompressDB.mount(device, journal_blocks=journal_blocks)


def _close(engine: CompressDB, flush: bool) -> None:
    if flush:
        engine.fsync()
    # The engine may have wrapped the file device in a journal.
    device = getattr(engine.device, "inner", engine.device)
    if isinstance(device, FileBlockDevice):
        device.close()


def cmd_init(args) -> int:
    engine = _mount(
        args.image,
        block_size=args.block_size,
        journal_blocks=args.journal_blocks,
    )
    _close(engine, flush=True)
    suffix = (
        f", journal {args.journal_blocks} blocks" if args.journal_blocks else ""
    )
    print(f"initialised {args.image} (block size {args.block_size}{suffix})")
    return 0


def cmd_put(args) -> int:
    with open(args.source, "rb") as handle:
        data = handle.read()
    engine = _mount(args.image)
    engine.write_file(args.path, data)
    _close(engine, flush=True)
    print(f"stored {len(data)} bytes at {args.path}")
    return 0


def cmd_get(args) -> int:
    engine = _mount(args.image)
    data = engine.read_file(args.path)
    _close(engine, flush=False)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"wrote {len(data)} bytes to {args.output}")
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_ls(args) -> int:
    engine = _mount(args.image)
    for path in engine.list_files():
        print(f"{engine.file_size(path):>12}  {path}")
    _close(engine, flush=False)
    return 0


def cmd_rm(args) -> int:
    engine = _mount(args.image)
    engine.unlink(args.path)
    _close(engine, flush=True)
    print(f"removed {args.path}")
    return 0


def cmd_cp(args) -> int:
    engine = _mount(args.image)
    engine.copy_file(args.source, args.dest)
    _close(engine, flush=True)
    print(f"cloned {args.source} -> {args.dest} (no data copied)")
    return 0


def _payload(args) -> bytes:
    if getattr(args, "from_file", None):
        with open(args.from_file, "rb") as handle:
            return handle.read()
    if args.data is None:
        raise CLIError("provide DATA or --from-file")
    return args.data.encode("utf-8")


def cmd_insert(args) -> int:
    data = _payload(args)
    engine = _mount(args.image)
    engine.ops.insert(args.path, args.offset, data)
    _close(engine, flush=True)
    print(f"inserted {len(data)} bytes at offset {args.offset}")
    return 0


def cmd_delete(args) -> int:
    engine = _mount(args.image)
    engine.ops.delete(args.path, args.offset, args.length)
    _close(engine, flush=True)
    print(f"deleted {args.length} bytes at offset {args.offset}")
    return 0


def cmd_replace(args) -> int:
    data = _payload(args)
    engine = _mount(args.image)
    engine.ops.replace(args.path, args.offset, data)
    _close(engine, flush=True)
    print(f"replaced {len(data)} bytes at offset {args.offset}")
    return 0


def cmd_append(args) -> int:
    data = _payload(args)
    engine = _mount(args.image)
    engine.ops.append(args.path, data)
    _close(engine, flush=True)
    print(f"appended {len(data)} bytes")
    return 0


def cmd_search(args) -> int:
    engine = _mount(args.image)
    offsets = engine.ops.search(args.path, args.pattern.encode("utf-8"))
    _close(engine, flush=False)
    for offset in offsets:
        print(offset)
    print(f"{len(offsets)} occurrence(s)", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    engine = _mount(args.image)
    total = engine.ops.count(args.path, args.pattern.encode("utf-8"))
    _close(engine, flush=False)
    print(total)
    return 0


def cmd_stats(args) -> int:
    """Render statistics from one metrics snapshot (DESIGN.md §9).

    Every figure — space gauges, cache hit rate, batching counters,
    compressor outcomes — comes out of a single
    :meth:`~repro.core.engine.CompressDB.metrics` snapshot rather than
    poking component attributes; ``--json`` and ``--prom`` are the
    byte-stable exporter renderings of the same snapshot.
    """
    engine = _mount(args.image)
    snap = engine.metrics()
    _close(engine, flush=False)
    if args.json:
        from repro.obs.exporters import metrics_json

        print(metrics_json(snap))
        return 0
    if args.prom:
        from repro.obs.exporters import prometheus_text

        sys.stdout.write(prometheus_text(snap))
        return 0
    gauge = snap.gauge
    counter = snap.counter
    print(f"files:             {int(gauge('engine.space.files'))}")
    print(f"logical bytes:     {int(gauge('engine.space.logical_bytes'))}")
    print(f"physical bytes:    {int(gauge('engine.space.physical_bytes'))}")
    print(f"compression ratio: {gauge('engine.space.compression_ratio'):.3f}")
    print(f"unique blocks:     {int(gauge('engine.space.unique_blocks'))}")
    print(f"holes:             {int(gauge('engine.holes.count'))} "
          f"({int(gauge('engine.holes.bytes'))} bytes)")
    print(f"blockHashTable:    {int(gauge('engine.memory.blockhashtable_bytes'))} bytes")
    hits = counter("storage.device.cache.hits")
    lookups = hits + counter("storage.device.cache.misses")
    hit_rate = hits / lookups if lookups else 0.0
    print(f"page cache:        {hits}/{lookups} hits "
          f"({hit_rate:.1%})")
    print(f"batched reads:     {counter('storage.device.batched_reads')} ops "
          f"({counter('storage.device.batched_blocks_read')} blocks)")
    print(f"batched writes:    {counter('storage.device.batched_writes')} ops "
          f"({counter('storage.device.batched_blocks_written')} blocks)")
    print(f"dedup hits:        {counter('engine.compressor.dedup_hits')} "
          f"(in-place {counter('engine.compressor.in_place_updates')}, "
          f"CoW {counter('engine.compressor.cow_allocations')}, "
          f"fresh {counter('engine.compressor.fresh_allocations')})")
    print(f"sync points:       {counter('engine.checkpoints')} checkpoints "
          f"({counter('engine.checkpoint.image_bytes')} image bytes), "
          f"{counter('engine.delta.record_bytes')} delta-record bytes, "
          f"journal log {int(gauge('journal.log_used_blocks'))} blocks used")
    return 0


def cmd_trace(args) -> int:
    """Run a workload under global tracing; dump Chrome trace_event JSON.

    The target is either a Python script (run like ``python script.py``
    with the remaining arguments as its argv) or any other compressdb
    subcommand (``compressdb trace --out t.json search img /f needle``).
    Every Observability bundle constructed while the run is live adopts
    the shared tracer, so spans from independently created components —
    device, journal, engine, VFS, cluster nodes — land in one trace.
    """
    from repro.obs import disable_global_tracing, enable_global_tracing
    from repro.obs.exporters import chrome_trace_json

    if not args.workload:
        raise CLIError("trace needs a workload: a .py script or a subcommand")
    tracer = enable_global_tracing()
    try:
        if args.workload[0].endswith(".py"):
            import runpy

            saved_argv = sys.argv
            sys.argv = list(args.workload)
            try:
                runpy.run_path(args.workload[0], run_name="__main__")
            finally:
                sys.argv = saved_argv
            status = 0
        else:
            status = main(list(args.workload))
    finally:
        disable_global_tracing()
    spans = tracer.spans()
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(spans))
        handle.write("\n")
    print(f"wrote {len(spans)} span(s) to {args.out}", file=sys.stderr)
    return status


def cmd_wordcount(args) -> int:
    engine = _mount(args.image)
    counts = engine.ops.word_count(args.path)
    _close(engine, flush=False)
    for word, count in counts.most_common(args.top):
        print(f"{count:>8}  {word.decode('utf-8', errors='replace')}")
    return 0


def cmd_describe(args) -> int:
    engine = _mount(args.image)
    info = engine.describe(args.path)
    _close(engine, flush=False)
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


def cmd_fsck(args) -> int:
    engine = _mount(args.image)
    report = engine.fsck(repair=args.repair)
    # Verify-only runs must leave the image byte-identical.
    _close(engine, flush=args.repair)
    print(f"refcounts fixed:  {report['refcounts_fixed']}")
    print(f"blocks reclaimed: {report['blocks_reclaimed']}")
    print(f"hole errors:      {report['hole_inconsistencies']}")
    print(f"index entries:    {report['index_entries']}")
    violations = (
        report["refcounts_fixed"]
        + report["blocks_reclaimed"]
        + report["hole_inconsistencies"]
    )
    if violations and not args.repair:
        print(f"{violations} violation(s) found; run with --repair to fix")
        return 1
    return 0


def cmd_defrag(args) -> int:
    engine = _mount(args.image)
    saved = engine.defragment(args.path)
    _close(engine, flush=True)
    print(f"reclaimed {saved} slot(s)")
    return 0


def cmd_lint(args) -> int:
    """Run the reprolint static analyzer (see :mod:`repro.analysis`)."""
    from repro.analysis import CHECKER_REGISTRY, runner

    if args.list_rules:
        for rule_id, checker_cls in sorted(CHECKER_REGISTRY.items()):
            print(f"{rule_id}  [{checker_cls.severity.value}]  "
                  f"{checker_cls.description}")
        print("SUP001  [error]  suppression without a written justification")
        return 0
    if args.sanitize:
        return _lint_sanitize(args)
    try:
        report = runner.run_paths(args.paths, rules=args.rule or None)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if args.json:
        import os

        print(report.render_json(root=os.getcwd()))
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))
    return report.exit_code


def _lint_sanitize(args) -> int:
    """``repro lint --sanitize``: run the interleaving smoke test under the
    runtime sanitizer and cross-check observed lock order against the
    static lock-order graph."""
    from repro.analysis import build_program_for
    from repro.distributed import run_interleaved_sessions
    from repro.locks import (
        LockOrderSanitizer,
        check_agreement,
        install_sanitizer,
        uninstall_sanitizer,
    )
    from repro.distributed.cluster import build_replicated_cluster

    program = build_program_for(args.paths)
    static_edges = {
        (edge.outer, edge.inner)
        for edge in program.summaries.lock_order_edges()
    }
    sanitizer = LockOrderSanitizer(
        static_edges=static_edges, raise_on_violation=False
    )
    install_sanitizer(sanitizer)
    try:
        run_interleaved_sessions(
            sessions=3,
            rounds=2,
            sanitizer=sanitizer,
            cluster=build_replicated_cluster(nodes=3, masters=1, durable=True),
        )
    finally:
        uninstall_sanitizer()
    observed = sanitizer.observed_edges()
    problems = list(sanitizer.violations)
    problems += check_agreement(static_edges, observed)
    print(f"static lock-order edges:   {len(static_edges)}")
    print(f"observed lock-order edges: {len(observed)}")
    for outer, inner in sorted(observed):
        print(f"  {outer} -> {inner}")
    if problems:
        print(f"{len(problems)} problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("sanitizer: static and observed lock order agree")
    return 0


def cmd_snap(args) -> int:
    """Snapshot lifecycle: create / list / diff / rollback / clone / delete."""
    engine = _mount(args.image)
    try:
        if args.snap_command == "create":
            record = engine.snapshots.create(args.name)
            _close(engine, flush=True)
            print(
                f"snapshot {args.name!r}: {len(record.files)} file(s), "
                f"{record.logical_bytes} logical bytes frozen"
            )
        elif args.snap_command == "list":
            for name in engine.snapshots.names():
                record = engine.snapshots.get(name)
                print(
                    f"{record.snap_id:>4}  {len(record.files):>5} file(s)  "
                    f"{record.logical_bytes:>12}  {name}"
                )
            _close(engine, flush=False)
        elif args.snap_command == "delete":
            engine.snapshots.delete(args.name)
            _close(engine, flush=True)
            print(f"deleted snapshot {args.name!r}")
        elif args.snap_command == "rollback":
            engine.snapshots.rollback(args.name)
            _close(engine, flush=True)
            print(f"rolled back to snapshot {args.name!r}")
        elif args.snap_command == "clone":
            created = engine.snapshots.clone(args.name, args.dest)
            _close(engine, flush=True)
            print(
                f"cloned snapshot {args.name!r} -> {args.dest} "
                f"({len(created)} file(s), no data copied)"
            )
        else:  # diff
            entries = engine.snapshots.diff(args.base, args.target)
            _close(engine, flush=False)
            total = 0
            for entry in entries:
                total += entry.changed_bytes
                spans = ", ".join(
                    f"{extent.offset}+{extent.length}" for extent in entry.extents
                )
                print(f"{entry.change:<9} {entry.path}  [{spans}]")
            target_label = args.target if args.target else "live"
            print(
                f"{len(entries)} file(s) changed, {total} byte(s) "
                f"({args.base} -> {target_label})",
                file=sys.stderr,
            )
        return 0
    except BaseException:
        _close(engine, flush=False)
        raise


def _serving_stack(engine: CompressDB, args):
    """The framed-protocol server stack ``compressdb serve`` runs.

    Split from :func:`cmd_serve` so tests can exercise the wiring (tenant
    provisioning, admission config, socket front end) without the
    interactive sleep loop.
    """
    from repro.serving.server import Server, ServerConfig, TenantConfig
    from repro.serving.transport import FramedSocketServer

    config = ServerConfig(
        admission=not args.no_admission,
        default_rate_per_s=args.rate,
    )
    server = Server(engine=engine, config=config)
    for spec in args.tenant or ():
        # ``name`` or ``name:weight``, e.g. ``--tenant gold:4``.
        name, sep, weight = spec.partition(":")
        if not name:
            raise CLIError(f"invalid --tenant spec: {spec!r}")
        try:
            server.add_tenant(
                TenantConfig(name=name, weight=float(weight) if sep else 1.0)
            )
        except ValueError as exc:
            raise CLIError(f"invalid --tenant spec: {spec!r}") from exc
    # With no pre-provisioned tenants the socket auto-provisions on the
    # first HELLO — the single-user convenience mode.
    front = FramedSocketServer(
        server, args.socket, auto_provision=not args.tenant
    )
    return server, front


def cmd_serve(args) -> int:
    engine = _mount(args.image)
    try:
        __, front = _serving_stack(engine, args)
        front.start()
        print(f"serving {args.image} on {args.socket} (protocol v1); Ctrl-C to stop")
        try:  # pragma: no cover - interactive loop
            import time

            while True:
                time.sleep(1)
        except KeyboardInterrupt:  # pragma: no cover - interactive loop
            pass
        finally:
            front.stop()
        return 0
    finally:
        _close(engine, flush=True)


def cmd_cluster(args) -> int:
    """Replicated-metadata demo: build, load, kill the leader, recover."""
    import json

    from repro.distributed import build_replicated_cluster

    cluster = build_replicated_cluster(
        nodes=args.nodes,
        masters=args.masters,
        shards=args.shards,
        racks=args.racks,
        replication=args.replication,
        seed=args.seed,
    )
    client = cluster.client
    payload = b"the quick brown fox jumps over the lazy dog\n" * 64
    for index in range(args.files):
        client.write_file(f"/demo/file{index}.txt", payload)

    summary: dict = {
        "masters": args.masters,
        "shards": args.shards,
        "nodes": args.nodes,
        "files": args.files,
        "groups": [],
    }
    for number, group in enumerate(cluster.groups):
        leader = group.leader()
        before = leader.name if leader is not None else None
        killed = group.crash_leader()
        start = cluster.clock.now
        new_leader = group.elect()
        failover_s = cluster.clock.now - start
        group.restart(killed)
        for _ in range(30):
            group.tick()
        digests = group.state_digests()
        summary["groups"].append(
            {
                "group": number,
                "leader_before": before,
                "killed": killed,
                "leader_after": new_leader,
                "failover_s": round(failover_s, 6),
                "replicas_converged": len(set(digests.values())) == 1,
                "live": group.live_names(),
            }
        )
    # The data plane kept working across the failover.
    survived = all(
        client.read_file(f"/demo/file{index}.txt") == payload
        for index in range(args.files)
    )
    summary["data_intact"] = survived
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if survived and all(g["replicas_converged"] for g in summary["groups"]) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compressdb",
        description="CompressDB image tool: query and manipulate compressed data in place",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a new image")
    p.add_argument("image")
    p.add_argument("--block-size", type=int, default=1024)
    p.add_argument(
        "--journal-blocks",
        type=int,
        default=0,
        help="reserve a write-ahead journal of this many blocks "
        "(0 = unjournaled image)",
    )
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("put", help="store a host file in the image")
    p.add_argument("image")
    p.add_argument("source")
    p.add_argument("path")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="extract a file from the image")
    p.add_argument("image")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("ls", help="list files")
    p.add_argument("image")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("rm", help="remove a file")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("cp", help="reflink-clone a file (shares all blocks)")
    p.add_argument("image")
    p.add_argument("source")
    p.add_argument("dest")
    p.set_defaults(func=cmd_cp)

    for name, func, extra in (
        ("insert", cmd_insert, ("offset",)),
        ("replace", cmd_replace, ("offset",)),
        ("append", cmd_append, ()),
    ):
        p = sub.add_parser(name, help=f"{name} bytes directly in the compressed file")
        p.add_argument("image")
        p.add_argument("path")
        for argument in extra:
            p.add_argument(argument, type=int)
        p.add_argument("data", nargs="?")
        p.add_argument("--from-file")
        p.set_defaults(func=func)

    p = sub.add_parser("delete", help="delete a byte range in place")
    p.add_argument("image")
    p.add_argument("path")
    p.add_argument("offset", type=int)
    p.add_argument("length", type=int)
    p.set_defaults(func=cmd_delete)

    for name, func in (("search", cmd_search), ("count", cmd_count)):
        p = sub.add_parser(name, help=f"{name} a pattern over the compressed data")
        p.add_argument("image")
        p.add_argument("path")
        p.add_argument("pattern")
        p.set_defaults(func=func)

    p = sub.add_parser("stats", help="space and structure statistics")
    p.add_argument("image")
    p.add_argument(
        "--json", action="store_true", help="byte-stable JSON metrics snapshot"
    )
    p.add_argument(
        "--prom",
        action="store_true",
        help="Prometheus text exposition format",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace",
        help="run a script or subcommand under tracing, write Chrome JSON",
    )
    p.add_argument(
        "--out", default="trace.json", help="output file (chrome://tracing)"
    )
    p.add_argument(
        "workload",
        nargs=argparse.REMAINDER,
        help="a .py script (plus its argv) or any compressdb subcommand",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("describe", help="structural summary of one file")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("wordcount", help="word counts computed on the compressed form")
    p.add_argument("image")
    p.add_argument("path")
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=cmd_wordcount)

    p = sub.add_parser("fsck", help="verify and repair engine metadata")
    p.add_argument("image")
    p.add_argument(
        "--repair",
        action="store_true",
        help="restore invariants (default: verify only, exit 1 on violations)",
    )
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("defrag", help="rewrite a file without holes")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_defrag)

    p = sub.add_parser(
        "lint",
        help="run reprolint, the engine's invariant analyzer, over a tree",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    p.add_argument(
        "--rule",
        action="append",
        metavar="RULE",
        help="run only this rule (repeatable)",
    )
    p.add_argument("--json", action="store_true", help="stable JSON output")
    p.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run the multi-session interleaving smoke test under the "
        "runtime lock-order sanitizer and cross-check against the "
        "static lock-order graph",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("snap", help="point-in-time snapshots of the whole image")
    snap_sub = p.add_subparsers(dest="snap_command", required=True)

    q = snap_sub.add_parser("create", help="freeze the namespace (O(metadata))")
    q.add_argument("image")
    q.add_argument("name")
    q.set_defaults(func=cmd_snap)

    q = snap_sub.add_parser("list", help="list snapshots in creation order")
    q.add_argument("image")
    q.set_defaults(func=cmd_snap)

    q = snap_sub.add_parser("delete", help="drop a snapshot, freeing unshared blocks")
    q.add_argument("image")
    q.add_argument("name")
    q.set_defaults(func=cmd_snap)

    q = snap_sub.add_parser("rollback", help="reset the live namespace to a snapshot")
    q.add_argument("image")
    q.add_argument("name")
    q.set_defaults(func=cmd_snap)

    q = snap_sub.add_parser(
        "clone", help="materialise a snapshot as writable files (CoW, no copy)"
    )
    q.add_argument("image")
    q.add_argument("name")
    q.add_argument("dest", help="destination path prefix for the clone")
    q.set_defaults(func=cmd_snap)

    q = snap_sub.add_parser(
        "diff", help="changed files and block extents between snapshots"
    )
    q.add_argument("image")
    q.add_argument("base")
    q.add_argument(
        "target",
        nargs="?",
        default=None,
        help="second snapshot (default: the live namespace)",
    )
    q.set_defaults(func=cmd_snap)

    p = sub.add_parser(
        "serve", help="expose the image on a unix socket (framed protocol v1)"
    )
    p.add_argument("image")
    p.add_argument("socket")
    p.add_argument(
        "--tenant",
        action="append",
        metavar="NAME[:WEIGHT]",
        help="pre-provision a tenant (repeatable); omit to auto-provision "
        "tenants on their first HELLO",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-tenant admission rate in requests/s (default: unlimited)",
    )
    p.add_argument(
        "--no-admission",
        action="store_true",
        help="disable admission control (accept everything, queue unboundedly)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cluster",
        help="replicated-metadata demo: kill the Raft leader, prove recovery",
    )
    p.add_argument("--masters", type=int, default=3, help="replicas per master group")
    p.add_argument("--shards", type=int, default=1, help="consistent-hash metadata shards")
    p.add_argument("--nodes", type=int, default=5, help="chunk servers")
    p.add_argument("--racks", type=int, default=0, help="failure domains (0 = per-node)")
    p.add_argument("--replication", type=int, default=1, help="chunk replica goal")
    p.add_argument("--files", type=int, default=4, help="files written before the kill")
    p.add_argument("--seed", type=int, default=0, help="election-timeout RNG seed")
    p.set_defaults(func=cmd_cluster)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FSError, SnapshotError, sb.PersistenceError) as exc:
        # Engine/VFS failures are expected user-facing conditions (missing
        # path, bad range), not crashes — report, don't traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
