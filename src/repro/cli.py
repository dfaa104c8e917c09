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

Each subcommand is one row of :data:`COMMANDS`, registered by
:func:`command`; :func:`build_parser` builds every subparser from the
table.  :func:`main` owns the lifetime of an image: it mounts the image,
runs the command, fsyncs (``engine.fsync``) only after a mutating
command succeeded, and closes the image whatever happened.  A mutating
command returns its report line, which is printed once the change is
durable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Optional

from repro.core import superblock as sb
from repro.core.engine import CompressDB
from repro.fs.errors import FSError
from repro.snap.manager import SnapshotError
from repro.storage.block_device import BlockDeviceError, FileBlockDevice


class CLIError(Exception):
    """User-facing command failure (bad arguments, missing files)."""


class Command(NamedTuple):
    """One subcommand: a row of :data:`COMMANDS`."""

    #: ``"put"``, or ``"snap create"`` for a subcommand of a group.
    name: str
    help: str
    #: ``run(args, engine)`` when ``image``, else ``run(args)``; returns
    #: the exit status, or a report line meaning success.
    run: Callable
    #: ``(flags, options)`` pairs for ``add_argument``, after ``image``.
    arguments: tuple
    #: Takes an image path as its first argument; :func:`main` mounts it.
    image: bool
    #: :func:`main` fsyncs the image once the command has succeeded.
    mutates: bool


#: Every subcommand, in ``--help`` order.
COMMANDS: list[Command] = []

#: Help lines of the commands that only group subcommands.
GROUPS = {"snap": "point-in-time snapshots of the whole image"}


def arg(*flags: str, **options) -> tuple:
    """One ``add_argument`` call of a :class:`Command` row."""
    return flags, options


def command(name: str, help: str, *arguments: tuple, image: bool = True,
            mutates: bool = False) -> Callable:
    """Register the decorated function as a row of :data:`COMMANDS`."""

    def register(run: Callable) -> Callable:
        COMMANDS.append(Command(name, help, run, arguments, image, mutates))
        return run

    return register


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
    try:
        return CompressDB.mount(device, journal_blocks=journal_blocks)
    except BaseException:
        device.close()
        raise


def _close(engine: CompressDB, flush: bool) -> None:
    try:
        if flush:
            engine.fsync()
    finally:
        # The engine may have wrapped the file device in a journal.
        device = getattr(engine.device, "inner", engine.device)
        if isinstance(device, FileBlockDevice):
            device.close()


@command(
    "init",
    "create a new image",
    arg("--block-size", type=int, default=1024),
    arg("--journal-blocks", type=int, default=0,
        help="reserve a write-ahead journal of this many blocks (0 = unjournaled image)"),
    mutates=True,
)
def cmd_init(args, engine: CompressDB) -> str:
    suffix = (
        f", journal {args.journal_blocks} blocks" if args.journal_blocks else ""
    )
    return f"initialised {args.image} (block size {args.block_size}{suffix})"


@command("put", "store a host file in the image", arg("source"), arg("path"), mutates=True)
def cmd_put(args, engine: CompressDB) -> str:
    with open(args.source, "rb") as handle:
        data = handle.read()
    engine.write_file(args.path, data)
    return f"stored {len(data)} bytes at {args.path}"


@command("get", "extract a file from the image", arg("path"), arg("-o", "--output"))
def cmd_get(args, engine: CompressDB) -> int:
    data = engine.read_file(args.path)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(data)
        print(f"wrote {len(data)} bytes to {args.output}")
    else:
        sys.stdout.buffer.write(data)
    return 0


@command("ls", "list files")
def cmd_ls(args, engine: CompressDB) -> int:
    for path in engine.list_files():
        print(f"{engine.file_size(path):>12}  {path}")
    return 0


@command("rm", "remove a file", arg("path"), mutates=True)
def cmd_rm(args, engine: CompressDB) -> str:
    engine.unlink(args.path)
    return f"removed {args.path}"


@command("cp", "reflink-clone a file (shares all blocks)", arg("source"), arg("dest"),
         mutates=True)
def cmd_cp(args, engine: CompressDB) -> str:
    engine.copy_file(args.source, args.dest)
    return f"cloned {args.source} -> {args.dest} (no data copied)"


def _edit_arguments(*offset: tuple) -> tuple:
    """``path [offset] [data] [--from-file F]``: the in-place edits."""
    return (arg("path"), *offset, arg("data", nargs="?"), arg("--from-file"))


def _payload(args) -> bytes:
    if getattr(args, "from_file", None):
        with open(args.from_file, "rb") as handle:
            return handle.read()
    if args.data is None:
        raise CLIError("provide DATA or --from-file")
    return args.data.encode("utf-8")


@command("insert", "insert bytes directly in the compressed file",
         *_edit_arguments(arg("offset", type=int)), mutates=True)
def cmd_insert(args, engine: CompressDB) -> str:
    data = _payload(args)
    engine.ops.insert(args.path, args.offset, data)
    return f"inserted {len(data)} bytes at offset {args.offset}"


@command("replace", "replace bytes directly in the compressed file",
         *_edit_arguments(arg("offset", type=int)), mutates=True)
def cmd_replace(args, engine: CompressDB) -> str:
    data = _payload(args)
    engine.ops.replace(args.path, args.offset, data)
    return f"replaced {len(data)} bytes at offset {args.offset}"


@command("append", "append bytes directly in the compressed file", *_edit_arguments(),
         mutates=True)
def cmd_append(args, engine: CompressDB) -> str:
    data = _payload(args)
    engine.ops.append(args.path, data)
    return f"appended {len(data)} bytes"


@command("delete", "delete a byte range in place", arg("path"), arg("offset", type=int),
         arg("length", type=int), mutates=True)
def cmd_delete(args, engine: CompressDB) -> str:
    engine.ops.delete(args.path, args.offset, args.length)
    return f"deleted {args.length} bytes at offset {args.offset}"


@command("search", "search a pattern over the compressed data", arg("path"), arg("pattern"))
def cmd_search(args, engine: CompressDB) -> int:
    offsets = engine.ops.search(args.path, args.pattern.encode("utf-8"))
    for offset in offsets:
        print(offset)
    print(f"{len(offsets)} occurrence(s)", file=sys.stderr)
    return 0


@command("count", "count a pattern over the compressed data", arg("path"), arg("pattern"))
def cmd_count(args, engine: CompressDB) -> int:
    print(engine.ops.count(args.path, args.pattern.encode("utf-8")))
    return 0


@command("stats", "space and structure statistics",
         arg("--json", action="store_true", help="byte-stable JSON metrics snapshot"),
         arg("--prom", action="store_true", help="Prometheus text exposition format"))
def cmd_stats(args, engine: CompressDB) -> int:
    """Render statistics from one metrics snapshot (DESIGN.md §9).

    Every figure — space gauges, cache hit rate, batching counters,
    compressor outcomes — comes out of a single
    :meth:`~repro.core.engine.CompressDB.metrics` snapshot rather than
    poking component attributes; ``--json`` and ``--prom`` are the
    byte-stable exporter renderings of the same snapshot.
    """
    snap = engine.metrics()
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


@command(
    "trace",
    "run a script or subcommand under tracing, write Chrome JSON",
    arg("--out", default="trace.json", help="output file (chrome://tracing)"),
    arg("workload", nargs=argparse.REMAINDER,
        help="a .py script (plus its argv) or any compressdb subcommand"),
    image=False,
)
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


@command("describe", "structural summary of one file", arg("path"))
def cmd_describe(args, engine: CompressDB) -> int:
    info = engine.describe(args.path)
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key.ljust(width)}  {value}")
    return 0


@command("wordcount", "word counts computed on the compressed form", arg("path"),
         arg("--top", type=int, default=20))
def cmd_wordcount(args, engine: CompressDB) -> int:
    counts = engine.ops.word_count(args.path)
    for word, count in counts.most_common(args.top):
        print(f"{count:>8}  {word.decode('utf-8', errors='replace')}")
    return 0


@command("fsck", "verify and repair engine metadata",
         arg("--repair", action="store_true",
             help="restore invariants (default: verify only, exit 1 on violations)"))
def cmd_fsck(args, engine: CompressDB) -> int:
    report = engine.fsck(repair=args.repair)
    # Verify-only runs must leave the image byte-identical, so this is
    # not a mutating row: only a repair is made durable.
    if args.repair:
        engine.fsync()
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


@command("defrag", "rewrite a file without holes", arg("path"), mutates=True)
def cmd_defrag(args, engine: CompressDB) -> str:
    return f"reclaimed {engine.defragment(args.path)} slot(s)"


@command(
    "lint",
    "run reprolint, the engine's invariant analyzer, over a tree",
    arg("paths", nargs="*", help="files or directories (default: the installed repro package)"),
    arg("--rule", action="append", metavar="RULE", help="run only this rule (repeatable)"),
    arg("--json", action="store_true", help="stable JSON output"),
    arg("--show-suppressed", action="store_true", help="also print suppressed findings"),
    arg("--list-rules", action="store_true", help="list registered rules and exit"),
    arg("--sanitize", action="store_true",
        help="run the multi-session interleaving smoke test under the runtime lock-order "
        "sanitizer and cross-check against the static lock-order graph"),
    image=False,
)
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


@command("snap create", "freeze the namespace (O(metadata))", arg("name"), mutates=True)
def cmd_snap_create(args, engine: CompressDB) -> str:
    record = engine.snapshots.create(args.name)
    return (
        f"snapshot {args.name!r}: {len(record.files)} file(s), "
        f"{record.logical_bytes} logical bytes frozen"
    )


@command("snap list", "list snapshots in creation order")
def cmd_snap_list(args, engine: CompressDB) -> int:
    for name in engine.snapshots.names():
        record = engine.snapshots.get(name)
        print(
            f"{record.snap_id:>4}  {len(record.files):>5} file(s)  "
            f"{record.logical_bytes:>12}  {name}"
        )
    return 0


@command("snap delete", "drop a snapshot, freeing unshared blocks", arg("name"), mutates=True)
def cmd_snap_delete(args, engine: CompressDB) -> str:
    engine.snapshots.delete(args.name)
    return f"deleted snapshot {args.name!r}"


@command("snap rollback", "reset the live namespace to a snapshot", arg("name"), mutates=True)
def cmd_snap_rollback(args, engine: CompressDB) -> str:
    engine.snapshots.rollback(args.name)
    return f"rolled back to snapshot {args.name!r}"


@command("snap clone", "materialise a snapshot as writable files (CoW, no copy)", arg("name"),
         arg("dest", help="destination path prefix for the clone"), mutates=True)
def cmd_snap_clone(args, engine: CompressDB) -> str:
    created = engine.snapshots.clone(args.name, args.dest)
    return (
        f"cloned snapshot {args.name!r} -> {args.dest} "
        f"({len(created)} file(s), no data copied)"
    )


@command("snap diff", "changed files and block extents between snapshots", arg("base"),
         arg("target", nargs="?", default=None,
             help="second snapshot (default: the live namespace)"))
def cmd_snap_diff(args, engine: CompressDB) -> int:
    entries = engine.snapshots.diff(args.base, args.target)
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


@command(
    "serve",
    "expose the image on a unix socket (framed protocol v1)",
    arg("socket"),
    arg("--tenant", action="append", metavar="NAME[:WEIGHT]",
        help="pre-provision a tenant (repeatable); omit to auto-provision tenants on their "
        "first HELLO"),
    arg("--rate", type=float, default=None,
        help="per-tenant admission rate in requests/s (default: unlimited)"),
    arg("--no-admission", action="store_true",
        help="disable admission control (accept everything, queue unboundedly)"),
    mutates=True,
)
def cmd_serve(args, engine: CompressDB) -> int:
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


@command(
    "cluster",
    "replicated-metadata demo: kill the Raft leader, prove recovery",
    arg("--masters", type=int, default=3, help="replicas per master group"),
    arg("--shards", type=int, default=1, help="consistent-hash metadata shards"),
    arg("--nodes", type=int, default=5, help="chunk servers"),
    arg("--racks", type=int, default=0, help="failure domains (0 = per-node)"),
    arg("--replication", type=int, default=1, help="chunk replica goal"),
    arg("--files", type=int, default=4, help="files written before the kill"),
    arg("--seed", type=int, default=0, help="election-timeout RNG seed"),
    image=False,
)
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
    groups: dict[str, argparse._SubParsersAction] = {}
    for row in COMMANDS:
        group, __, name = row.name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                dest=f"{group}_command", required=True
            )
        p = (groups[group] if group else sub).add_parser(name, help=row.help)
        if row.image:
            p.add_argument("image")
        for flags, options in row.arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(row=row)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    row: Command = args.row
    try:
        if not row.image:
            return row.run(args)
        engine = _mount(
            args.image,
            getattr(args, "block_size", 1024),
            getattr(args, "journal_blocks", None),
        )
        succeeded = False
        try:
            result = row.run(args, engine)
            succeeded = True
        finally:
            # A failed command is never made durable; the image is
            # closed even when the fsync itself raises.
            _close(engine, flush=succeeded and row.mutates)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        FileNotFoundError, FSError, SnapshotError, sb.PersistenceError, BlockDeviceError
    ) as exc:
        # Engine/VFS failures are expected user-facing conditions (missing
        # path, bad range, a file that is no image), not crashes — report,
        # don't traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        print(result)
        return 0
    return result


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
