"""Benchmark-side span tracer: layer self time measured from outside.

``Tracer.install()`` replaces the public methods and functions of each
layer (``TARGETS`` below) with timing wrappers, at class or
module-attribute level; ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited and the program's own ``repro.obs``
tracer stays off — spans *inside* the program are a later issue.

Every wrapped call is a span.  A span's **self time** is its duration
minus the part covered by the spans it caused, so the self times of all
spans under one root add up to the root's duration.  Self time and call
counts are accumulated per layer as spans close; full span records
(name, layer, wall start/end, SimClock start/end, parent, request) are
kept only for the requests the harness samples — recording every span
of a 60k-request run would cost more memory than the program under
test — and are written as Chrome trace events when the workload ends.

Untraced code (``repro.storage.inode``, ``repro.databases.sstable``,
``repro.core.refcount`` …) has no layer of its own: its time counts as
self time of whichever layer called it.  Generator functions are traced
per resumption, so a scan's work is charged to the scanning layer, not
to whoever iterates the result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Optional

from . import spec

#: layer -> "module:Name" of each class or function whose calls count as
#: that layer.  ``module:*`` is every public function the module defines.
TARGETS: dict[str, tuple[str, ...]] = {
    "api": (
        "repro.api:connect",
        "repro.api:Client",
        "repro.api:KVHandle",
        "repro.api:SessionScope",
    ),
    "serving.client": (
        "repro.serving.client:*",
        "repro.serving.client:WireClient",
        "repro.serving.client:RemoteFS",
        "repro.serving.client:LoopbackTransport",
    ),
    "serving.protocol": (
        "repro.serving.protocol:*",
        "repro.serving.protocol:FrameDecoder",
    ),
    "serving.server": ("repro.serving.server:Server",),
    "serving.admission": (
        "repro.serving.admission:AdmissionController",
        "repro.serving.admission:TokenBucket",
        "repro.serving.admission:DeficitRoundRobin",
    ),
    "serving.namespace": (
        "repro.serving.namespace:*",
        "repro.serving.namespace:NamespaceFS",
        "repro.serving.namespace:QuotaLedger",
    ),
    "mvcc": (
        "repro.mvcc.manager:SessionManager",
        "repro.mvcc.session:Session",
        "repro.mvcc.versions:VersionStore",
    ),
    "databases.minisql": (
        "repro.databases.minisql:MiniSQL",
        "repro.databases.minisql:Table",
        "repro.databases.minisql:SecondaryIndex",
    ),
    "databases.minileveldb": ("repro.databases.minileveldb:MiniLevelDB",),
    "databases.minimongo": (
        "repro.databases.minimongo:MiniMongo",
        "repro.databases.minimongo:Collection",
    ),
    "databases.minicolumn": (
        "repro.databases.minicolumn:MiniColumn",
        "repro.databases.minicolumn:ColumnTable",
    ),
    "fs": (
        "repro.fs.vfs:FileSystem",
        "repro.fs.vfs:PassthroughFS",
        "repro.fs.compressfs:CompressFS",
        "repro.fs.sessionfs:SessionFS",
        "repro.fs.posix_ops:PushdownOperations",
        "repro.fs.posix_ops:PosixOperations",
    ),
    "core.engine": ("repro.core.engine:CompressDB",),
    "core.operations": ("repro.core.operations:OperationModule",),
    "core.compressor": ("repro.core.compressor:Compressor",),
    "core.hashtable": (
        "repro.core.hashtable:*",
        "repro.core.hashtable:BlockHashTable",
    ),
    "core.superblock": ("repro.core.superblock:*",),
    "storage.journal": (
        "repro.storage.journal:JournalDevice",
        "repro.storage.journal:Journal",
        "repro.storage.journal:Transaction",
    ),
    "storage.block_device": (
        "repro.storage.block_device:BlockDevice",
        "repro.storage.block_device:MemoryBlockDevice",
        "repro.storage.block_device:DeviceWrapper",
    ),
    "distributed.client": ("repro.distributed.client:ClusterClient",),
    "distributed.shardmap": (
        "repro.distributed.shardmap:ShardedMaster",
        "repro.distributed.shardmap:ShardMap",
        "repro.distributed.shardmap:ShardMapView",
    ),
    "distributed.replicated": (
        "repro.distributed.replicated:ReplicatedMaster",
        "repro.distributed.replicated:MasterGroup",
    ),
    "raft.node": ("repro.raft.node:RaftNode", "repro.raft.node:RaftTransport"),
    "raft.log": ("repro.raft.log:RaftLog",),
    "raft.statemachine": (
        "repro.raft.statemachine:*",
        "repro.raft.statemachine:MetadataStateMachine",
    ),
    "distributed.chunkserver": ("repro.distributed.chunkserver:ChunkServer",),
}

#: The VFS storage primitives are underscore-named but are the protocol
#: between file-system layers (NamespaceFS -> SessionFS -> CompressFS,
#: the wire server, the chunk servers all call them across modules), so
#: they are traced like public methods on every FileSystem subclass.
VFS_PRIMITIVES = frozenset(
    "_create _unlink _exists _size _pread _pwrite _preadv _pwritev "
    "_truncate _sync _list".split()
)

#: Layer of the harness's own per-request root span.
ROOT_LAYER = "run"


def _serve_frame_bytes(args: tuple, result: object) -> int:
    # Server.serve_frame(self, tenant, data) -> response bytes
    return len(args[2]) + len(result)  # type: ignore[arg-type]


def _image_bytes(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


#: Sizes read off traced calls: qualified name -> measure(args, result).
#: The program has no counter for either, so they are taken at the same
#: boundary the span is.
PROBES: dict[str, Callable[[tuple, object], int]] = {
    "repro.serving.server:Server.serve_frame": _serve_frame_bytes,
    "repro.core.superblock:serialize_metadata": _image_bytes,
}


class Tracer:
    """Installs the wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        self.layers: list[str] = list(spec.LAYERS) + [ROOT_LAYER]
        self._layer_index = {name: i for i, name in enumerate(self.layers)}
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.names: list[str] = []
        self.name_calls: list[int] = []
        #: probe name -> [sum, calls]
        self.probes: dict[str, list[int]] = {name: [0, 0] for name in PROBES}
        #: Wrappers pass straight through while this is False, so the
        #: tracer can be installed before set-up (every bound method the
        #: program stores is then a wrapper) and switched on for the
        #: timed phase only.
        self.active = False
        #: Whether spans of the current request are recorded in full.
        self.recording = False
        self.request = -1
        self.sim_now: Callable[[], float] = lambda: 0.0
        self.records: list[Optional[tuple]] = []
        self._current = -1
        # Frame = [seconds covered by child spans]; the bottom frame
        # collects the root spans.
        self._stack: list[list[float]] = [[0.0]]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """A traced version of ``fn`` (generators: one span per resume)."""
        layer_i = self._layer_index[layer]
        name_i = len(self.names)
        self.names.append(name)
        self.name_calls.append(0)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer_i, name_i)
        return self._wrap_call(fn, layer_i, name_i)

    def _wrap_call(self, fn: Callable, layer_i: int, name_i: int) -> Callable:
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        name_calls = self.name_calls
        records = self.records

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            recording = tracer.recording
            if recording:
                span_id = len(records)
                records.append(None)
                parent = tracer._current
                tracer._current = span_id
                sim_start = tracer.sim_now()
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self_s[layer_i] += duration - frame[0]
                calls[layer_i] += 1
                name_calls[name_i] += 1
                stack[-1][0] += duration
                if recording:
                    records[span_id] = (
                        name_i, layer_i, start, duration, parent,
                        tracer.request, sim_start, tracer.sim_now(),
                    )
                    tracer._current = parent

        return traced

    def _wrap_generator(self, fn: Callable, layer_i: int, name_i: int) -> Callable:
        advance = self._wrap_call(next, layer_i, name_i)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = advance(inner)
                    except StopIteration:
                        return
                    yield item
            finally:
                inner.close()

        return traced

    def _with_probe(self, fn: Callable, key: str) -> Callable:
        tracer = self
        cell = self.probes[key]
        measure = PROBES[key]

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                cell[0] += measure(args, result)
                cell[1] += 1
            return result

        return probed

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        from repro.fs.vfs import FileSystem

        for layer, targets in TARGETS.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                if attr == "*":
                    for name, fn in list(vars(module).items()):
                        if (
                            inspect.isfunction(fn)
                            and fn.__module__ == module_name
                            and not name.startswith("_")
                        ):
                            self._patch_function(module_name, name, fn, layer)
                    continue
                obj = getattr(module, attr)
                if inspect.isfunction(obj):
                    self._patch_function(module_name, attr, obj, layer)
                    continue
                is_vfs = issubclass(obj, FileSystem)
                for name, fn in list(vars(obj).items()):
                    if not inspect.isfunction(fn):
                        continue  # properties, class/static methods
                    if name.startswith("_") and not (is_vfs and name in VFS_PRIMITIVES):
                        continue
                    qualified = f"{module_name}:{attr}.{name}"
                    if qualified in PROBES:
                        fn = self._with_probe(fn, qualified)
                    self._set(obj, name, self.wrap(fn, layer, f"{attr}.{name}"))

    def _patch_function(self, module_name: str, name: str, fn: Callable, layer: str) -> None:
        qualified = f"{module_name}:{name}"
        inner = self._with_probe(fn, qualified) if qualified in PROBES else fn
        short = module_name.rsplit(".", 1)[-1]
        traced = self.wrap(inner, layer, f"{short}.{name}")
        # ``from module import name`` copies the binding, so every repro
        # module holding the original function object is rebound.
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is fn:
                    self._set(other, key, traced)

    def _set(self, owner: object, name: str, value: object) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- per-request control (called by the harness) ---------------------------
    def begin_request(self, request: int, record: bool) -> None:
        self.request = request
        self.recording = record
        self._current = -1

    # -- results -----------------------------------------------------------------
    @property
    def root_s(self) -> float:
        """Total duration of the root spans."""
        return self._stack[0][0]

    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(self.layers, self.self_s))

    def layer_calls(self) -> dict[str, int]:
        return dict(zip(self.layers, self.calls))

    def calls_named(self, name: str) -> int:
        return sum(n for span, n in zip(self.names, self.name_calls) if span == name)

    def write_chrome_trace(self, path: str, metadata: dict) -> int:
        """Write the recorded spans as Chrome trace events; returns count."""
        spans = [record for record in self.records if record is not None]
        origin = min((record[2] for record in spans), default=0.0)
        events = []
        for span_id, record in enumerate(self.records):
            if record is None:
                continue
            name_i, layer_i, start, duration, parent, request, sim_start, sim_end = record
            events.append(
                {
                    "name": self.names[name_i],
                    "cat": self.layers[layer_i],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "args": {
                        "span": span_id,
                        "parent": parent,
                        "request": request,
                        "sim_start_ms": sim_start * 1e3,
                        "sim_end_ms": sim_end * 1e3,
                    },
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)
        return len(events)
