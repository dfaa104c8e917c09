"""The multi-tenant serving layer (DESIGN.md §14).

:class:`Backend` is the one implementation of the client surface: the
op methods of :class:`~repro.serving.client.WireClient`, with its
signatures, over one file system.  :func:`repro.api.connect` builds one
over the caller's CompressFS; a :class:`Server` fronts one CompressDB
engine for many tenants, each a :class:`TenantBackend` provisioned with
a :class:`TenantConfig` (namespace quotas, a fair-share weight, an
admission rate), which differs only in where it runs: in a private
:class:`~repro.serving.namespace.NamespaceFS` rooted at ``/t/<tenant>/``
(no request can name another tenant's files), with MVCC sessions
composed as ``NamespaceFS(SessionFS(base, session))`` so transactional
writes stay namespaced *and* quota-charged (provisionally, folded on
commit).  Per-tenant SLO tracking (:class:`~repro.serving.slo.TenantSLO`)
lives in the shared metrics registry.

Each protocol-v1 opcode handler unpacks its payload, makes one call on
the tenant's backend and packs the reply.  Two serving paths share
that dispatch table:

* :meth:`Server.serve_frame` — the synchronous wire path: decode one
  protocol-v1 frame, admit (token bucket only), execute, answer with a
  response or error frame.  Transfer time for both directions is
  charged to the engine's :class:`~repro.storage.simclock.SimClock`.
* :meth:`Server.run_open_loop` — the benchmark path: an open-loop
  arrival schedule is pushed through full admission control (bucket +
  queue bounds) and the deficit-round-robin fair scheduler, with
  latency measured arrival-to-completion in simulated time.

Every frame error is answered, never thrown at the transport: the
handler result or exception is mapped through
:func:`repro.fs.errors.wire_error_payload` onto the stable code table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.locks import LOCK_TIERS, TrackedLock
from repro.databases.minicolumn import MiniColumn
from repro.databases.minileveldb import MiniLevelDB
from repro.databases.minisql import MiniSQL
from repro.fs.compressfs import CompressFS
from repro.fs import fd as fdmod
from repro.fs.errors import (
    FileNotFound,
    InvalidArgument,
    PermissionDenied,
    TryAgain,
    wire_error_payload,
)
from repro.fs.sessionfs import SessionFS
from repro.fs.vfs import FileSystem
from repro.mvcc.session import SessionClosed
from repro.serving import protocol
from repro.serving.admission import AdmissionController, DeficitRoundRobin
from repro.serving.namespace import NamespaceFS, QuotaLedger, seed_ledger
from repro.serving.protocol import (
    FLAG_ERROR,
    FLAG_RESPONSE,
    OPCODE_NAMES,
    OPCODES,
    encode_frame,
    pack_payload,
)
from repro.serving.slo import TenantSLO
from repro.storage.simclock import DATACENTER_LAN, NetworkProfile, Stopwatch

#: kind -> (front end, directory): the one database layout of every
#: backend, so data written in-process is served unchanged when a
#: Server is pointed at the same image (under the tenant root).
DATABASES = {
    "sql": (MiniSQL, "/sql"),
    "kv": (MiniLevelDB, "/kv"),
    "column": (MiniColumn, "/col"),
}


@dataclass(frozen=True)
class TenantConfig:
    """Provisioning record for one tenant."""

    name: str
    weight: float = 1.0
    quota_bytes: Optional[int] = None
    quota_inodes: Optional[int] = None
    fd_limit: Optional[int] = None
    #: Admission token rate; ``None`` inherits the server default.
    rate_per_s: Optional[float] = None
    burst: float = 8.0


@dataclass(frozen=True)
class ServerConfig:
    """Server-wide policy knobs."""

    network: NetworkProfile = DATACENTER_LAN
    admission: bool = True
    per_tenant_queue_limit: int = 64
    #: Bound on total queued estimated service time; the lever that
    #: keeps accepted p99 within a multiple of uncontended p99.
    max_queue_delay_s: Optional[float] = 0.02
    #: Default per-tenant token rate when the tenant does not set one;
    #: ``None`` means no rate limit (queue bounds still apply).
    default_rate_per_s: Optional[float] = None


@dataclass
class ServingRequest:
    """One open-loop request: what arrives, and when."""

    arrival_s: float
    tenant: str
    opcode: int
    payload: dict
    request_id: int = 0
    wire_bytes: int = field(default=0, repr=False)

    def sized(self) -> "ServingRequest":
        if self.wire_bytes == 0:
            self.wire_bytes = protocol.HEADER_BYTES + len(pack_payload(self.payload))
        return self


class _Payload(dict):
    """A request body: reading a field the client did not send is the
    client's error (EINVAL), not a server fault."""

    def __missing__(self, key: str):
        raise InvalidArgument(f"missing required field {key!r}")


class Backend:
    """The client surface over one file system.

    Its op methods have exactly
    :class:`~repro.serving.client.WireClient`'s signatures (sessions
    are named by their integer id on both), so :class:`repro.api.Client`
    holds either.  Databases open lazily, once per kind for the
    sessionless view and once per kind for each open session.
    """

    def __init__(self, fs: CompressFS) -> None:
        self.engine = fs.engine
        #: The view sessionless requests run in.
        self._root: FileSystem = fs
        self._dbs: dict[str, object] = {}
        #: session id -> (session, its file-system view, its database front ends)
        self._sessions: dict[int, tuple] = {}

    def _open(self, session: int) -> tuple:
        entry = self._sessions.get(session)
        if entry is None:
            raise SessionClosed(f"no open session {session}")
        return entry

    def _session_fs(self, session) -> FileSystem:
        """A new session's view of :attr:`_root`."""
        return SessionFS(self._root, session)

    def _detach(self, session: int) -> tuple:
        """Take ``session`` out of the table; the caller finishes it."""
        self._open(session)  # SessionClosed unless it is open
        return self._sessions.pop(session)

    def fs(self, session: Optional[int] = None) -> FileSystem:
        return self._root if session is None else self._open(session)[1]

    # -- sessions -------------------------------------------------------------
    def session_begin(self) -> int:
        session = self.engine.mvcc.begin()
        self._sessions[session.session_id] = (session, self._session_fs(session), {})
        return session.session_id

    def session_commit(self, session: int) -> dict:
        ticket = self._detach(session)[0].commit()
        return {
            "csn": ticket.csn,
            "durable": ticket.durable,
            "read_only": ticket.read_only,
        }

    def session_abort(self, session: int) -> dict:
        handle = self._detach(session)[0]
        if handle.active:
            self.engine.mvcc.abort(handle, "client abort")
        return {"aborted": True}

    def goodbye(self) -> dict:
        """The connection is closing: abort every session still open."""
        aborted = 0
        for session in list(self._sessions):
            handle = self._detach(session)[0]
            if handle.active:
                self.engine.mvcc.abort(handle, "connection closed")
                aborted += 1
        return {"sessions_aborted": aborted, "fds_released": 0}

    # -- databases ------------------------------------------------------------
    def _db(self, kind: str, session: Optional[int]) -> object:
        cache = self._dbs if session is None else self._open(session)[2]
        found = cache.get(kind)
        if found is None:
            front_end, directory = DATABASES[kind]
            found = cache[kind] = front_end(self.fs(session), directory=directory)
        return found

    def sql(self, sql: str, session: Optional[int] = None) -> list[dict]:
        return self._db("sql", session).execute(sql)

    def column(self, sql: str, session: Optional[int] = None) -> list[dict]:
        return self._db("column", session).execute(sql)

    def kv_put(self, key: bytes, value: bytes, session: Optional[int] = None) -> None:
        self._db("kv", session).put(key, value)

    def kv_get(self, key: bytes, session: Optional[int] = None) -> Optional[bytes]:
        return self._db("kv", session).get(key)

    def kv_delete(self, key: bytes, session: Optional[int] = None) -> None:
        self._db("kv", session).delete(key)

    def kv_scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: Optional[int] = None,
        session: Optional[int] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        if limit is not None and limit < 0:
            raise InvalidArgument(f"scan limit must be >= 0, got {limit}")
        return itertools.islice(self._db("kv", session).scan(start, end), limit)

    # -- compressed-domain pushdown -------------------------------------------
    def _ops_path(self, path: str) -> str:
        """``path`` as the engine names it; a missing file is FileNotFound."""
        if not self._root._exists(path):
            raise FileNotFound(path)
        return path

    def search(self, path: str, pattern: bytes) -> list[int]:
        return self.engine.ops.search(self._ops_path(path), pattern)

    def count(self, path: str, pattern: bytes) -> int:
        return self.engine.ops.count(self._ops_path(path), pattern)

    def insert(self, path: str, offset: int, data: bytes) -> None:
        self.engine.ops.insert(self._ops_path(path), offset, data)

    def delete(self, path: str, offset: int, length: int) -> None:
        self.engine.ops.delete(self._ops_path(path), offset, length)

    def word_count(self, path: str) -> dict[bytes, int]:
        return dict(self.engine.ops.word_count(self._ops_path(path)))


class TenantBackend(Backend):
    """One provisioned tenant: a :class:`Backend` inside its quota-charged
    :class:`NamespaceFS`, whose sessions charge a provisional ledger
    folded in at commit, whose pushdown meters insert/delete, and whose
    goodbye force-closes the namespace's descriptors."""

    def __init__(self, fs: CompressFS, config: TenantConfig, slo: TenantSLO) -> None:
        super().__init__(fs)
        self.config = config
        self.slo = slo
        self.ledger = QuotaLedger(
            quota_bytes=config.quota_bytes, quota_inodes=config.quota_inodes
        )
        self.ns = self._root = NamespaceFS(
            fs, config.name, ledger=self.ledger, fd_limit=config.fd_limit
        )
        seed_ledger(fs, self.ns.root, self.ledger)

    def _session_fs(self, session) -> NamespaceFS:
        return NamespaceFS(
            SessionFS(self.ns.base, session),
            self.config.name,
            ledger=self.ledger.provisional(),
            fd_limit=self.config.fd_limit,
        )

    def _detach(self, session: int) -> tuple:
        entry = super()._detach(session)
        # The view's own descriptors; the SessionFS below it frees its own.
        entry[1].release_fds()
        return entry

    def session_commit(self, session: int) -> dict:
        view = self.fs(session)
        reply = super().session_commit(session)
        # On WriteConflict the provisional ledger is simply dropped —
        # its charges never reached the committed ledger.
        view.ledger.fold()
        return reply

    def goodbye(self) -> dict:
        return {**super().goodbye(), "fds_released": self.ns.release_fds()}

    def _ops_path(self, path: str) -> str:
        return self.ns._map(super()._ops_path(path))

    def insert(self, path: str, offset: int, data: bytes) -> None:
        self.ledger.charge(bytes_delta=len(data))
        try:
            super().insert(path, offset, data)
        except BaseException:
            self.ledger.charge(bytes_delta=-len(data))
            raise

    def delete(self, path: str, offset: int, length: int) -> None:
        super().delete(path, offset, length)
        self.ledger.charge(bytes_delta=-length)


class Server:
    """The serving layer: namespaces, admission, scheduling, dispatch."""

    def __init__(
        self,
        engine=None,
        fs: Optional[CompressFS] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        if fs is None:
            fs = CompressFS() if engine is None else CompressFS(engine=engine)
        self.fs = fs
        self.engine = fs.engine
        self.config = config if config is not None else ServerConfig()
        self.clock = self.engine.device.clock
        self.registry = self.engine.obs.registry
        self.admission = AdmissionController(
            enabled=self.config.admission,
            per_tenant_queue_limit=self.config.per_tenant_queue_limit,
            max_queue_delay_s=self.config.max_queue_delay_s,
        )
        self.scheduler = DeficitRoundRobin()
        self._tenants: dict[str, TenantBackend] = {}
        self._lock = TrackedLock("serving.state", rank=LOCK_TIERS["serving"])
        self._c_requests = self.registry.counter("serving.server.requests")
        self._c_shed = self.registry.counter("serving.server.shed")
        self._c_errors = self.registry.counter("serving.server.errors")
        self._g_tenants = self.registry.gauge("serving.server.tenants")
        # One ``_op_<name>`` method per protocol opcode; an opcode
        # without a handler fails here, not at its first request.
        self._handlers: dict[int, Callable[[TenantBackend, dict], dict]] = {
            code: getattr(self, f"_op_{name.lower()}")
            for name, code in OPCODES.items()
        }

    # -- provisioning ---------------------------------------------------------
    def add_tenant(self, config: TenantConfig | str, **overrides) -> TenantConfig:
        """Provision a tenant; returns the effective configuration."""
        if isinstance(config, str):
            config = TenantConfig(name=config, **overrides)
        elif overrides:
            raise InvalidArgument("pass overrides only with a tenant name")
        if config.name in self._tenants:
            raise InvalidArgument(f"tenant {config.name!r} already provisioned")
        slo = TenantSLO(self.registry, config.name)
        with self._lock:
            self._tenants[config.name] = TenantBackend(self.fs, config, slo)
            self.scheduler.lane(config.name, weight=config.weight)
            rate = (
                config.rate_per_s
                if config.rate_per_s is not None
                else self.config.default_rate_per_s
            )
            if rate is not None:
                self.admission.configure_tenant(config.name, rate, config.burst)
            self._g_tenants.set(len(self._tenants))
        return config

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    def _state(self, tenant: str) -> TenantBackend:
        state = self._tenants.get(tenant)
        if state is None:
            raise PermissionDenied(f"tenant {tenant!r} is not provisioned")
        return state

    # -- dispatch -------------------------------------------------------------
    def handle(self, tenant: str, opcode: int, payload: dict) -> dict:
        """Execute one request body; raises on failure.

        The shared core of both serving paths: namespaced,
        quota-enforced, but *not* admission controlled — callers
        decide whether and how to admit.  With tracing on, the
        request is one ``serving.handle`` span.
        """
        handler = self._handlers.get(opcode)
        if handler is None:
            raise protocol.UnknownOpcode(
                f"opcode 0x{opcode:02X} is not in protocol "
                f"v{protocol.PROTOCOL_VERSION}"
            )
        backend = self._state(tenant)
        with self._lock, self.engine.obs.tracer.span(
            "serving.handle", tenant=tenant, opcode=OPCODE_NAMES[opcode]
        ):
            return handler(backend, _Payload(payload))

    def serve_frame(self, tenant: str, data: bytes) -> bytes:
        """The wire path: one request frame in, one response frame out."""
        self._c_requests.inc()
        network = self.config.network
        self.clock.charge_transfer(network, len(data))
        try:
            frame, _end = protocol.decode_frame(data)
        except protocol.ProtocolError as exc:
            # The request id may be unrecoverable; answer on id 0.
            self._c_errors.inc()
            return self._respond(0, 0, wire_error_payload(exc), error=True)
        state = None
        try:
            state = self._state(tenant)
            shed = self.admission.admit(
                tenant, self.clock.now, tenant_queued=0, queued_cost_s=0.0
            )
            if shed is not None:
                raise TryAgain(shed.reason, retry_after_ms=shed.retry_after_s * 1e3)
            state.slo.on_accept()
            watch = Stopwatch(self.clock)
            result = self.handle(tenant, frame.opcode, frame.payload)
            response = self._respond(frame.opcode, frame.request_id, result)
            self.scheduler.observe_cost(tenant, watch.elapsed)
            state.slo.on_complete(watch.elapsed)
            return response
        except BaseException as exc:
            self._c_errors.inc()
            if state is not None:
                if isinstance(exc, TryAgain):
                    state.slo.on_shed()
                    self._c_shed.inc()
                else:
                    state.slo.errors.inc()
            return self._respond(
                frame.opcode, frame.request_id, wire_error_payload(exc), error=True
            )

    def _respond(
        self, opcode: int, request_id: int, payload: dict, error: bool = False
    ) -> bytes:
        flags = FLAG_RESPONSE | (FLAG_ERROR if error else 0)
        response = encode_frame(opcode, request_id, payload, flags)
        self.clock.charge_transfer(self.config.network, len(response))
        return response

    # -- open-loop serving ----------------------------------------------------
    def run_open_loop(self, requests: list[ServingRequest]) -> dict[str, dict]:
        """Serve an open-loop arrival schedule; per-tenant outcomes.

        Arrivals are admitted at their arrival instants regardless of
        how far behind the server is (that is what *open loop* means);
        admitted requests queue in the fair scheduler and latency runs
        from arrival to completion on the simulated clock.
        """
        results: dict[str, dict] = {
            name: {"latencies": [], "accepted": 0, "shed": 0, "errors": 0}
            for name in self._tenants
        }

        def serve_one() -> bool:
            item = self.scheduler.next()
            if item is None:
                return False
            tenant, req = item
            state = self._tenants[tenant]
            state.slo.queue_depth.set(self.scheduler.queued(tenant))
            # The stopwatch must cover the *whole* per-request server
            # occupancy — read the request, execute, write the response
            # — because its reading feeds the scheduler's cost
            # estimates, and those price the queue-delay bound.
            watch = Stopwatch(self.clock)
            self.clock.charge_transfer(self.config.network, req.sized().wire_bytes)
            error = False
            try:
                result = self.handle(tenant, req.opcode, req.payload)
            except BaseException as exc:
                error = True
                self._c_errors.inc()
                result = wire_error_payload(exc)
            self.clock.charge_transfer(
                self.config.network,
                protocol.HEADER_BYTES + len(pack_payload(result)),
            )
            self.scheduler.observe_cost(tenant, watch.elapsed)
            latency = self.clock.now - req.arrival_s
            state.slo.on_complete(latency, error=error)
            outcome = results[tenant]
            outcome["latencies"].append(latency)
            if error:
                outcome["errors"] += 1
            return True

        for req in sorted(requests, key=lambda r: r.arrival_s):
            while self.scheduler.queued() and self.clock.now < req.arrival_s:
                serve_one()
            if self.clock.now < req.arrival_s:
                self.clock.charge(req.arrival_s - self.clock.now)
            self._c_requests.inc()
            state = self._state(req.tenant)
            shed = self.admission.admit(
                req.tenant,
                now=req.arrival_s,
                tenant_queued=self.scheduler.queued(req.tenant),
                queued_cost_s=self.scheduler.queued_cost(),
            )
            if shed is not None:
                self._c_shed.inc()
                state.slo.on_shed()
                results[req.tenant]["shed"] += 1
                continue
            state.slo.on_accept()
            results[req.tenant]["accepted"] += 1
            self.scheduler.enqueue(req.tenant, req)
        while serve_one():
            pass
        for name, state in self._tenants.items():
            state.slo.queue_depth.set(0)
        return results

    def report(self) -> list[dict]:
        """Per-tenant SLO summaries, sorted by tenant name."""
        return [self._tenants[name].slo.report() for name in sorted(self._tenants)]

    # -- handlers: one backend call each --------------------------------------
    def _op_hello(self, tenant: TenantBackend, payload: dict) -> dict:
        return {
            "server": "compressdb-serving",
            "protocol": protocol.PROTOCOL_VERSION,
            "tenant": tenant.config.name,
            "root": tenant.ns.root,
            "block_size": self.engine.block_size,
        }

    def _op_ping(self, tenant: TenantBackend, payload: dict) -> dict:
        return {"pong": True, "time_s": self.clock.now}

    def _op_goodbye(self, tenant: TenantBackend, payload: dict) -> dict:
        return tenant.goodbye()

    def _op_fs_open(self, tenant: TenantBackend, payload: dict) -> dict:
        fs = tenant.fs(payload.get("session"))
        fd = fs.open(payload["path"], payload.get("flags", fdmod.O_RDONLY))
        return {"fd": fd}

    def _op_fs_close(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.fs(payload.get("session")).close(payload["fd"])
        return {"ok": True}

    def _op_fs_pread(self, tenant: TenantBackend, payload: dict) -> dict:
        fs = tenant.fs(payload.get("session"))
        offset, size = payload["offset"], payload["size"]
        if "fd" in payload:
            data = fs.pread(payload["fd"], size, offset)
        else:
            data = fs._pread(payload["path"], offset, size)
        return {"data": data}

    def _op_fs_pwrite(self, tenant: TenantBackend, payload: dict) -> dict:
        fs = tenant.fs(payload.get("session"))
        offset, data = payload["offset"], payload["data"]
        if "fd" in payload:
            written = fs.pwrite(payload["fd"], data, offset)
        else:
            if not fs._exists(payload["path"]):
                raise FileNotFound(payload["path"])
            written = fs._pwrite(payload["path"], offset, data)
        return {"written": written}

    def _op_fs_create(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.fs(payload.get("session"))._create(payload["path"])
        return {"ok": True}

    def _op_fs_read_file(self, tenant: TenantBackend, payload: dict) -> dict:
        return {"data": tenant.fs(payload.get("session")).read_file(payload["path"])}

    def _op_fs_write_file(self, tenant: TenantBackend, payload: dict) -> dict:
        data = payload["data"]
        tenant.fs(payload.get("session")).write_file(payload["path"], data)
        return {"written": len(data)}

    def _op_fs_unlink(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.fs(payload.get("session")).unlink(payload["path"])
        return {"ok": True}

    def _op_fs_stat(self, tenant: TenantBackend, payload: dict) -> dict:
        st = tenant.fs(payload.get("session")).stat(payload["path"])
        return {"path": st.path, "size": st.size, "blocks": st.blocks}

    def _op_fs_list(self, tenant: TenantBackend, payload: dict) -> dict:
        fs = tenant.fs(payload.get("session"))
        return {"paths": fs.listdir(payload.get("prefix", ""))}

    def _op_fs_rename(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.fs(payload.get("session")).rename(payload["old"], payload["new"])
        return {"ok": True}

    def _op_fs_truncate(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.fs(payload.get("session"))._truncate(payload["path"], payload["size"])
        return {"ok": True}

    def _op_fs_fsync(self, tenant: TenantBackend, payload: dict) -> dict:
        fs = tenant.fs(payload.get("session"))
        if "fd" in payload:
            fs.fsync(payload["fd"])
        else:
            fs._sync(payload["path"])
        return {"ok": True}

    def _op_session_begin(self, tenant: TenantBackend, payload: dict) -> dict:
        session = tenant.session_begin()
        return {"session": session, "snapshot_csn": tenant._open(session)[0].snapshot_csn}

    def _op_session_commit(self, tenant: TenantBackend, payload: dict) -> dict:
        return tenant.session_commit(payload["session"])

    def _op_session_abort(self, tenant: TenantBackend, payload: dict) -> dict:
        return tenant.session_abort(payload["session"])

    def _op_sql_execute(self, tenant: TenantBackend, payload: dict) -> dict:
        return {"rows": tenant.sql(payload["sql"], payload.get("session"))}

    def _op_column_execute(self, tenant: TenantBackend, payload: dict) -> dict:
        return {"rows": tenant.column(payload["sql"], payload.get("session"))}

    # Aggregates push down to the column store's compressed-domain
    # vectorized executor; a separate opcode keeps the intent (and
    # future pushdown telemetry) visible on the wire.
    _op_aggregate = _op_column_execute

    def _op_kv_put(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.kv_put(payload["key"], payload["value"], payload.get("session"))
        return {"ok": True}

    def _op_kv_get(self, tenant: TenantBackend, payload: dict) -> dict:
        value = tenant.kv_get(payload["key"], payload.get("session"))
        return {"value": value, "found": value is not None}

    def _op_kv_delete(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.kv_delete(payload["key"], payload.get("session"))
        return {"ok": True}

    def _op_kv_scan(self, tenant: TenantBackend, payload: dict) -> dict:
        get = payload.get
        items = tenant.kv_scan(get("start"), get("end"), get("limit"), get("session"))
        return {"items": [[key, value] for key, value in items]}

    def _op_ops_search(self, tenant: TenantBackend, payload: dict) -> dict:
        return {"offsets": tenant.search(payload["path"], payload["pattern"])}

    def _op_ops_count(self, tenant: TenantBackend, payload: dict) -> dict:
        return {"count": tenant.count(payload["path"], payload["pattern"])}

    def _op_ops_insert(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.insert(payload["path"], payload["offset"], payload["data"])
        return {"ok": True}

    def _op_ops_delete(self, tenant: TenantBackend, payload: dict) -> dict:
        tenant.delete(payload["path"], payload["offset"], payload["length"])
        return {"ok": True}

    def _op_ops_word_count(self, tenant: TenantBackend, payload: dict) -> dict:
        counts = tenant.word_count(payload["path"])
        # Payload dict keys must be str; words are bytes.
        return {"counts": [[word, n] for word, n in sorted(counts.items())]}
