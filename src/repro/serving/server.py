"""The multi-tenant serving layer (DESIGN.md §14).

One :class:`Server` fronts one CompressDB engine for many tenants.
Each tenant is provisioned with a :class:`TenantConfig` — namespace
quotas, a fair-share weight, an admission rate — and gets:

* a private :class:`~repro.serving.namespace.NamespaceFS` rooted at
  ``/t/<tenant>/`` (no request can name another tenant's files),
* snapshot-isolated MVCC sessions composed as
  ``NamespaceFS(SessionFS(base, session))`` so transactional writes
  stay namespaced *and* quota-charged (provisionally, folded on
  commit),
* lazily constructed MiniSQL / MiniLevelDB / MiniColumn front ends
  rooted inside its namespace,
* SLO tracking (:class:`~repro.serving.slo.TenantSLO`) in the shared
  metrics registry.

Two serving paths share one dispatch table:

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

from dataclasses import dataclass, field
from typing import Callable, Optional

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
    OPCODES,
    encode_frame,
    pack_payload,
)
from repro.serving.slo import TenantSLO
from repro.storage.simclock import DATACENTER_LAN, NetworkProfile, Stopwatch

#: kind -> (front end, directory): the one database layout of both
#: deployments, so data written in-process is served unchanged when a
#: Server is pointed at the same image (under the tenant root).
DATABASES = {
    "sql": (MiniSQL, "/sql"),
    "kv": (MiniLevelDB, "/kv"),
    "column": (MiniColumn, "/col"),
}


def open_database(kind: str, fs: FileSystem):
    """The ``kind`` front end over ``fs``, in its place in the layout."""
    front_end, directory = DATABASES[kind]
    return front_end(fs, directory=directory)


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


@dataclass
class _SessionView:
    """One open MVCC session's server-side state."""

    session: object
    fs: NamespaceFS
    ledger: QuotaLedger
    dbs: dict = field(default_factory=dict)


class _TenantState:
    """Everything the server holds for one provisioned tenant."""

    def __init__(
        self, server: "Server", config: TenantConfig, slo: TenantSLO
    ) -> None:
        self.config = config
        self.ledger = QuotaLedger(
            quota_bytes=config.quota_bytes, quota_inodes=config.quota_inodes
        )
        self.ns = NamespaceFS(
            server.fs, config.name, ledger=self.ledger, fd_limit=config.fd_limit
        )
        seed_ledger(server.fs, self.ns.root, self.ledger)
        self.slo = slo
        self.sessions: dict[int, _SessionView] = {}
        self._dbs: dict[str, object] = {}

    def fs_view(self, session_id: Optional[int]) -> FileSystem:
        if session_id is None:
            return self.ns
        return self.session_view(session_id).fs

    def session_view(self, session_id: int) -> _SessionView:
        view = self.sessions.get(session_id)
        if view is None:
            raise SessionClosed(
                f"tenant {self.config.name!r} has no open session {session_id}"
            )
        return view

    def db(self, kind: str, session_id: Optional[int]) -> object:
        """The tenant's database front end, cached per (kind, session)."""
        cache = (
            self._dbs if session_id is None else self.session_view(session_id).dbs
        )
        found = cache.get(kind)
        if found is None:
            found = cache[kind] = open_database(kind, self.fs_view(session_id))
        return found


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
        self._tenants: dict[str, _TenantState] = {}
        self._lock = TrackedLock("serving.state", rank=LOCK_TIERS["serving"])
        self._c_requests = self.registry.counter("serving.server.requests")
        self._c_shed = self.registry.counter("serving.server.shed")
        self._c_errors = self.registry.counter("serving.server.errors")
        self._g_tenants = self.registry.gauge("serving.server.tenants")
        # One ``_op_<name>`` method per protocol opcode; an opcode
        # without a handler fails here, not at its first request.
        self._handlers: dict[int, Callable[[_TenantState, dict], dict]] = {
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
            self._tenants[config.name] = _TenantState(self, config, slo)
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

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            raise PermissionDenied(f"tenant {tenant!r} is not provisioned")
        return state

    # -- dispatch -------------------------------------------------------------
    def handle(self, tenant: str, opcode: int, payload: dict) -> dict:
        """Execute one request body; raises on failure.

        The shared core of both serving paths and the in-process
        client: namespaced, quota-enforced, but *not* admission
        controlled — callers decide whether and how to admit.
        """
        handler = self._handlers.get(opcode)
        if handler is None:
            raise protocol.UnknownOpcode(
                f"opcode 0x{opcode:02X} is not in protocol "
                f"v{protocol.PROTOCOL_VERSION}"
            )
        state = self._state(tenant)
        with self._lock:
            return handler(state, _Payload(payload))

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

    # -- handlers: connection control -----------------------------------------
    def _op_hello(self, state: _TenantState, payload: dict) -> dict:
        return {
            "server": "compressdb-serving",
            "protocol": protocol.PROTOCOL_VERSION,
            "tenant": state.config.name,
            "root": state.ns.root,
            "block_size": self.engine.block_size,
        }

    def _op_ping(self, state: _TenantState, payload: dict) -> dict:
        return {"pong": True, "time_s": self.clock.now}

    def _op_goodbye(self, state: _TenantState, payload: dict) -> dict:
        aborted = 0
        for view in list(state.sessions.values()):
            view.fs.release_fds()
            if view.session.active:
                self.engine.mvcc.abort(view.session, "connection closed")
                aborted += 1
        state.sessions.clear()
        released = state.ns.release_fds()
        return {"sessions_aborted": aborted, "fds_released": released}

    # -- handlers: VFS surface -------------------------------------------------
    def _op_fs_open(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        fd = fs.open(payload["path"], payload.get("flags", fdmod.O_RDONLY))
        return {"fd": fd}

    def _op_fs_close(self, state: _TenantState, payload: dict) -> dict:
        state.fs_view(payload.get("session")).close(payload["fd"])
        return {"ok": True}

    def _op_fs_pread(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        offset, size = payload["offset"], payload["size"]
        if "fd" in payload:
            data = fs.pread(payload["fd"], size, offset)
        else:
            data = fs._pread(payload["path"], offset, size)
        return {"data": data}

    def _op_fs_pwrite(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        offset, data = payload["offset"], payload["data"]
        if "fd" in payload:
            written = fs.pwrite(payload["fd"], data, offset)
        else:
            if not fs._exists(payload["path"]):
                raise FileNotFound(payload["path"])
            written = fs._pwrite(payload["path"], offset, data)
        return {"written": written}

    def _op_fs_create(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        fs._create(payload["path"])
        return {"ok": True}

    def _op_fs_read_file(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        return {"data": fs.read_file(payload["path"])}

    def _op_fs_write_file(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        data = payload["data"]
        fs.write_file(payload["path"], data)
        return {"written": len(data)}

    def _op_fs_unlink(self, state: _TenantState, payload: dict) -> dict:
        state.fs_view(payload.get("session")).unlink(payload["path"])
        return {"ok": True}

    def _op_fs_stat(self, state: _TenantState, payload: dict) -> dict:
        st = state.fs_view(payload.get("session")).stat(payload["path"])
        return {"path": st.path, "size": st.size, "blocks": st.blocks}

    def _op_fs_list(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        return {"paths": fs.listdir(payload.get("prefix", ""))}

    def _op_fs_rename(self, state: _TenantState, payload: dict) -> dict:
        state.fs_view(payload.get("session")).rename(payload["old"], payload["new"])
        return {"ok": True}

    def _op_fs_truncate(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        fs._truncate(payload["path"], payload["size"])
        return {"ok": True}

    def _op_fs_fsync(self, state: _TenantState, payload: dict) -> dict:
        fs = state.fs_view(payload.get("session"))
        if "fd" in payload:
            fs.fsync(payload["fd"])
        else:
            fs._sync(payload["path"])
        return {"ok": True}

    # -- handlers: MVCC sessions ----------------------------------------------
    def _op_session_begin(self, state: _TenantState, payload: dict) -> dict:
        session = self.engine.mvcc.begin()
        provisional = state.ledger.provisional()
        view = NamespaceFS(
            SessionFS(self.fs, session),
            state.config.name,
            ledger=provisional,
            fd_limit=state.config.fd_limit,
        )
        state.sessions[session.session_id] = _SessionView(
            session, view, provisional
        )
        return {
            "session": session.session_id,
            "snapshot_csn": session.snapshot_csn,
        }

    def _op_session_commit(self, state: _TenantState, payload: dict) -> dict:
        view = state.session_view(payload["session"])
        del state.sessions[payload["session"]]
        view.fs.release_fds()
        # On WriteConflict the provisional ledger is simply dropped —
        # its charges never reached the committed ledger.
        ticket = view.session.commit()
        view.ledger.fold()
        return {
            "csn": ticket.csn,
            "durable": ticket.durable,
            "read_only": ticket.read_only,
        }

    def _op_session_abort(self, state: _TenantState, payload: dict) -> dict:
        view = state.session_view(payload["session"])
        del state.sessions[payload["session"]]
        view.fs.release_fds()
        if view.session.active:
            self.engine.mvcc.abort(view.session, "client abort")
        return {"aborted": True}

    # -- handlers: database front ends ----------------------------------------
    def _op_sql_execute(self, state: _TenantState, payload: dict) -> dict:
        db = state.db("sql", payload.get("session"))
        return {"rows": db.execute(payload["sql"])}

    def _op_kv_put(self, state: _TenantState, payload: dict) -> dict:
        state.db("kv", payload.get("session")).put(
            payload["key"], payload["value"]
        )
        return {"ok": True}

    def _op_kv_get(self, state: _TenantState, payload: dict) -> dict:
        value = state.db("kv", payload.get("session")).get(payload["key"])
        return {"value": value, "found": value is not None}

    def _op_kv_delete(self, state: _TenantState, payload: dict) -> dict:
        state.db("kv", payload.get("session")).delete(payload["key"])
        return {"ok": True}

    def _op_kv_scan(self, state: _TenantState, payload: dict) -> dict:
        db = state.db("kv", payload.get("session"))
        limit = payload.get("limit")
        items: list[list[bytes]] = []
        for key, value in db.scan(payload.get("start"), payload.get("end")):
            items.append([key, value])
            if limit is not None and len(items) >= limit:
                break
        return {"items": items}

    def _op_column_execute(self, state: _TenantState, payload: dict) -> dict:
        db = state.db("column", payload.get("session"))
        return {"rows": db.execute(payload["sql"])}

    # -- handlers: compressed-domain pushdown ---------------------------------
    def _mapped_path(self, state: _TenantState, path: str) -> str:
        if not state.ns._exists(path):
            raise FileNotFound(path)
        return state.ns._map(path)

    def _op_ops_search(self, state: _TenantState, payload: dict) -> dict:
        mapped = self._mapped_path(state, payload["path"])
        return {"offsets": self.engine.ops.search(mapped, payload["pattern"])}

    def _op_ops_count(self, state: _TenantState, payload: dict) -> dict:
        mapped = self._mapped_path(state, payload["path"])
        return {"count": self.engine.ops.count(mapped, payload["pattern"])}

    def _op_ops_insert(self, state: _TenantState, payload: dict) -> dict:
        mapped = self._mapped_path(state, payload["path"])
        data = payload["data"]
        state.ledger.charge(bytes_delta=len(data))
        try:
            self.engine.ops.insert(mapped, payload["offset"], data)
        except BaseException:
            state.ledger.charge(bytes_delta=-len(data))
            raise
        return {"ok": True}

    def _op_ops_delete(self, state: _TenantState, payload: dict) -> dict:
        mapped = self._mapped_path(state, payload["path"])
        length = payload["length"]
        self.engine.ops.delete(mapped, payload["offset"], length)
        state.ledger.charge(bytes_delta=-length)
        return {"ok": True}

    def _op_ops_word_count(self, state: _TenantState, payload: dict) -> dict:
        mapped = self._mapped_path(state, payload["path"])
        counts = self.engine.ops.word_count(mapped)
        # Payload dict keys must be str; words are bytes.
        return {"counts": [[word, n] for word, n in sorted(counts.items())]}

    def _op_aggregate(self, state: _TenantState, payload: dict) -> dict:
        # Aggregates push down to the column store's compressed-domain
        # vectorized executor; a separate opcode keeps the intent (and
        # future pushdown telemetry) visible on the wire.
        db = state.db("column", payload.get("session"))
        return {"rows": db.execute(payload["sql"])}
