"""Serving-layer tests: protocol framing, tenancy, admission, facade.

Four concerns, matching the layer's four moving parts:

* **framing** — golden bytes, round trips, and hostile input (truncated
  frames, bad CRCs, unknown opcodes) must fail cleanly and never kill
  the connection;
* **tenancy** — namespaces are disjoint, quotas bind, and one tenant's
  flood cannot starve another (fair-share scheduling);
* **admission** — under overload the server sheds with retry-after
  instead of queueing unboundedly, and accepted latency stays bounded;
* **the facade** — ``repro.api`` behaves identically over the wire and
  in-process, and a crash mid-request leaves a recoverable image.
"""

from __future__ import annotations

import ast
import inspect
import json
import random
import textwrap
import zlib
from pathlib import Path

import pytest

import repro.api as api
from repro.core.engine import CompressDB
from repro.databases.common import DatabaseError
from repro.fs.compressfs import CompressFS
from repro.fs.errors import (
    FileNotFound,
    InvalidArgument,
    PermissionDenied,
    QuotaExceeded,
    TryAgain,
    WIRE_CODES,
    wire_code,
    wire_error_payload,
)
from repro.mvcc.session import SessionClosed, WriteConflict
from repro.serving import (
    AdmissionController,
    DeficitRoundRobin,
    FramedSocketServer,
    LoopbackTransport,
    NamespaceFS,
    RemoteFS,
    Server,
    ServerConfig,
    ServingRequest,
    SocketTransport,
    TenantConfig,
    TokenBucket,
    WireClient,
    jain_fairness,
)
from repro.serving import protocol
from repro.serving.server import Backend, TenantBackend
from repro.serving.slo import metric_segment
from repro.storage.block_device import CrashPointDevice, MemoryBlockDevice
from repro.workloads import open_loop_arrivals, percentile
from tests.conftest import mutate

GOLDENS = Path(__file__).parent / "goldens"


def make_server(**config_kwargs) -> Server:
    config = ServerConfig(**config_kwargs) if config_kwargs else None
    return Server(fs=CompressFS(block_size=256, page_capacity=8), config=config)


def make_client(server: Server, tenant: str) -> WireClient:
    return WireClient(LoopbackTransport(server, tenant))


def checksummed_frame(payload: bytes, request_id: int = 7) -> bytes:
    """A structurally valid PING frame around arbitrary payload bytes."""
    header = protocol._HEADER.pack(
        protocol.MAGIC,
        protocol.PROTOCOL_VERSION,
        protocol.OPCODES["PING"],
        0,
        request_id,
        len(payload),
    )
    return header + protocol._CRC.pack(zlib.crc32(payload)) + payload


#: `d 1 s 1 p s 2 ff fe`: dict {"p": <two bytes that are not UTF-8>}.
INVALID_UTF8_PAYLOAD = b"d\x01s\x01ps\x02\xff\xfe"


def deeply_nested_payload(rng: random.Random, depth: int) -> bytes:
    """`d 1 s 1 p` then ``depth`` one-item lists, dicts nesting through
    a value, or dicts nesting through a key, around a None — far under
    MAX_PAYLOAD, far over MAX_NESTING."""
    out = bytearray(b"d\x01s\x01p")
    for __ in range(depth):
        out += rng.choice((b"l\x01", b"d\x01s\x01k", b"d\x01"))
    return bytes(out + b"N")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_golden_frame_bytes(self):
        """The encoding is frozen: same payload, same bytes, forever."""
        frame = protocol.encode_frame(
            protocol.OPCODES["FS_PWRITE"],
            7,
            {"path": "/a", "offset": 3, "data": b"\x00\x01"},
        )
        assert frame.hex() == (
            "43444257011300000000000700000020"  # magic, v1, FS_PWRITE, id 7
            "4a23e853"  # crc32 of the payload
            "640373047061746873022f6173066f6666736574690673046461746162020001"
        )

    def test_golden_frame_bytes_of_appended_opcodes(self):
        """OPS_INSERT/OPS_DELETE/OPS_WORD_COUNT were appended after
        0x42; their codes and request encodings are frozen too."""
        assert [
            protocol.OPCODES[name]
            for name in ("OPS_INSERT", "OPS_DELETE", "OPS_WORD_COUNT")
        ] == [0x43, 0x44, 0x45]
        assert max(
            code
            for name, code in protocol.OPCODES.items()
            if name not in ("OPS_INSERT", "OPS_DELETE", "OPS_WORD_COUNT")
        ) == 0x42
        insert = protocol.encode_frame(
            protocol.OPCODES["OPS_INSERT"],
            8,
            {"path": "/a", "offset": 3, "data": b"\x00\x01"},
        )
        assert insert.hex() == (
            "43444257014300000000000800000020"
            "4a23e853"
            "640373047061746873022f6173066f6666736574690673046461746162020001"
        )
        delete = protocol.encode_frame(
            protocol.OPCODES["OPS_DELETE"],
            9,
            {"path": "/a", "offset": 3, "length": 2},
        )
        assert delete.hex() == (
            "43444257014400000000000900000020"
            "9a1549fa"
            "640373047061746873022f6173066f6666736574690673066c656e6774686904"
        )
        word_count = protocol.encode_frame(
            protocol.OPCODES["OPS_WORD_COUNT"], 10, {"path": "/a"}
        )
        assert word_count.hex() == (
            "43444257014500000000000a0000000c"
            "3b5a366a"
            "640173047061746873022f61"
        )

    def test_roundtrip_all_value_types(self):
        payload = {
            "none": None,
            "true": True,
            "false": False,
            "int": -(1 << 40),
            "float": 2.5,
            "str": "héllo",
            "bytes": b"\x00\xff",
            "list": [1, "two", [3.0]],
            "dict": {"nested": b"ok"},
        }
        raw = protocol.encode_frame(protocol.OPCODES["PING"], 42, payload)
        frame, end = protocol.decode_frame(raw)
        assert end == len(raw)
        assert frame.request_id == 42
        assert frame.payload == payload

    def test_truncated_frame_waits_for_more(self):
        raw = protocol.encode_frame(protocol.OPCODES["PING"], 1, {"k": "v"})
        for cut in (0, 4, protocol.HEADER_BYTES, len(raw) - 1):
            with pytest.raises(protocol.TruncatedFrame):
                protocol.decode_frame(raw[:cut])

    def test_bad_crc_is_checksum_error(self):
        raw = bytearray(protocol.encode_frame(protocol.OPCODES["PING"], 1, {"k": "v"}))
        raw[-1] ^= 0xFF
        with pytest.raises(protocol.ChecksumError):
            protocol.decode_frame(bytes(raw))

    def test_bad_magic_and_version(self):
        raw = bytearray(protocol.encode_frame(protocol.OPCODES["PING"], 1, {}))
        wrong_magic = b"XXXX" + bytes(raw[4:])
        with pytest.raises(protocol.BadMagic):
            protocol.decode_frame(wrong_magic)
        raw[4] = 99
        with pytest.raises(protocol.BadVersion):
            protocol.decode_frame(bytes(raw))

    def test_decoder_reassembles_byte_at_a_time(self):
        frames = [
            protocol.encode_frame(protocol.OPCODES["PING"], i, {"i": i})
            for i in range(3)
        ]
        decoder = protocol.FrameDecoder()
        seen = []
        for byte in b"".join(frames):
            seen += decoder.feed(bytes([byte]))
        assert [f.payload["i"] for f in seen] == [0, 1, 2]

    def test_decoder_takes_many_frames_in_one_chunk(self):
        frames = [
            protocol.encode_frame(protocol.OPCODES["PING"], i, {"i": i})
            for i in range(500)
        ]
        decoder = protocol.FrameDecoder()
        seen = decoder.feed(b"".join(frames) + frames[0][:5])
        assert [f.payload["i"] for f in seen] == list(range(500))
        # The partial frame behind them stayed buffered.
        assert [f.request_id for f in decoder.feed(frames[0][5:])] == [0]

    def test_decoder_poisons_on_framing_error(self):
        decoder = protocol.FrameDecoder()
        with pytest.raises(protocol.BadMagic):
            decoder.feed(b"GARBAGE-GARBAGE-GARBAGE-")
        with pytest.raises(protocol.ProtocolError):
            decoder.feed(protocol.encode_frame(protocol.OPCODES["PING"], 1, {}))

    def test_fuzz_mutations_never_escape_protocol_error(self):
        """Arbitrary corruption either decodes or raises ProtocolError —
        nothing else (no struct.error, no KeyError) reaches the caller."""
        rng = random.Random(20260808)
        bases = [
            protocol.encode_frame(
                protocol.OPCODES["SQL_EXECUTE"], 9, {"sql": "SELECT 1", "rows": [1, 2]}
            ),
            protocol.encode_frame(
                protocol.OPCODES["OPS_INSERT"],
                10,
                {"path": "/doc", "offset": 6, "data": b"INS \x00\xff"},
            ),
            protocol.encode_frame(
                protocol.OPCODES["OPS_DELETE"],
                11,
                {"path": "/doc", "offset": 6, "length": 4},
            ),
            protocol.encode_frame(
                protocol.OPCODES["OPS_WORD_COUNT"], 12, {"path": "/doc"}
            ),
        ]
        for base in bases:
            for __ in range(400):
                mutated = bytearray(base)
                for __ in range(rng.randint(1, 6)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                try:
                    protocol.decode_frame(
                        bytes(mutated[: rng.randint(0, len(mutated))])
                    )
                except protocol.ProtocolError:
                    pass

    def test_payload_mutations_never_escape_protocol_error(self):
        """The CRC guards the wire, not the sender: a frame whose payload
        is malformed but correctly checksummed reaches the value decoder,
        which must also fail with ProtocolError only — and never with
        TruncatedFrame, which a stream reader takes for "wait"."""
        rng = random.Random(20260928)
        bases = [
            protocol.pack_payload(
                {"sql": "SELECT 1", "rows": [1, -2, 3.5, None, True], "d": {"k": b"v"}}
            ),
            protocol.pack_payload({"path": "/döc", "offset": 1 << 40, "data": b"\x00\xff" * 9}),
        ]
        for base in bases:
            for __ in range(1600):
                payload = mutate(rng, base)
                for decode in (
                    protocol.unpack_payload,
                    lambda raw: protocol.decode_frame(checksummed_frame(raw)),
                ):
                    try:
                        decode(payload)
                    except protocol.TruncatedFrame:
                        raise
                    except protocol.ProtocolError:
                        pass

    def test_regression_invalid_utf8_in_valid_frame_is_protocol_error(self):
        decoder = protocol.FrameDecoder()
        with pytest.raises(protocol.ProtocolError):
            decoder.feed(checksummed_frame(INVALID_UTF8_PAYLOAD))
        with pytest.raises(protocol.ProtocolError):  # poisoned
            decoder.feed(protocol.encode_frame(protocol.OPCODES["PING"], 1, {}))

    def test_regression_truncation_inside_payload_poisons_not_wedges(self):
        # `d 1 s 1 p s 9 ab`: a complete, CRC-valid frame whose string
        # claims 9 bytes and has 2.  It used to read as "need more
        # bytes", so the good frame behind it was never delivered.
        bad = checksummed_frame(b"d\x01s\x01ps\x09ab")
        good = protocol.encode_frame(protocol.OPCODES["PING"], 2, {})
        decoder = protocol.FrameDecoder()
        with pytest.raises(protocol.ProtocolError) as caught:
            decoder.feed(bad + good)
        assert not isinstance(caught.value, protocol.TruncatedFrame)
        with pytest.raises(protocol.ProtocolError):  # poisoned
            decoder.feed(good)

    def test_int64_edges_roundtrip_and_outside_values_are_rejected(self):
        for value in (-(1 << 63), (1 << 63) - 1):
            frame, __ = protocol.decode_frame(
                protocol.encode_frame(protocol.OPCODES["PING"], 1, {"x": value})
            )
            assert frame.payload == {"x": value}
        for value in (-(1 << 63) - 1, 1 << 63, -(2**64), 2**70):
            with pytest.raises(protocol.ProtocolError, match="int64"):
                protocol.encode_frame(protocol.OPCODES["PING"], 1, {"x": value})

    def test_nesting_is_capped_both_ways(self):
        nested: object = None
        for __ in range(protocol.MAX_NESTING - 1):  # the root dict is one
            nested = [nested]
        payload = {"x": nested}
        assert protocol.unpack_payload(protocol.pack_payload(payload)) == payload
        with pytest.raises(protocol.ProtocolError, match="nests deeper"):
            protocol.pack_payload({"x": [nested]})
        raw = deeply_nested_payload(random.Random(1), protocol.MAX_NESTING)
        with pytest.raises(protocol.ProtocolError, match="nests deeper"):
            protocol.unpack_payload(raw)

    def test_oversized_payload_rejected_both_ways(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(
                protocol.OPCODES["PING"], 1, {"d": b"x" * (protocol.MAX_PAYLOAD + 1)}
            )
        # A forged header advertising a huge payload must be rejected
        # before any attempt to buffer it.
        header = protocol.encode_frame(protocol.OPCODES["PING"], 1, {})[
            : protocol.HEADER_BYTES
        ]
        forged = bytearray(header)
        forged[12:16] = (protocol.MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(bytes(forged))


class TestWireCodes:
    def test_golden_wire_codes(self):
        """Codes are a wire contract: changing one breaks every client."""
        golden = json.loads((GOLDENS / "wire_codes.json").read_text())
        assert WIRE_CODES == golden

    def test_codes_are_injective(self):
        assert len(set(WIRE_CODES.values())) == len(WIRE_CODES)

    def test_mro_matching(self):
        assert wire_code(protocol.ChecksumError("x")) == WIRE_CODES["ChecksumError"]
        assert wire_code(protocol.BadMagic("x")) == WIRE_CODES["ProtocolError"]
        assert wire_code(RuntimeError("x")) == WIRE_CODES["FSError"]

    def test_retry_after_travels(self):
        body = wire_error_payload(TryAgain("busy", retry_after_ms=12.5))
        assert body["retry_after_ms"] == 12.5


# ---------------------------------------------------------------------------
# Server: hostile frames and error normalization
# ---------------------------------------------------------------------------


class TestServerRobustness:
    def test_unknown_opcode_is_clean_error_and_connection_survives(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        raw = server.serve_frame(
            "t", protocol.encode_frame(0x7F, 5, {})
        )
        frame, __ = protocol.decode_frame(raw)
        assert frame.is_error
        assert frame.request_id == 5
        assert frame.payload["error"] == "UnknownOpcode"
        assert frame.payload["code"] == WIRE_CODES["UnknownOpcode"]
        # Same connection keeps working.
        assert client.ping()["pong"] is True

    def test_corrupt_frame_answers_error_on_id_zero(self):
        server = make_server()
        server.add_tenant("t")
        good = protocol.encode_frame(protocol.OPCODES["PING"], 3, {})
        corrupt = bytearray(good)
        corrupt[-1] ^= 0xFF
        frame, __ = protocol.decode_frame(server.serve_frame("t", bytes(corrupt)))
        assert frame.is_error and frame.request_id == 0
        assert frame.payload["error"] == "ChecksumError"
        frame, __ = protocol.decode_frame(server.serve_frame("t", good))
        assert not frame.is_error and frame.request_id == 3

    def test_regression_invalid_utf8_frame_is_answered_not_thrown(self):
        server = make_server()
        server.add_tenant("t")
        raw = server.serve_frame("t", checksummed_frame(INVALID_UTF8_PAYLOAD))
        frame, __ = protocol.decode_frame(raw)
        assert frame.is_error and frame.request_id == 0
        assert frame.payload["code"] == WIRE_CODES["ProtocolError"]
        assert make_client(server, "t").ping()["pong"] is True

    def test_regression_deep_nesting_is_answered_not_thrown(self):
        """5,000 nested lists/dicts in a CRC-valid 10 KiB frame used to
        raise RecursionError through serve_frame."""
        server = make_server()
        server.add_tenant("t")
        key_chain = b"d\x01" * 5000 + b"N"  # each dict's key is the next dict
        for payload in (deeply_nested_payload(random.Random(20261015), 5000), key_chain):
            assert len(payload) < protocol.MAX_PAYLOAD
            raw = server.serve_frame("t", checksummed_frame(payload))
            frame, __ = protocol.decode_frame(raw)
            assert frame.is_error and frame.request_id == 0
            assert frame.payload["code"] == WIRE_CODES["ProtocolError"]
            assert make_client(server, "t").ping()["pong"] is True

    def test_missing_required_field_is_invalid_argument(self):
        server = make_server()
        server.add_tenant("t")
        raw = server.serve_frame(
            "t", protocol.encode_frame(protocol.OPCODES["FS_READ_FILE"], 4, {})
        )
        frame, __ = protocol.decode_frame(raw)
        assert frame.is_error and frame.request_id == 4
        assert frame.payload["code"] == WIRE_CODES["InvalidArgument"] == 22
        assert "'path'" in frame.payload["message"]

    def test_every_opcode_has_a_handler_or_construction_fails(self, monkeypatch):
        server = make_server()
        assert set(server._handlers) == set(protocol.OPCODES.values())
        monkeypatch.setitem(protocol.OPCODES, "FS_TELEPORT", 0x1D)
        with pytest.raises(AttributeError, match="_op_fs_teleport"):
            make_server()

    def test_request_spans_nest_under_serving_handle(self):
        server = make_server()
        server.add_tenant("t")
        tracer = server.engine.obs.tracer
        tracer.enabled = True
        raw = server.serve_frame(
            "t",
            protocol.encode_frame(
                protocol.OPCODES["KV_PUT"], 3, {"key": b"k", "value": b"v"}
            ),
        )
        assert not protocol.decode_frame(raw)[0].is_error
        spans = {span.span_id: span for span in tracer.spans()}
        (root,) = [span for span in spans.values() if span.name == "serving.handle"]
        assert root.attrs == {"tenant": "t", "opcode": "KV_PUT"}
        inner = [span for span in spans.values() if span is not root]
        assert any(span.name.startswith("engine.") for span in inner)
        for span in inner:  # every other span's ancestry reaches the root
            while span.parent_id != root.span_id:
                assert span.parent_id is not None, span.name
                span = spans[span.parent_id]

    def test_engine_errors_normalize_to_wire_codes(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        with pytest.raises(FileNotFound):
            RemoteFS(client).read_file("/missing")

    def test_unprovisioned_tenant_denied(self):
        server = make_server()
        client = make_client(server, "ghost")
        with pytest.raises(PermissionDenied):
            client.ping()


# ---------------------------------------------------------------------------
# Tenancy: namespaces, quotas, fairness
# ---------------------------------------------------------------------------


class TestTenantIsolation:
    def test_namespaces_are_disjoint(self):
        server = make_server()
        server.add_tenant("alice")
        server.add_tenant("bob")
        alice = RemoteFS(make_client(server, "alice"))
        bob = RemoteFS(make_client(server, "bob"))
        alice.write_file("/same-path", b"alice's data")
        bob.write_file("/same-path", b"bob's data")
        assert alice.read_file("/same-path") == b"alice's data"
        assert bob.read_file("/same-path") == b"bob's data"
        alice.write_file("/only-alice", b"private")
        assert not bob.exists("/only-alice")
        assert sorted(bob.listdir()) == ["/same-path"]

    def test_byte_quota_binds_and_frees(self):
        server = make_server()
        server.add_tenant(TenantConfig(name="small", quota_bytes=512))
        fs = RemoteFS(make_client(server, "small"))
        fs.write_file("/a", b"x" * 400)
        with pytest.raises(QuotaExceeded):
            fs.write_file("/b", b"y" * 400)
        fs.unlink("/a")
        fs.write_file("/b", b"y" * 400)

    def test_rename_over_credits_the_replaced_file_once(self):
        fs = NamespaceFS(CompressFS(block_size=64), "t")
        fs.write_file("/a", b"a" * 100)
        fs.write_file("/b", b"b" * 40)
        assert (fs.ledger.used_bytes, fs.ledger.used_inodes) == (140, 2)
        fs.rename("/a", "/b")
        assert fs.read_file("/b") == b"a" * 100
        assert (fs.ledger.used_bytes, fs.ledger.used_inodes) == (100, 1)
        fs.rename("/b", "/b")  # onto itself: replaces nothing
        assert (fs.ledger.used_bytes, fs.ledger.used_inodes) == (100, 1)

    def test_inode_and_fd_quotas(self):
        server = make_server()
        server.add_tenant(TenantConfig(name="t", quota_inodes=2, fd_limit=1))
        client = make_client(server, "t")
        fs = RemoteFS(client)
        fs.write_file("/one", b"1")
        fs.write_file("/two", b"2")
        with pytest.raises(QuotaExceeded):
            fs.write_file("/three", b"3")
        fd = client.call("FS_OPEN", path="/one")["fd"]
        with pytest.raises(QuotaExceeded):
            client.call("FS_OPEN", path="/two")
        client.call("FS_CLOSE", fd=fd)
        client.call(
            "FS_CLOSE", fd=client.call("FS_OPEN", path="/two")["fd"]
        )

    def test_quota_is_not_charged_for_aborted_session(self):
        server = make_server()
        server.add_tenant(TenantConfig(name="t", quota_bytes=512))
        client = make_client(server, "t")
        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/big", b"x" * 400)
        client.session_abort(sid)
        # The provisional charge was dropped with the session.
        RemoteFS(make_client(server, "t")).write_file("/after", b"y" * 400)

    def test_flood_cannot_starve_other_tenants(self):
        """One tenant offering 10x the load of three others: DRR keeps
        the quiet tenants' latency in the same band as each other and
        fairness across equal weights stays high."""
        server = make_server(admission=False)
        for name in ("flood", "q1", "q2", "q3"):
            server.add_tenant(name)
        payload = {"path": "/f", "data": b"z" * 64}
        requests = []
        for i in range(300):
            requests.append(
                ServingRequest(i * 1e-4, "flood", protocol.OPCODES["FS_WRITE_FILE"], payload)
            )
        for i in range(30):
            for name in ("q1", "q2", "q3"):
                requests.append(
                    ServingRequest(i * 1e-3, name, protocol.OPCODES["FS_WRITE_FILE"], payload)
                )
        outcome = server.run_open_loop(requests)
        quiet_p95 = [
            percentile(sorted(outcome[name]["latencies"]), 0.95)
            for name in ("q1", "q2", "q3")
        ]
        assert jain_fairness(quiet_p95) > 0.9
        # The flood tenant bears its own queueing; the quiet tenants
        # must not be dragged to its latency.
        flood_p95 = percentile(sorted(outcome["flood"]["latencies"]), 0.95)
        assert max(quiet_p95) < flood_p95


# ---------------------------------------------------------------------------
# Admission control and scheduling units
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(0.1)
        assert bucket.try_take(0.1)

    def test_admit_sheds_on_rate_then_recovers(self):
        control = AdmissionController(enabled=True)
        control.configure_tenant("t", rate_per_s=10.0, burst=1.0)
        assert control.admit("t", 0.0, 0, 0.0) is None
        shed = control.admit("t", 0.0, 0, 0.0)
        assert shed is not None and shed.retry_after_s > 0
        assert control.admit("t", 1.0, 0, 0.0) is None

    def test_admit_bounds_queue_depth_and_delay(self):
        control = AdmissionController(
            enabled=True, per_tenant_queue_limit=4, max_queue_delay_s=0.5
        )
        assert control.admit("t", 0.0, tenant_queued=4, queued_cost_s=0.0) is not None
        assert control.admit("t", 0.0, tenant_queued=0, queued_cost_s=0.9) is not None
        assert control.admit("t", 0.0, tenant_queued=3, queued_cost_s=0.1) is None

    def test_disabled_admission_accepts_everything(self):
        control = AdmissionController(enabled=False, per_tenant_queue_limit=1)
        assert control.admit("t", 0.0, tenant_queued=99, queued_cost_s=99.0) is None

    def test_drr_weighted_shares(self):
        # Quantum on the order of one request's cost estimate, so one
        # rotation grants a few requests, proportional to weight.
        drr = DeficitRoundRobin(quantum_s=1e-4)
        drr.lane("heavy", weight=3.0)
        drr.lane("light", weight=1.0)
        for i in range(40):
            drr.enqueue("heavy", f"h{i}")
            drr.enqueue("light", f"l{i}")
        drained = [drr.next()[0] for __ in range(40)]
        heavy_share = drained.count("heavy") / len(drained)
        assert 0.65 < heavy_share < 0.85

    def test_shed_surfaces_as_try_again_with_retry_after(self):
        server = make_server(default_rate_per_s=1.0)
        server.add_tenant(TenantConfig(name="t", burst=1.0))
        client = make_client(server, "t")
        assert client.ping()["pong"] is True
        with pytest.raises(TryAgain) as excinfo:
            client.ping()
        assert excinfo.value.retry_after_ms > 0


# ---------------------------------------------------------------------------
# Open-loop serving and graceful degradation
# ---------------------------------------------------------------------------


def _write_requests(tenants, rate_per_s, duration_s, nbytes=64):
    requests = []
    for tenant in tenants:
        gap = 1.0 / rate_per_s
        now = 0.0
        i = 0
        while now < duration_s:
            requests.append(
                ServingRequest(
                    now,
                    tenant,
                    protocol.OPCODES["FS_WRITE_FILE"],
                    {"path": f"/w{i % 8}", "data": b"x" * nbytes},
                )
            )
            now += gap
            i += 1
    return requests


class TestOpenLoop:
    def test_admission_bounds_overload_latency(self):
        """2x overload: with admission on, accepted p99 stays within 5x
        of the uncontended p99; with admission off the p99 blows up."""
        def run(admission: bool, rate_per_s: float):
            server = make_server(
                admission=admission, max_queue_delay_s=0.002, default_rate_per_s=400.0
            )
            for i in range(4):
                server.add_tenant(TenantConfig(name=f"t{i}", burst=8.0))
            outcome = server.run_open_loop(
                _write_requests([f"t{i}" for i in range(4)], rate_per_s, 0.25)
            )
            latencies = sorted(
                lat for r in outcome.values() for lat in r["latencies"]
            )
            shed = sum(r["shed"] for r in outcome.values())
            return percentile(latencies, 0.99), shed

        uncontended_p99, __ = run(admission=True, rate_per_s=40.0)
        overload_p99, overload_shed = run(admission=True, rate_per_s=700.0)
        baseline_p99, baseline_shed = run(admission=False, rate_per_s=700.0)
        assert overload_shed > 0
        assert baseline_shed == 0
        assert overload_p99 <= 5.0 * uncontended_p99
        assert baseline_p99 > 10.0 * overload_p99

    def test_slo_report_counts_and_percentiles(self):
        server = make_server()
        server.add_tenant("t")
        outcome = server.run_open_loop(_write_requests(["t"], 100.0, 0.1))
        report = server.report()
        assert len(report) == 1
        entry = report[0]
        assert entry["tenant"] == "t"
        assert entry["completed"] == len(outcome["t"]["latencies"])
        assert entry["offered"] == entry["accepted"] + entry["shed"]
        assert 0.0 < entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]

    def test_ycsb_open_loop_arrivals_deterministic(self):
        first = open_loop_arrivals("A", 200.0, 0.2, record_count=50, seed=3)
        second = open_loop_arrivals("A", 200.0, 0.2, record_count=50, seed=3)
        assert [t.arrival_s for t in first] == [t.arrival_s for t in second]
        assert [t.op.kind for t in first] == [t.op.kind for t in second]
        different = open_loop_arrivals("A", 200.0, 0.2, record_count=50, seed=4)
        assert [t.arrival_s for t in first] != [t.arrival_s for t in different]
        # Poisson arrivals at 200/s over 0.2s: expect ~40, loosely.
        assert 15 <= len(first) <= 80
        assert all(first[i].arrival_s <= first[i + 1].arrival_s for i in range(len(first) - 1))


class TestSLOHelpers:
    def test_exact_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0

    def test_jain_fairness(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_fairness([]) == 1.0

    def test_metric_segment_sanitizes(self):
        assert metric_segment("Tenant-7!") == "tenant_7"
        assert metric_segment("ok_name") == "ok_name"


# ---------------------------------------------------------------------------
# Sessions over the wire
# ---------------------------------------------------------------------------


class TestWireSessions:
    def test_commit_publishes_abort_discards(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        base = RemoteFS(client)

        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/committed", b"yes")
        client.session_commit(sid)
        assert base.read_file("/committed") == b"yes"

        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/aborted", b"no")
        client.session_abort(sid)
        assert not base.exists("/aborted")

    def test_first_committer_wins_over_wire(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        RemoteFS(client).write_file("/contended", b"base")
        a = client.session_begin()
        b = client.session_begin()
        RemoteFS(client, session_id=a).write_file("/contended", b"from a")
        RemoteFS(client, session_id=b).write_file("/contended", b"from b")
        client.session_commit(a)
        with pytest.raises(WriteConflict):
            client.session_commit(b)
        assert RemoteFS(client).read_file("/contended") == b"from a"

    def test_goodbye_aborts_open_sessions(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        sid = client.session_begin()
        RemoteFS(client, session_id=sid).write_file("/dangling", b"x")
        farewell = client.goodbye()
        assert farewell["sessions_aborted"] == 1
        assert not RemoteFS(make_client(server, "t")).exists("/dangling")


    def test_commit_spans_nest_under_the_request(self):
        server = make_server()
        server.add_tenant("t")
        server.engine.mvcc.group_size = 1  # every commit flushes its group
        tracer = server.engine.obs.tracer
        tracer.enabled = True
        client = make_client(server, "t")
        winner, loser = client.session_begin(), client.session_begin()
        RemoteFS(client, session_id=winner).write_file("/hot", b"first")
        RemoteFS(client, session_id=loser).write_file("/hot", b"second")
        tracer.clear()
        client.session_commit(winner)
        with pytest.raises(WriteConflict):
            client.session_commit(loser)
        spans = tracer.spans()
        by_id = {span.span_id: span for span in spans}

        def children(parent):
            return [s.name for s in spans if s.parent_id == parent.span_id]

        won, lost = [span for span in spans if span.name == "mvcc.commit"]
        assert by_id[won.parent_id].name == "serving.handle"
        assert by_id[won.parent_id].attrs["opcode"] == "SESSION_COMMIT"
        assert children(won) == [
            "mvcc.validate", "mvcc.lock_wait", "mvcc.apply", "mvcc.group_commit"
        ]
        assert won.attrs["session"] == winner
        assert won.attrs["writes"] == 1
        assert won.attrs["outcome"] == "committed"
        assert by_id[lost.parent_id].name == "serving.handle"
        assert lost.attrs["outcome"] == "conflict"
        assert children(lost) == ["mvcc.validate"]

    def test_begin_and_resolve_spans(self):
        server = make_server()
        server.add_tenant("t")
        tracer = server.engine.obs.tracer
        tracer.enabled = True
        client = make_client(server, "t")
        RemoteFS(client).write_file("/seen", b"data")
        tracer.clear()
        session = client.session_begin()
        assert RemoteFS(client, session_id=session).read_file("/seen") == b"data"
        names = [span.name for span in tracer.spans()]
        assert "mvcc.begin" in names and "mvcc.resolve" in names
        begin = next(span for span in tracer.spans() if span.name == "mvcc.begin")
        assert begin.attrs["session"] == session


# ---------------------------------------------------------------------------
# Databases over the wire
# ---------------------------------------------------------------------------


class TestWireDatabases:
    def test_sql_kv_column_and_pushdown(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")

        client.sql("CREATE TABLE kvs (id INT, v INT)")
        client.sql("INSERT INTO kvs VALUES (1, 10)")
        client.sql("INSERT INTO kvs VALUES (2, 20)")
        rows = client.sql("SELECT id, v FROM kvs WHERE v > 15")
        assert rows == [{"id": 2, "v": 20}]

        client.kv_put(b"k1", b"v1")
        client.kv_put(b"k2", b"v2")
        assert client.kv_get(b"k1") == b"v1"
        assert [k for k, __ in client.kv_scan()] == [b"k1", b"k2"]
        client.kv_delete(b"k1")
        assert client.kv_get(b"k1") is None

        client.column("CREATE TABLE m (a INT, b INT)")
        client.column("INSERT INTO m VALUES (1, 100)")
        client.column("INSERT INTO m VALUES (2, 200)")
        total = client.call("AGGREGATE", sql="SELECT SUM(b) FROM m")["rows"]
        assert list(total[0].values()) == [300]

        RemoteFS(client).write_file("/doc", b"needle in a haystack, needle")
        assert client.search("/doc", b"needle") == [0, 22]
        assert client.count("/doc", b"needle") == 2

    def test_pushdown_on_missing_file(self):
        server = make_server()
        server.add_tenant("t")
        client = make_client(server, "t")
        with pytest.raises(FileNotFound):
            client.search("/nope", b"x")


class TestWireManipulation:
    """OPS_INSERT / OPS_DELETE / OPS_WORD_COUNT: the operations the
    deleted JSON socket was the only remote path for."""

    DOC = b"alpha beta gamma alpha beta " * 4

    def _tenant(self, server, name="t", **config):
        server.add_tenant(TenantConfig(name=name, **config))
        client = make_client(server, name)
        RemoteFS(client).write_file("/doc", self.DOC)
        return client

    def test_insert_delete_word_count_roundtrip(self):
        server = make_server()
        client = self._tenant(server)
        fs = RemoteFS(client)
        client.insert("/doc", 6, b"INS ")
        assert fs.read_file("/doc")[:14] == b"alpha INS beta"
        client.delete("/doc", 6, 4)
        assert fs.read_file("/doc") == self.DOC
        counts = client.word_count("/doc")
        assert counts[b"alpha"] == 8 and counts[b"gamma"] == 4
        assert set(counts) == {b"alpha", b"beta", b"gamma"}
        server.engine.check_invariants()

    def test_binary_payload_survives_insert(self):
        server = make_server()
        client = self._tenant(server)
        payload = bytes(range(256))
        client.insert("/doc", len(self.DOC), payload)
        assert RemoteFS(client).read_file("/doc")[len(self.DOC):] == payload

    def test_cannot_name_another_tenants_path(self):
        from repro.fs.errors import InvalidArgument

        server = make_server()
        alice = self._tenant(server, "alice")
        server.add_tenant("bob")
        bob = make_client(server, "bob")
        # The same client path maps under bob's own root, where it is absent.
        for call in (
            lambda: bob.insert("/doc", 0, b"x"),
            lambda: bob.delete("/doc", 0, 1),
            lambda: bob.word_count("/doc"),
        ):
            with pytest.raises(FileNotFound):
                call()
        # Escaping the root, or naming the image path outright, fails too.
        with pytest.raises(InvalidArgument):
            bob.insert("/../alice/doc", 0, b"x")
        with pytest.raises(FileNotFound):
            bob.delete("/t/alice/doc", 0, 1)
        assert RemoteFS(alice).read_file("/doc") == self.DOC

    def test_unknown_file_is_file_not_found(self):
        server = make_server()
        client = self._tenant(server)
        with pytest.raises(FileNotFound):
            client.insert("/missing", 0, b"x")
        with pytest.raises(FileNotFound):
            client.delete("/missing", 0, 1)
        with pytest.raises(FileNotFound):
            client.word_count("/missing")

    def test_bad_range_is_invalid_argument_on_both_backends(self):
        from repro.fs.errors import InvalidArgument

        server = make_server()
        self._tenant(server)
        wire = api.connect(server, tenant="t")
        direct = api.connect(CompressFS(block_size=256, page_capacity=8))
        direct.fs.write_file("/doc", self.DOC)
        for client in (wire, direct):
            with pytest.raises(InvalidArgument):
                client.insert("/doc", len(self.DOC) + 1, b"x")
            with pytest.raises(InvalidArgument):
                client.delete("/doc", len(self.DOC) - 1, 2)
            assert client.fs.read_file("/doc") == self.DOC

    def test_insert_and_delete_meter_the_byte_quota(self):
        from repro.fs.errors import InvalidArgument

        server = make_server()
        client = self._tenant(server, quota_bytes=len(self.DOC) + 16)
        ledger = server._tenants["t"].ledger
        assert ledger.used_bytes == len(self.DOC)
        client.insert("/doc", 0, b"x" * 16)
        assert ledger.used_bytes == len(self.DOC) + 16
        # Past the quota: refused before the engine is touched.
        with pytest.raises(QuotaExceeded):
            client.insert("/doc", 0, b"y")
        assert ledger.used_bytes == len(self.DOC) + 16
        assert RemoteFS(client).stat("/doc").size == len(self.DOC) + 16
        # A charge whose operation then fails is refunded.
        client.delete("/doc", 0, 8)
        assert ledger.used_bytes == len(self.DOC) + 8
        with pytest.raises(InvalidArgument):
            client.insert("/doc", 10_000, b"zzzz")
        assert ledger.used_bytes == len(self.DOC) + 8
        # A failed delete credits nothing; a good one frees room again.
        with pytest.raises(InvalidArgument):
            client.delete("/doc", 0, 10_000)
        assert ledger.used_bytes == len(self.DOC) + 8
        client.insert("/doc", 0, b"w" * 8)
        assert ledger.used_bytes == RemoteFS(client).stat("/doc").size

    def test_edits_persist_across_remount(self):
        device = MemoryBlockDevice(block_size=256)
        server = Server(
            fs=CompressFS(engine=CompressDB.mount(device, journal_blocks=64))
        )
        client = self._tenant(server)
        client.insert("/doc", 6, b"INS ")
        client.delete("/doc", 0, 6)
        RemoteFS(client)._sync("/doc")
        reopened = Server(fs=CompressFS(engine=CompressDB.mount(device)))
        reopened.add_tenant("t")
        again = make_client(reopened, "t")
        assert RemoteFS(again).read_file("/doc") == b"INS " + self.DOC[6:]
        assert again.word_count("/doc")[b"INS"] == 1
        # The ledger is re-seeded from the files found under the root.
        assert reopened._tenants["t"].ledger.used_bytes == len(self.DOC) - 2


# ---------------------------------------------------------------------------
# The repro.api facade
# ---------------------------------------------------------------------------


def drive_facade(client: api.Client) -> dict:
    """One scripted op sequence whose outcome fingerprints a backend."""
    client.fs.write_file("/facade", b"facade bytes")
    client.kv.put(b"a", b"1")
    client.kv.put(b"b", b"2")
    client.sql("CREATE TABLE f (id INT, v INT)")
    client.sql("INSERT INTO f VALUES (1, 5)")
    with client.session() as txn:
        txn.fs.write_file("/txn", b"committed")
    try:
        with client.session() as txn:
            txn.fs.write_file("/rolled-back", b"x")
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    fingerprint = _facade_fingerprint(client)
    client.insert("/facade", 6, b" more")
    client.delete("/facade", 0, 7)
    fingerprint["edited"] = client.fs.read_file("/facade")
    fingerprint["word_count"] = client.word_count("/facade")
    # The commonest user error is typed the same on both backends.
    with pytest.raises(DatabaseError) as syntax:
        client.sql("SELEKT 1")
    fingerprint["syntax_error"] = str(syntax.value)
    # A scan limit of 0 is an empty scan; a negative one is refused.
    fingerprint["scan_limit_0"] = list(client._backend.kv_scan(limit=0))
    fingerprint["scan_limit_1"] = list(client._backend.kv_scan(limit=1))
    with pytest.raises(InvalidArgument):
        client._backend.kv_scan(limit=-1)
    # Closing the client aborts the sessions it left open.
    txn = client.session()
    txn.fs.write_file("/dangling", b"x")
    client.close()
    with pytest.raises(SessionClosed):
        txn.commit()
    fingerprint["dangling"] = client.fs.exists("/dangling")
    return fingerprint


def _facade_fingerprint(client: api.Client) -> dict:
    return {
        "read": client.fs.read_file("/facade"),
        "kv": list(client.kv.scan()),
        "sql": client.sql("SELECT id, v FROM f"),
        "txn": client.fs.read_file("/txn"),
        "rolled_back": client.fs.exists("/rolled-back"),
        "search": client.search("/facade", b"bytes"),
        "count": client.count("/facade", b"a"),
    }


class TestFacade:
    def test_wire_and_direct_backends_are_equivalent(self):
        direct = drive_facade(api.connect(CompressFS(block_size=256, page_capacity=8)))
        server = make_server()
        server.add_tenant("t")
        wire = drive_facade(api.connect(server, tenant="t"))
        assert direct == wire

    def test_close_aborts_open_sessions_on_both_backends(self):
        server = make_server()
        server.add_tenant("t")
        direct_fs = CompressFS(block_size=256, page_capacity=8)
        for client, engine in (
            (api.connect(server, tenant="t"), server.engine),
            (api.connect(direct_fs), direct_fs.engine),
        ):
            txn = client.session()
            txn.fs.write_file("/dangling", b"x")
            client.close()
            registry = engine.obs.registry
            assert registry.gauge("mvcc.sessions.active").value == 0
            assert registry.counter("mvcc.sessions.aborted").value == 1
            with pytest.raises(SessionClosed):
                txn.commit()
            assert not client.fs.exists("/dangling")

    def test_close_keeps_another_connections_session(self):
        server = make_server()
        server.add_tenant("t")
        a, b = api.connect(server, tenant="t"), api.connect(server, tenant="t")
        txn = a.session()
        txn.fs.write_file("/mine", b"kept")
        b.close()
        assert txn.commit()["csn"] > 0
        assert a.fs.read_file("/mine") == b"kept"

    def test_close_keeps_another_connections_descriptor(self):
        server = make_server()
        server.add_tenant("t")
        a, b = api.connect(server, tenant="t"), api.connect(server, tenant="t")
        a.fs.write_file("/f", b"payload")
        fd = a._backend.call("FS_OPEN", path="/f")["fd"]
        b.close()
        assert a._backend.call("FS_PREAD", fd=fd, offset=0, size=7)["data"] == b"payload"
        assert a._backend.goodbye() == {"sessions_aborted": 0, "fds_released": 1}

    def test_kv_scan_limit_on_both_backends(self):
        server = make_server()
        server.add_tenant("t")
        wire = make_client(server, "t")
        direct = api.connect(CompressFS(block_size=256, page_capacity=8))._backend
        for backend in (wire, direct):
            for key in (b"a", b"b", b"c"):
                backend.kv_put(key, key.upper())
            assert list(backend.kv_scan(limit=0)) == []
            assert list(backend.kv_scan(limit=2)) == [(b"a", b"A"), (b"b", b"B")]
            assert len(list(backend.kv_scan())) == 3
            for limit in (-1, -5):
                with pytest.raises(InvalidArgument):
                    backend.kv_scan(limit=limit)

    def test_backend_has_the_wire_clients_surface(self):
        # HELLO / PING and the raw round trip run the connection itself.
        surface = {
            name
            for name, __ in inspect.getmembers(WireClient, inspect.isfunction)
            if not name.startswith("_")
        } - {"call", "hello", "ping"}
        assert {"fs", "sql", "kv_scan", "insert", "session_begin", "goodbye"} <= surface
        for backend in (Backend, TenantBackend):
            for name in sorted(surface):
                assert inspect.signature(getattr(backend, name)) == inspect.signature(
                    getattr(WireClient, name)
                ), f"{backend.__name__}.{name}"
        # The facade classes call nothing on their backend outside it.
        for facade in (api.Client, api.KVHandle, api.SessionScope):
            tree = ast.parse(textwrap.dedent(inspect.getsource(facade)))
            called = {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and (
                    (isinstance(node.value, ast.Name) and node.value.id == "backend")
                    or (isinstance(node.value, ast.Attribute) and node.value.attr == "_backend")
                )
            }
            assert called and called <= surface, (facade.__name__, called - surface)

    def test_connect_validates_target(self):
        from repro.fs.errors import InvalidArgument

        with pytest.raises(InvalidArgument):
            api.connect(make_server())  # server target requires a tenant
        with pytest.raises(InvalidArgument):
            api.connect(CompressFS(), tenant="t")  # tenant needs a server
        with pytest.raises(InvalidArgument):
            api.connect(object())


# ---------------------------------------------------------------------------
# Crash mid-request
# ---------------------------------------------------------------------------


class TestCrashMidRequest:
    def test_crash_surfaces_error_and_image_recovers(self):
        device = MemoryBlockDevice(block_size=256)
        engine = CompressDB.mount(device, journal_blocks=64)
        fs = CompressFS(engine=engine)
        server = Server(fs=fs)
        server.add_tenant("t")
        client = make_client(server, "t")
        RemoteFS(client).write_file("/pre-crash", b"durable")
        engine.fsync()

        # Mutations buffer in memory until fsync, so the crash point is
        # armed on the device writes the FS_FSYNC request issues.
        wrapped = CrashPointDevice(device, crash_after=3)
        engine.device.inner = wrapped  # journal wraps the raw device
        write_frame, __ = protocol.decode_frame(
            server.serve_frame(
                "t",
                protocol.encode_frame(
                    protocol.OPCODES["FS_WRITE_FILE"],
                    10,
                    {"path": "/mid-crash", "data": b"y" * 2048},
                ),
            )
        )
        assert not write_frame.is_error
        frame, __ = protocol.decode_frame(
            server.serve_frame(
                "t",
                protocol.encode_frame(
                    protocol.OPCODES["FS_FSYNC"], 11, {"path": "/mid-crash"}
                ),
            )
        )
        assert frame.is_error and frame.request_id == 11
        assert frame.payload["error"] == "FSError"  # CrashPoint degrades to EIO

        # "Reboot": remount whatever reached the inner device.
        recovered = CompressDB.mount(device)
        report = recovered.fsck(repair=False)
        violations = (
            report["refcounts_fixed"]
            + report["blocks_reclaimed"]
            + report["hole_inconsistencies"]
        )
        assert violations == 0, f"fsck found violations: {report}"
        recovered.check_invariants()
        rfs = CompressFS(engine=recovered)
        assert rfs.read_file("/t/t/pre-crash") == b"durable"


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------


class TestSocketTransport:
    @pytest.fixture
    def stack(self, tmp_path):
        server = make_server()
        server.add_tenant("gold")
        path = str(tmp_path / "serving.sock")
        with FramedSocketServer(server, path) as front:
            yield server, front, path

    def test_request_response_over_socket(self, stack):
        __, __, path = stack
        with SocketTransport(path) as transport:
            client = WireClient(transport)
            assert client.hello("gold")["tenant"] == "gold"
            fs = RemoteFS(client)
            fs.write_file("/sock", b"over a real socket")
            assert fs.read_file("/sock") == b"over a real socket"

    def test_connection_must_hello_first(self, stack):
        __, __, path = stack
        with SocketTransport(path) as transport:
            with pytest.raises(PermissionDenied):
                WireClient(transport).ping()

    def test_unknown_tenant_rejected(self, stack):
        __, __, path = stack
        with SocketTransport(path) as transport:
            with pytest.raises(PermissionDenied):
                WireClient(transport).hello("nobody")

    def test_garbage_gets_error_frame_then_hangup(self, stack):
        import socket

        __, __, path = stack
        peer = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer.connect(path)
        peer.settimeout(5)
        peer.sendall(b"NOT-A-FRAME-AT-ALL------")
        frame, __ = protocol.decode_frame(peer.recv(65536))
        assert frame.is_error
        assert frame.payload["error"] == "ProtocolError"
        peer.close()

    def test_each_socket_is_its_own_connection(self, stack):
        __, __, path = stack
        with SocketTransport(path) as first, SocketTransport(path) as second:
            a, b = WireClient(first), WireClient(second)
            a.hello("gold")
            b.hello("gold")
            RemoteFS(a).write_file("/f", b"socket")
            fd = a.call("FS_OPEN", path="/f")["fd"]
            session = a.session_begin()
            assert b.goodbye() == {"sessions_aborted": 0, "fds_released": 0}
            assert a.call("FS_PREAD", fd=fd, offset=0, size=6)["data"] == b"socket"
            assert a.goodbye() == {"sessions_aborted": 1, "fds_released": 1}
            with pytest.raises(SessionClosed):
                a.session_commit(session)

    def test_auto_provision_mode(self, tmp_path):
        server = make_server()
        path = str(tmp_path / "auto.sock")
        with FramedSocketServer(server, path, auto_provision=True):
            with SocketTransport(path) as transport:
                assert WireClient(transport).hello("walk-in")["tenant"] == "walk-in"
        assert "walk-in" in server.tenants()


# ---------------------------------------------------------------------------
# CLI serve wiring
# ---------------------------------------------------------------------------


class TestCLIServe:
    def test_serving_stack_provisions_tenants(self, tmp_path):
        from repro.cli import _close, _mount, _serving_stack, build_parser, main

        img = str(tmp_path / "store.img")
        assert main(["init", img]) == 0
        args = build_parser().parse_args(
            ["serve", img, str(tmp_path / "s.sock"), "--tenant", "gold:4", "--tenant", "silver"]
        )
        engine = _mount(img)
        try:
            server, front = _serving_stack(engine, args)
            assert server.tenants() == ["gold", "silver"]
            assert server._tenants["gold"].config.weight == 4.0
            assert front.auto_provision is False
            with front:
                with SocketTransport(args.socket) as transport:
                    client = WireClient(transport)
                    assert client.hello("gold")["root"] == "/t/gold"
        finally:
            _close(engine, flush=True)

    def test_invalid_tenant_spec_is_cli_error(self, tmp_path):
        from repro.cli import CLIError, _close, _mount, _serving_stack, build_parser, main

        img = str(tmp_path / "store.img")
        main(["init", img])
        parser = build_parser()
        engine = _mount(img)
        try:
            for spec in (":3", "gold:heavy"):
                args = parser.parse_args(
                    ["serve", img, str(tmp_path / "s.sock"), "--tenant", spec]
                )
                with pytest.raises(CLIError):
                    _serving_stack(engine, args)
        finally:
            _close(engine, flush=False)
