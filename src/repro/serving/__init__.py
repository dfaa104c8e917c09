"""The multi-tenant serving layer (DESIGN.md §14).

Wire protocol (:mod:`repro.serving.protocol`), tenant namespaces and
quotas (:mod:`repro.serving.namespace`), admission control and
fair-share scheduling (:mod:`repro.serving.admission`), SLO tracking
(:mod:`repro.serving.slo`), the server (:mod:`repro.serving.server`)
and the wire client (:mod:`repro.serving.client`).
"""

from repro.serving.admission import (
    AdmissionController,
    DeficitRoundRobin,
    Shed,
    TokenBucket,
)
from repro.serving.client import LoopbackTransport, RemoteFS, WireClient
from repro.serving.namespace import NamespaceFS, QuotaLedger, tenant_root
from repro.serving.protocol import (
    Frame,
    FrameDecoder,
    OPCODES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
)
from repro.serving.server import (
    Server,
    ServerConfig,
    ServingRequest,
    TenantConfig,
)
from repro.serving.slo import TenantSLO, jain_fairness
from repro.serving.transport import FramedSocketServer, SocketTransport

__all__ = [
    "FramedSocketServer",
    "SocketTransport",
    "AdmissionController",
    "DeficitRoundRobin",
    "Shed",
    "TokenBucket",
    "LoopbackTransport",
    "RemoteFS",
    "WireClient",
    "NamespaceFS",
    "QuotaLedger",
    "tenant_root",
    "Frame",
    "FrameDecoder",
    "OPCODES",
    "PROTOCOL_VERSION",
    "decode_frame",
    "encode_frame",
    "Server",
    "ServerConfig",
    "ServingRequest",
    "TenantConfig",
    "TenantSLO",
    "jain_fairness",
]
