"""The six named workloads (later issues refer to these names)."""

from .cluster_rw import ClusterRw
from .db_mix import DbMix
from .direct_ops import DirectOps
from .kv_serving import KvServing
from .scan_agg import ScanAgg
from .txn_sessions import TxnSessions

WORKLOADS = {
    cls.name: cls for cls in (DbMix, ScanAgg, DirectOps, KvServing, TxnSessions, ClusterRw)
}
