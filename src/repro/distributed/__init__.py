"""MooseFS-like distributed layer: master, chunk servers, client.

The metadata plane comes in two builds: a single in-process
:class:`Master` (the original SPOF) and the replicated plane — a Raft
:class:`~repro.distributed.replicated.MasterGroup` behind the
:class:`~repro.distributed.replicated.ReplicatedMaster` facade,
optionally sharded by consistent hashing
(:class:`~repro.distributed.shardmap.ShardedMaster`).
"""

from repro.distributed.chunkserver import ChunkServer, ServerDown
from repro.distributed.client import ClusterClient, NoLiveReplica
from repro.distributed.cluster import (
    Cluster,
    ReplicatedCluster,
    build_cluster,
    build_replicated_cluster,
)
from repro.distributed.interleave import run_interleaved_sessions
from repro.distributed.master import (
    ChunkInfo,
    FileEntry,
    Master,
)
from repro.distributed.replicated import MasterGroup, ReplicatedMaster
from repro.distributed.shardmap import (
    ClientShardCache,
    ShardMap,
    ShardedMaster,
    StaleShardMap,
)
from repro.raft.node import NotLeaderError

__all__ = [
    "ChunkInfo",
    "ChunkServer",
    "ClientShardCache",
    "Cluster",
    "ClusterClient",
    "FileEntry",
    "Master",
    "MasterGroup",
    "NoLiveReplica",
    "NotLeaderError",
    "ReplicatedCluster",
    "ReplicatedMaster",
    "ServerDown",
    "ShardMap",
    "ShardedMaster",
    "StaleShardMap",
    "build_cluster",
    "build_replicated_cluster",
    "run_interleaved_sessions",
]
