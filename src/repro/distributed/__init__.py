"""MooseFS-like distributed layer: master, chunk servers, client.

The metadata plane has one build: each shard is a Raft
:class:`~repro.distributed.replicated.MasterGroup` of ``masters``
replicas (one is MooseFS's single master, with a durable log) behind
the :class:`~repro.distributed.replicated.ReplicatedMaster` facade,
and several shards sit behind a fixed consistent-hash ring
(:class:`~repro.distributed.shardmap.ShardedMaster`).  A plain
:class:`Master` is each replica's local state.
"""

from repro.distributed.chunkserver import ChunkServer, ServerDown
from repro.distributed.client import ClusterClient, NoLiveReplica
from repro.distributed.cluster import Cluster, build_replicated_cluster
from repro.distributed.interleave import run_interleaved_sessions
from repro.distributed.master import (
    ChunkInfo,
    FileEntry,
    Master,
)
from repro.distributed.replicated import MasterGroup, ReplicatedMaster
from repro.distributed.shardmap import ShardMap, ShardedMaster
from repro.raft.node import NotLeaderError

__all__ = [
    "ChunkInfo",
    "ChunkServer",
    "Cluster",
    "ClusterClient",
    "FileEntry",
    "Master",
    "MasterGroup",
    "NoLiveReplica",
    "NotLeaderError",
    "ReplicatedMaster",
    "ServerDown",
    "ShardMap",
    "ShardedMaster",
    "build_replicated_cluster",
    "run_interleaved_sessions",
]
