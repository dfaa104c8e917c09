"""Raft consensus for the replicated metadata plane.

Layer map (DESIGN.md §15): :mod:`repro.raft.log` persists terms, votes
and entries as a packed record stream; :mod:`repro.raft.node` runs
elections, replication and commit; :mod:`repro.raft.statemachine`
turns committed commands into :class:`~repro.distributed.master.Master`
mutations.  :mod:`repro.distributed.replicated` assembles nodes into a
master group behind a ``Master``-compatible facade.
"""

from repro.raft.log import LogEntry, RaftLog, RaftLogError
from repro.raft.node import (
    CANDIDATE,
    FOLLOWER,
    LEADER,
    NodeCrashed,
    NotLeaderError,
    RaftConfig,
    RaftNode,
    RaftTransport,
)
from repro.raft.statemachine import (
    CommandError,
    MetadataStateMachine,
    decode_command,
    encode_command,
    snapshot_state,
    state_digest,
)

__all__ = [
    "CANDIDATE",
    "CommandError",
    "FOLLOWER",
    "LEADER",
    "LogEntry",
    "MetadataStateMachine",
    "NodeCrashed",
    "NotLeaderError",
    "RaftConfig",
    "RaftLog",
    "RaftLogError",
    "RaftNode",
    "RaftTransport",
    "decode_command",
    "encode_command",
    "snapshot_state",
    "state_digest",
]
