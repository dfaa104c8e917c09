"""Deterministic metadata state machine replicated by the Raft log.

Every mutation of cluster metadata — namespace entries, chunk maps,
placements, server membership — is a **command**: an opcode plus
arguments, canonically encoded (sorted keys, fixed separators) so the
same command produces identical bytes on every node.  Commands are
appended to the Raft log and applied, in log order, to a plain
:class:`~repro.distributed.master.Master` on each replica.  Raft's
guarantee (identical committed logs) plus determinism (identical apply
results) is what makes the replicas interchangeable after a leader
crash.

Which opcode runs which ``Master`` mutator is one column of
:data:`~repro.distributed.master.METADATA_PLANE`, which every replica
carries as ``Master.LOG_MUTATORS``; the apply step here is a lookup in
it, and this package imports nothing of :mod:`repro.distributed` at
import time (its package init imports the Raft node back).  A snapshot
is the whole ``Master`` state as canonical JSON (:func:`encode_state`),
read back by :meth:`MetadataStateMachine.restore`.  The apply *bodies* are
therefore the ``Master`` mutators, and the determinism rules (enforced
by reprolint DET001 on this module and on
:mod:`repro.distributed.master`) bind them:

* no wall-clock reads — any time-dependent argument is computed by the
  *proposer* and carried inside the command;
* no module-level ``random`` — nondeterministic choices are likewise
  resolved at propose time, never during apply;
* no dict-iteration-order dependence — anything iterated is sorted.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import TYPE_CHECKING, Any

from repro.fs.errors import FileExists, FileNotFound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.distributed.master import Master


class CommandError(Exception):
    """A malformed or unknown replicated command."""


def encode_command(op: str, **args: Any) -> bytes:
    """Canonical command bytes: identical on every proposer."""
    return json.dumps(
        {"op": op, "args": args}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_command(raw: bytes) -> tuple[str, dict]:
    """The ``(op, args)`` of command bytes; :class:`CommandError` for
    anything that is not a JSON object with a string op and an object
    of args."""
    try:
        record = json.loads(raw.decode("utf-8"))
        op, args = record["op"], record["args"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CommandError(f"undecodable command: {raw[:64]!r}") from exc
    if not isinstance(op, str) or not isinstance(args, dict):
        raise CommandError(f"malformed command: {raw[:64]!r}")
    return op, args


class MetadataStateMachine:
    """Applies decoded commands to one replica's :class:`Master` state.

    ``apply`` must be called with committed entries only, in log
    order, exactly once per index — the Raft node guarantees all
    three.  Results are the live metadata objects of *this* replica
    (the leader's results flow back to the proposing client).
    """

    def __init__(self, master: Master) -> None:
        self.master = master
        #: Highest log index applied — the replica's apply cursor.
        self.applied_index = 0

    def apply(self, index: int, command: bytes) -> Any:
        if index != self.applied_index + 1:
            raise CommandError(
                f"apply out of order: index {index} after {self.applied_index}"
            )
        op, args = decode_command(command)
        mutators = self.master.LOG_MUTATORS
        if op == "noop":  # leader barrier: commits the preceding term's tail
            result = None
        elif op in mutators:
            try:
                result = getattr(self.master, mutators[op])(**args)
            except (FileExists, FileNotFound, ValueError) as rejected:
                # A rejected command is a result, not a failed apply: the
                # mutators validate before they mutate, so it is the same
                # no-op on every replica, and only its proposer sees it
                # raised (RaftNode.propose).  Raised here it would stop
                # every replica's apply cursor at this index for good.
                result = rejected
        else:
            raise CommandError(f"unknown command op {op!r}")
        self.applied_index = index
        return result

    def restore(self, index: int, snapshot: bytes) -> None:
        """Replace this replica's state by ``snapshot``: the state that
        applying entries 1..``index`` produced."""
        # Imported here: repro.distributed's package init imports us.
        from repro.distributed.master import ChunkInfo, FileEntry

        self.master.lock.require_held()
        try:
            state = json.loads(snapshot.decode("utf-8"))
            files = {
                path: FileEntry(
                    path, [ChunkInfo(*chunk) for chunk in state["files"][path]]
                )
                for path in sorted(state["files"])
            }
            values = [state[name] for name in _IMAGED]
        except (ValueError, KeyError, TypeError) as exc:
            raise CommandError(f"undecodable snapshot at {index}") from exc
        for name, value in zip(_IMAGED, values):
            setattr(self.master, name, value)
        self.master._files = files
        self.applied_index = index


#: The ``Master`` attributes a snapshot stores as they are, besides its
#: files.  ``server_names`` keeps membership order: the facades serve it.
_IMAGED = (
    "_domains", "_next_chunk", "_server_load", "chunk_capacity",
    "chunk_prefix", "placement_epoch", "replication", "server_names",
)


def snapshot_state(master: Master) -> dict:
    """The whole state of a replica: what a snapshot stores and
    :func:`state_digest` hashes.  Lists keep their order; dicts are
    sorted when encoded."""
    state = {name: copy.copy(getattr(master, name)) for name in _IMAGED}
    state["files"] = {
        path: [[c.chunk_id, list(c.servers), c.length] for c in master.lookup(path).chunks]
        for path in master.list_files()
    }
    return state


def encode_state(master: Master) -> bytes:
    """Canonical snapshot bytes of a replica's state."""
    return json.dumps(
        snapshot_state(master), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def state_digest(master: Master) -> str:
    """Stable digest for replica-convergence assertions."""
    return hashlib.sha256(encode_state(master)).hexdigest()


__all__ = [
    "CommandError",
    "MetadataStateMachine",
    "decode_command",
    "encode_command",
    "encode_state",
    "snapshot_state",
    "state_digest",
]
