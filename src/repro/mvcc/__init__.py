"""MVCC sessions: snapshot isolation over the compression engine.

Built from the two halves earlier PRs supplied: ``repro.snap``'s
O(metadata) :class:`FrozenInode` freezes (point-in-time images whose
blocks are pinned, not copied) and the ranked ``TrackedLock`` protocol
(a new ``inode`` tier below master → chunkserver → client).  Readers
get repeatable, dirty-read-free snapshots; writers buffer privately and
commit first-committer-wins; the journal amortizes one 4-phase commit
sequence over every session in a group.  See DESIGN.md §13.
"""

from repro.mvcc.checker import HistoryEvent, check_history
from repro.mvcc.manager import (
    INODE_LOCK_ORDER_KEY,
    SessionManager,
)
from repro.mvcc.session import (
    CommitTicket,
    Session,
    SessionClosed,
    SessionError,
    SessionState,
    WriteConflict,
)
from repro.mvcc.versions import RetainedVersion, VersionStore

__all__ = [
    "CommitTicket",
    "HistoryEvent",
    "INODE_LOCK_ORDER_KEY",
    "RetainedVersion",
    "Session",
    "SessionClosed",
    "SessionError",
    "SessionManager",
    "SessionState",
    "VersionStore",
    "WriteConflict",
    "check_history",
]
