"""Multi-session interleaving smoke driver for the lock sanitizer.

The cluster is single-threaded over :class:`SimClock`, but the MVCC
arc needs its locking protocol proved *before* real threads arrive.
This driver runs N logical sessions round-robin — each session is a
scripted client workload, and every operation runs inside
``sanitizer.session(label)`` so the :class:`LockOrderSanitizer` keys
acquisition stacks per session.  Cooperative interleaving is enough to
exercise every lock *pairing* the protocol allows (master before
chunkserver, journal under both), which is exactly what the static
lock-order graph predicts; :func:`repro.locks.check_agreement`
then cross-checks observed edges against the static ones.

``inject_inversion=True`` deliberately acquires a rank-2 client-tier
lock and *then* the rank-0 master lock — the canonical inversion both
the static CONC002 pass and the runtime sanitizer must catch.

:func:`run_mvcc_sessions` is the MVCC-era sibling: a seeded random
workload of N concurrent engine sessions over shared files, recording
a full history for the snapshot-isolation checker and exercising the
rank-3 per-inode commit locks under the sanitizer.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.locks import LOCK_TIERS, LockOrderSanitizer, TrackedLock
from repro.core.engine import CompressDB
from repro.distributed.cluster import Cluster, build_replicated_cluster
from repro.mvcc import Session, WriteConflict
from repro.storage.block_device import MemoryBlockDevice

#: One session's scripted workload: (op, *args) tuples consumed round-robin.
_OPS_PER_ROUND = 1


def _session_script(label: str) -> list[tuple]:
    """A small create/append/read/search/insert/delete/unlink workload."""
    path = f"/{label}/data.bin"
    payload = f"payload-{label}-".encode() * 40
    return [
        ("write_file", path, payload),
        ("append", path, b"tail-" + label.encode()),
        ("read", path, 0, 64),
        ("search", path, b"payload"),
        ("insert", path, 16, b"<ins>"),
        ("delete", path, 16, 5),
        ("unlink", path),
    ]


def _run_op(cluster: Cluster, op: tuple) -> None:
    name, args = op[0], op[1:]
    getattr(cluster.client, name)(*args)


def run_interleaved_sessions(
    sessions: int = 3,
    rounds: int = 2,
    sanitizer: Optional[LockOrderSanitizer] = None,
    inject_inversion: bool = False,
    cluster: Optional[Cluster] = None,
) -> Cluster:
    """Round-robin ``sessions`` scripted workloads over one cluster.

    Each operation is wrapped in ``sanitizer.session(label)`` (when a
    sanitizer is given) so acquisition stacks stay per-session.  Runs
    ``rounds`` full passes of every session's script.  Returns the
    cluster for inspection.
    """
    if cluster is None:
        cluster = build_replicated_cluster(nodes=3, masters=1)
    scripts = {
        f"s{index}": _session_script(f"s{index}r0") for index in range(sessions)
    }
    for round_no in range(rounds):
        if round_no:
            scripts = {
                label: _session_script(f"{label}r{round_no}") for label in scripts
            }
        cursors = {label: 0 for label in scripts}
        pending = True
        while pending:
            pending = False
            for label in sorted(scripts):
                script, at = scripts[label], cursors[label]
                if at >= len(script):
                    continue
                pending = True
                cursors[label] = at + _OPS_PER_ROUND
                for op in script[at : at + _OPS_PER_ROUND]:
                    if sanitizer is None:
                        _run_op(cluster, op)
                    else:
                        with sanitizer.session(label):
                            _run_op(cluster, op)
    if inject_inversion:
        _inject_inversion(cluster, sanitizer)
    return cluster


def _mvcc_step(
    session: Session, op: str, path: str, rng: random.Random
) -> Optional[str]:
    """Run one random operation; returns ``"commit"``/``"abort"`` when
    the operation closed the session, ``None`` while it stays open."""
    if op == "commit":
        session.commit()
        return "commit"
    if op == "abort":
        session.abort("driver abort")
        return "abort"
    size = session.file_size(path)
    if op == "read":
        session.read(path, rng.randrange(size + 1), 64)
    elif op == "write":
        payload = f"w{session.session_id}-".encode("ascii") * rng.randrange(1, 5)
        session.write(path, rng.randrange(size + 1), payload)
    elif op == "append":
        session.append(path, f"a{session.session_id}.".encode("ascii"))
    else:  # truncate
        session.truncate(path, rng.randrange(size + 1))
    return None


#: Weighted op mix of one driver step: read-heavy, with enough closes
#: that sessions keep turning over and conflicts actually happen.
_MVCC_OPS = ("read", "write", "append", "truncate", "commit", "abort")
_MVCC_WEIGHTS = (4, 3, 2, 1, 2, 1)


def run_mvcc_sessions(
    engine: Optional[CompressDB] = None,
    sessions: int = 4,
    steps: int = 48,
    seed: int = 0,
    sanitizer: Optional[LockOrderSanitizer] = None,
    shared_paths: int = 2,
    record_history: bool = True,
) -> dict:
    """Drive N concurrent MVCC sessions over shared files, deterministically.

    Each step picks a session slot and a weighted random operation
    (seeded ``random.Random``, so one seed is one exact history).  A
    slot whose session committed or aborted begins a fresh one on its
    next turn; every session left open at the end is committed (or
    counted aborted on a write conflict) and the group commit flushed.
    Operations run inside ``sanitizer.session(session)`` when a
    sanitizer is given, keying acquisition stacks by Session identity.

    Returns ``{"engine", "history", "initial", "committed",
    "aborted"}`` — ``history``/``initial`` feed
    :func:`repro.mvcc.check_history` directly.
    """
    if engine is None:
        engine = CompressDB.mount(MemoryBlockDevice(block_size=512), journal_blocks=32)
    rng = random.Random(seed)
    mvcc = engine.mvcc
    paths = [f"/mvcc-drv/shared{index:02d}.bin" for index in range(max(1, shared_paths))]
    for index, path in enumerate(paths):
        if not engine.exists(path):
            engine.create(path)
            engine.write(path, 0, f"seed-{index}-".encode("ascii") * 8)
    initial = {path: engine.read_file(path) for path in paths}
    if record_history:
        mvcc.start_recording()
    active: dict[int, Optional[Session]] = {slot: None for slot in range(sessions)}
    committed = 0
    aborted = 0
    for __ in range(steps):
        slot = rng.randrange(sessions)
        session = active[slot]
        if session is None:
            session = mvcc.begin()
            active[slot] = session
        op = rng.choices(_MVCC_OPS, weights=_MVCC_WEIGHTS)[0]
        path = paths[rng.randrange(len(paths))]
        try:
            if sanitizer is None:
                closed = _mvcc_step(session, op, path, rng)
            else:
                with sanitizer.session(session):
                    closed = _mvcc_step(session, op, path, rng)
        except WriteConflict:
            closed = "abort"
            aborted += 1
        else:
            if closed == "commit":
                committed += 1
            elif closed == "abort":
                aborted += 1
        if closed is not None:
            active[slot] = None
    for slot in sorted(active):
        session = active[slot]
        if session is None or not session.active:
            continue
        try:
            if sanitizer is None:
                session.commit()
            else:
                with sanitizer.session(session):
                    session.commit()
            committed += 1
        except WriteConflict:
            aborted += 1
    if mvcc.pending_group:
        mvcc.flush_group()
    history = mvcc.stop_recording() if record_history else []
    return {
        "engine": engine,
        "history": history,
        "initial": initial,
        "committed": committed,
        "aborted": aborted,
    }


def _inject_inversion(
    cluster: Cluster, sanitizer: Optional[LockOrderSanitizer]
) -> None:
    """Acquire client-tier (rank 2) then master (rank 0): a deliberate
    inversion of the declared order, for exercising detection paths."""
    inject = TrackedLock("client.inject.lock", rank=LOCK_TIERS["client"])
    label = "inject"
    if sanitizer is None:
        with inject:
            with cluster.master.lock:
                pass
        return
    with sanitizer.session(label):
        with inject:
            with cluster.master.lock:
                pass
