"""The lock order, and the locks that obey it.

One table (:data:`LOCK_TIERS`) declares the acquisition order of every
ranked lock in the program::

    serving (-1)  →  master (0)  →  chunkserver (1)  →  client (2)
    →  inode (3)

Runtime components build their locks as :class:`TrackedLock` instances
(:func:`tracked_lock`) naming a tier from that table; the static side
(``repro lint``: LOCK001 ranks and CONC002 cycles over one derived
lock-order graph) imports the same table, so the two cannot drift.
This module sits at layer rank 0 and imports nothing from ``repro``:
the runtime never depends on its linter.

:class:`LockOrderSanitizer` is the dynamic twin of the static graph.
It is opt-in and free when off:

* ``repro lint --sanitize`` installs one, runs the multi-session
  interleaving smoke workload, and cross-checks the observed edges
  against the static graph (:func:`check_agreement`);
* setting ``REPRO_SANITIZE=1`` in the environment installs one at
  import time, so any test run records (and enforces) lock order;
* with none installed, a :class:`TrackedLock` costs one ``None`` check
  per acquisition.

Each lock carries an ``order_key`` (the runtime spelling of the static
canonical name) and a tier ``rank``.  The sanitizer keeps one
acquisition stack per ``(thread, logical session)`` — SimClock
interleaving is cooperative, so logical sessions on one thread are
distinguished with the :meth:`LockOrderSanitizer.session` context
manager — and raises :class:`LockOrderViolation` on:

* re-acquisition of a held non-reentrant lock (self-deadlock);
* acquiring a lower-or-equal-ranked lock while a ranked lock is held
  (tier inversion);
* acquiring the reverse of an edge in the static graph (the runtime
  witness CONC002 would need to see the cycle).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

#: The declared lock order: tier keyword -> rank, outermost first.  A
#: lock's tier is the first keyword its name contains, so "serving" is
#: listed before "server" (serving-layer names contain both).  The
#: serving dispatch lock ranks below every cluster tier because it is
#: held across engine calls; ``inode`` is the per-inode MVCC write lock
#: taken during session commit — always innermost, so commits can run
#: under any cluster lock but never the reverse.  Unranked locks nest
#: freely.
LOCK_TIERS = {
    "serving": -1,
    "master": 0,
    "chunk": 1,
    "server": 1,
    "client": 2,
    "inode": 3,
}


def rank_of(name: str) -> Optional[int]:
    """Tier rank of a lock name (runtime order key or static canonical
    name); ``None`` when it names no tier."""
    lowered = name.lower()
    for keyword, rank in LOCK_TIERS.items():
        if keyword in lowered:
            return rank
    return None


class LockOrderViolation(RuntimeError):
    """The observed acquisition order contradicts the declared one."""


class LockContractError(RuntimeError):
    """A ``require_held`` guard ran without its lock held."""


@dataclass
class _Context:
    """Acquisition stack of one (thread, logical session)."""

    stack: list["TrackedLock"] = field(default_factory=list)


class LockOrderSanitizer:
    """Records per-context acquisition stacks and enforces lock order."""

    def __init__(
        self,
        static_edges: Optional[Sequence[tuple[str, str]]] = None,
        raise_on_violation: bool = True,
    ) -> None:
        #: static (outer, inner) edges to cross-check against; reversed
        #: observations are violations even when both locks are unranked.
        self.static_edges = frozenset(static_edges or ())
        self.raise_on_violation = raise_on_violation
        self.violations: list[str] = []
        self._contexts: dict[tuple[int, Optional[str]], _Context] = {}
        self._edges: set[tuple[str, str]] = set()
        self._local = threading.local()
        self._mutex = threading.Lock()

    # -- logical sessions ---------------------------------------------------
    @contextmanager
    def session(self, session: object) -> Iterator[None]:
        """Tag the current thread as running one logical session.

        SimClock interleaving runs many sessions on one OS thread; the
        tag keeps their acquisition stacks separate, exactly like the
        per-session symbol the static analysis reasons about.

        Accepts an MVCC :class:`~repro.mvcc.session.Session` (keyed by
        its stable ``session_key`` identity) or any label string for
        drivers without real session objects.
        """
        label = getattr(session, "session_key", session)
        previous = getattr(self._local, "session", None)
        self._local.session = label
        try:
            yield
        finally:
            self._local.session = previous

    def context_key(self) -> tuple[int, Optional[str]]:
        return (threading.get_ident(), getattr(self._local, "session", None))

    def _context(self) -> _Context:
        key = self.context_key()
        with self._mutex:
            return self._contexts.setdefault(key, _Context())

    # -- enforcement --------------------------------------------------------
    def note_acquire(self, lock: "TrackedLock") -> None:
        context = self._context()
        for held in context.stack:
            if held is lock:
                self._violate(
                    f"re-acquisition of {lock.order_key!r} in one context — "
                    "self-deadlock for a non-reentrant Lock"
                )
                continue
            if (
                held.rank is not None
                and lock.rank is not None
                and held.order_key != lock.order_key
                and lock.rank <= held.rank
            ):
                self._violate(
                    f"lock order inversion: {lock.order_key!r} (rank "
                    f"{lock.rank}) acquired while holding {held.order_key!r} "
                    f"(rank {held.rank})"
                )
            if (lock.order_key, held.order_key) in self.static_edges:
                self._violate(
                    f"observed {held.order_key!r} -> {lock.order_key!r} "
                    "reverses an edge of the static lock-order graph"
                )
            with self._mutex:
                self._edges.add((held.order_key, lock.order_key))
        context.stack.append(lock)

    def note_release(self, lock: "TrackedLock") -> None:
        context = self._context()
        if lock in context.stack:
            context.stack.remove(lock)

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.raise_on_violation:
            raise LockOrderViolation(message)

    # -- reporting ----------------------------------------------------------
    def observed_edges(self) -> set[tuple[str, str]]:
        with self._mutex:
            return set(self._edges)


#: The installed sanitizer, if any.  Module-level mutable state is safe
#: here: installation happens before workloads start, under test or CLI
#: control, single-threaded.
_ACTIVE: Optional[LockOrderSanitizer] = None


def install_sanitizer(sanitizer: LockOrderSanitizer) -> LockOrderSanitizer:
    global _ACTIVE
    _ACTIVE = sanitizer
    return sanitizer


def uninstall_sanitizer() -> None:
    global _ACTIVE
    _ACTIVE = None


def current_sanitizer() -> Optional[LockOrderSanitizer]:
    return _ACTIVE


class TrackedLock:
    """A non-reentrant lock that reports acquisitions to the sanitizer.

    ``order_key`` is the runtime identity matched against the static
    lock-order graph; ``rank`` is the cluster tier (None = unranked,
    nests freely).  Helpers that mutate shared state without taking
    the lock themselves declare the caller's obligation with
    ``require_held()``: the static CONC001 pass recognizes the call, and
    it is also checked at run time while a sanitizer is installed.
    """

    __slots__ = ("name", "order_key", "rank", "_lock", "_owner")

    def __init__(
        self,
        name: str,
        rank: Optional[int] = None,
        order_key: Optional[str] = None,
    ) -> None:
        self.name = name
        self.order_key = order_key or name
        self.rank = rank if rank is not None else rank_of(self.order_key)
        self._lock = threading.Lock()
        self._owner: Optional[tuple[int, Optional[str]]] = None

    def _context_key(self) -> tuple[int, Optional[str]]:
        sanitizer = _ACTIVE
        if sanitizer is not None:
            return sanitizer.context_key()
        return (threading.get_ident(), None)

    def __enter__(self) -> "TrackedLock":
        sanitizer = _ACTIVE
        if sanitizer is not None:
            sanitizer.note_acquire(self)
        self._lock.acquire()
        self._owner = self._context_key()
        return self

    def __exit__(self, *exc: object) -> None:
        self._owner = None
        self._lock.release()
        sanitizer = _ACTIVE
        if sanitizer is not None:
            sanitizer.note_release(self)

    def locked(self) -> bool:
        return self._lock.locked()

    def held_by_current_context(self) -> bool:
        """Whether the calling (thread, session) context holds this lock.

        Lets re-entrant composites (the replicated master group's
        propose/tick paths) acquire the lock only when the caller does
        not already own it, instead of deadlocking on a non-reentrant
        re-acquisition.
        """
        return self._owner is not None and self._owner == self._context_key()

    def require_held(self) -> None:
        """Assert (when a sanitizer is installed) that the current
        context holds this lock.

        Enforcement is gated on the sanitizer so single-session callers
        that drive components directly — every pre-concurrency test —
        keep working; sanitized runs (CI's smoke test, REPRO_SANITIZE=1)
        get the hard guarantee.
        """
        if _ACTIVE is None:
            return
        if self._owner != self._context_key():
            raise LockContractError(
                f"{self.order_key!r} must be held by the caller "
                "(see the cluster locking protocol in DESIGN.md §7)"
            )


def tracked_lock(
    name: str, rank: Optional[int] = None, order_key: Optional[str] = None
) -> TrackedLock:
    """The factory the runtime components use (one import site)."""
    return TrackedLock(name, rank=rank, order_key=order_key)


def check_agreement(
    static_edges: Sequence[tuple[str, str]],
    observed_edges: Sequence[tuple[str, str]],
) -> list[str]:
    """Do the static and observed lock-order graphs agree?

    Edges are first normalized to tier names (``master`` / ``chunk`` /
    ``client``, unranked keys kept verbatim) because the two sides spell
    lock identities differently (canonical static names vs runtime
    order keys).  Agreement means: no observed edge reverses a static
    edge (tier-wise), and the union of both graphs is acyclic.  Returns
    a list of problems — empty when the graphs agree.
    """

    # rank -> the first keyword declared for it.
    names = {rank: keyword for keyword, rank in reversed(LOCK_TIERS.items())}

    def tier_name(key: str) -> str:
        rank = rank_of(key)
        return key if rank is None else names[rank]

    def normalize(edges: Sequence[tuple[str, str]]) -> set[tuple[str, str]]:
        return {
            (tier_name(outer), tier_name(inner))
            for outer, inner in edges
            if tier_name(outer) != tier_name(inner)
        }

    static_norm = normalize(static_edges)
    observed_norm = normalize(observed_edges)
    problems = [
        f"observed edge {outer!r} -> {inner!r} reverses a static edge"
        for outer, inner in sorted(observed_norm)
        if (inner, outer) in static_norm
    ]
    problems += [
        f"observed edge {outer!r} -> {inner!r} inverts the declared tier order"
        for outer, inner in sorted(observed_norm)
        if outer in LOCK_TIERS
        and inner in LOCK_TIERS
        and LOCK_TIERS[inner] <= LOCK_TIERS[outer]
    ]
    combined = static_norm | observed_norm
    adjacency: dict[str, set[str]] = {}
    for outer, inner in combined:
        adjacency.setdefault(outer, set()).add(inner)

    visiting: set[str] = set()
    done: set[str] = set()

    def cyclic(node: str, trail: tuple[str, ...]) -> Optional[tuple[str, ...]]:
        if node in done:
            return None
        if node in visiting:
            return trail + (node,)
        visiting.add(node)
        for nxt in sorted(adjacency.get(node, ())):
            found = cyclic(nxt, trail + (node,))
            if found:
                return found
        visiting.discard(node)
        done.add(node)
        return None

    for node in sorted(adjacency):
        found = cyclic(node, ())
        if found:
            problems.append(
                "combined static+observed lock graph has a cycle: "
                + " -> ".join(found)
            )
            break
    return problems


if os.environ.get("REPRO_SANITIZE"):  # pragma: no cover - env-driven
    install_sanitizer(LockOrderSanitizer())
