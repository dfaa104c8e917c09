"""Per-tenant namespaces and quotas over the VFS.

Every tenant of the serving layer sees a private filesystem rooted at
``/t/<tenant>/`` inside the shared image.  :class:`NamespaceFS` is the
enforcement point: it maps client paths under the tenant root (so no
request can *name* another tenant's files, let alone read them) and
charges every allocation against the tenant's :class:`QuotaLedger`
(logical bytes, inode count, open descriptors).

The ledger is shared by every filesystem view of one tenant — the
plain namespace and any number of MVCC-session-scoped views — so a
transaction cannot dodge its quota by buffering writes.  Session views
charge a **provisional** child ledger (:meth:`QuotaLedger.provisional`)
that the server folds into the committed ledger when the session
commits, or drops when it aborts.

Layering note: this class implements the
:class:`~repro.fs.vfs.FileSystem` storage primitives by delegating to
the wrapped filesystem's primitives (``NamespaceFS(SessionFS(fs, s))``
is the transactional composition), takes ``block_size`` and ``obs``
from it, holds no device, and speaks only :mod:`repro.fs.errors` upward.
"""

from __future__ import annotations

from typing import Optional

from repro.fs import fd as fdmod
from repro.fs.errors import InvalidArgument, QuotaExceeded
from repro.fs.vfs import FileSystem

#: Prefix under which every tenant root lives in the shared image.
TENANT_ROOT_PREFIX = "/t"


def tenant_root(tenant: str) -> str:
    """The image path a tenant's namespace is rooted at."""
    if not tenant or any(sep in tenant for sep in ("/", "\x00")):
        raise InvalidArgument(f"invalid tenant name {tenant!r}")
    return f"{TENANT_ROOT_PREFIX}/{tenant}"


class QuotaLedger:
    """Usage accounting against fixed limits (``None`` = unlimited).

    A ledger may be **provisional**: a child whose deltas sit on top of
    its parent's committed usage.  Checks always consider the combined
    total, so a session cannot exceed quota that the committed state
    already consumed; :meth:`fold` merges a child into its parent at
    commit time.
    """

    def __init__(
        self,
        quota_bytes: Optional[int] = None,
        quota_inodes: Optional[int] = None,
        parent: Optional["QuotaLedger"] = None,
    ) -> None:
        self.quota_bytes = quota_bytes
        self.quota_inodes = quota_inodes
        self.parent = parent
        self._bytes = 0
        self._inodes = 0

    # -- views ----------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        base = self.parent.used_bytes if self.parent is not None else 0
        return base + self._bytes

    @property
    def used_inodes(self) -> int:
        base = self.parent.used_inodes if self.parent is not None else 0
        return base + self._inodes

    def provisional(self) -> "QuotaLedger":
        """A child ledger for one session's uncommitted allocations."""
        return QuotaLedger(
            quota_bytes=self.quota_bytes,
            quota_inodes=self.quota_inodes,
            parent=self,
        )

    # -- mutation -------------------------------------------------------------
    def charge(self, bytes_delta: int = 0, inodes_delta: int = 0) -> None:
        """Record a usage change, refusing growth past the limits."""
        if bytes_delta > 0 and self.quota_bytes is not None:
            if self.used_bytes + bytes_delta > self.quota_bytes:
                raise QuotaExceeded(
                    f"byte quota: {self.used_bytes} used + {bytes_delta} "
                    f"requested > {self.quota_bytes} allowed"
                )
        if inodes_delta > 0 and self.quota_inodes is not None:
            if self.used_inodes + inodes_delta > self.quota_inodes:
                raise QuotaExceeded(
                    f"inode quota: {self.used_inodes} used + {inodes_delta} "
                    f"requested > {self.quota_inodes} allowed"
                )
        self._bytes += bytes_delta
        self._inodes += inodes_delta

    def fold(self) -> None:
        """Merge this provisional ledger into its parent (at commit).

        The deltas were validated against the combined total when they
        were charged, so the fold itself never raises.
        """
        if self.parent is None:
            raise ValueError("fold() requires a provisional ledger")
        self.parent._bytes += self._bytes
        self.parent._inodes += self._inodes
        self._bytes = 0
        self._inodes = 0


def seed_ledger(fs: FileSystem, root: str, ledger: QuotaLedger) -> None:
    """Initialise a ledger from the files already under ``root``."""
    prefix = root + "/"
    for path in fs.listdir(prefix):
        ledger.charge(bytes_delta=fs.stat(path).size, inodes_delta=1)


class NamespaceFS(FileSystem):
    """A tenant's private, quota-enforced view of a shared filesystem."""

    def __init__(
        self,
        base: FileSystem,
        tenant: str,
        ledger: Optional[QuotaLedger] = None,
        fd_limit: Optional[int] = None,
    ) -> None:
        super().__init__(base.block_size, base.obs)
        self.base = base
        self.tenant = tenant
        self.root = tenant_root(tenant)
        self.ledger = ledger if ledger is not None else QuotaLedger()
        self.fd_limit = fd_limit

    # -- path mapping ---------------------------------------------------------
    def _map(self, path: str) -> str:
        if not path.startswith("/"):
            raise InvalidArgument(f"paths must be absolute, got {path!r}")
        if "\x00" in path or ".." in path.split("/"):
            raise InvalidArgument(f"malformed path {path!r}")
        return self.root + path

    def _unmap(self, mapped: str) -> str:
        return mapped[len(self.root):]

    # -- storage primitives, mapped + metered --------------------------------
    def _create(self, path: str) -> None:
        self.ledger.charge(inodes_delta=1)
        try:
            self.base._create(self._map(path))
        except BaseException:
            self.ledger.charge(inodes_delta=-1)
            raise

    def _unlink(self, path: str) -> None:
        mapped = self._map(path)
        size = self.base._size(mapped)
        self.base._unlink(mapped)
        self.ledger.charge(bytes_delta=-size, inodes_delta=-1)

    def _exists(self, path: str) -> bool:
        return self.base._exists(self._map(path))

    def _size(self, path: str) -> int:
        return self.base._size(self._map(path))

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        return self.base._pread(self._map(path), offset, size)

    def _preadv(self, requests: list[tuple[str, int, int]]) -> list[bytes]:
        return self.base._preadv(
            [(self._map(path), offset, size) for path, offset, size in requests]
        )

    def _grown_bytes(self, mapped: str, end: int) -> int:
        return max(0, end - self.base._size(mapped))

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        mapped = self._map(path)
        growth = self._grown_bytes(mapped, offset + len(data)) if data else 0
        self.ledger.charge(bytes_delta=growth)
        try:
            return self.base._pwrite(mapped, offset, data)
        except BaseException:
            self.ledger.charge(bytes_delta=-growth)
            raise

    def _pwritev(self, path: str, spans: list[tuple[int, bytes]]) -> int:
        mapped = self._map(path)
        end = max((offset + len(data) for offset, data in spans), default=0)
        growth = self._grown_bytes(mapped, end)
        self.ledger.charge(bytes_delta=growth)
        try:
            return self.base._pwritev(mapped, spans)
        except BaseException:
            self.ledger.charge(bytes_delta=-growth)
            raise

    def _truncate(self, path: str, size: int) -> None:
        mapped = self._map(path)
        delta = size - self.base._size(mapped)
        if delta > 0:
            self.ledger.charge(bytes_delta=delta)
            try:
                self.base._truncate(mapped, size)
            except BaseException:
                self.ledger.charge(bytes_delta=-delta)
                raise
        else:
            self.base._truncate(mapped, size)
            self.ledger.charge(bytes_delta=delta)

    def _sync(self, path: str) -> None:
        self.base._sync(self._map(path))

    def _list(self) -> list[str]:
        prefix = self.root + "/"
        return [
            self._unmap(path)
            for path in self.base._list()
            if path.startswith(prefix)
        ]

    # -- descriptor quota -----------------------------------------------------
    def open(
        self,
        path: str,
        flags: int = fdmod.O_RDONLY,
        snapshot: Optional[str] = None,
    ) -> int:
        if self.fd_limit is not None and len(self._fds.open_fds()) >= self.fd_limit:
            raise QuotaExceeded(
                f"tenant {self.tenant!r} descriptor quota "
                f"({self.fd_limit}) exhausted"
            )
        return super().open(path, flags, snapshot=snapshot)

    def release_fds(self) -> int:
        """Force-close every open descriptor (connection teardown)."""
        return self._fds.release_all()

    # -- namespace overrides --------------------------------------------------
    def rename(self, old: str, new: str) -> None:
        mapped_old, mapped_new = self._map(old), self._map(new)
        replaced = mapped_new != mapped_old and self.base._exists(mapped_new)
        replaced_size = self.base._size(mapped_new) if replaced else 0
        self.base.rename(mapped_old, mapped_new)
        if replaced:
            self.ledger.charge(bytes_delta=-replaced_size, inodes_delta=-1)

    # -- accounting -----------------------------------------------------------
    def physical_bytes(self) -> int:
        """Shared-device physical footprint (not tenant-attributable)."""
        return self.base.physical_bytes()

    def logical_bytes(self) -> int:
        return sum(self._size(path) for path in self._list())
