"""Differential property test: every file-system stack vs a Python model.

The adaptability claim of the paper rests on CompressFS — and every
wrapper a deployment puts over it — being observationally identical to
a plain file system through the VFS.  This stateful test drives
PassthroughFS, CompressFS, the LZ4 overlay, a session view, a tenant
namespace and a tenant namespace over a session, plus a plain
``dict[str, bytearray]`` model, through one random operation stream and
requires every observable outcome to agree: the value an operation
returns, or the *type* of the ``repro.fs.errors`` exception it raises —
while CompressFS's internal invariants keep holding.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fs import (
    CompressFS,
    FSError,
    FileExists,
    FileNotFound,
    InvalidArgument,
    O_CREAT,
    O_EXCL,
    O_RDWR,
    PassthroughFS,
)
from repro.fs.overlay_lz4 import CompressedOverlayFS
from repro.fs.sessionfs import SessionFS
from repro.serving import NamespaceFS

_NAMES = st.sampled_from(["/a", "/b", "/dir/c", "/dir/d"])
_DATA = st.binary(max_size=150)
#: Mostly inside the file, sometimes past its end, sometimes negative.
_POSITION = st.floats(-0.2, 1.2)


class _Model:
    """``dict[str, bytearray]`` with the VFS's error vocabulary."""

    def __init__(self):
        self.files: dict[str, bytearray] = {}

    def _file(self, path):
        if path not in self.files:
            raise FileNotFound(path)
        return self.files[path]

    def write_file(self, path, data):
        self.files[path] = bytearray(data)

    def create_exclusive(self, path):
        if path in self.files:
            raise FileExists(path)
        self.files[path] = bytearray()

    def pwrite(self, path, offset, data):
        reference = self._file(path)
        if offset < 0:
            raise InvalidArgument
        if data:  # POSIX: zero-length writes never extend the file
            if offset > len(reference):
                reference.extend(b"\x00" * (offset - len(reference)))
            reference[offset : offset + len(data)] = data
        return len(data)

    def append_file(self, path, data):
        self.files.setdefault(path, bytearray()).extend(data)

    def truncate(self, path, size):
        reference = self._file(path)
        if size < 0:
            raise InvalidArgument
        if size < len(reference):
            del reference[size:]
        else:
            reference.extend(b"\x00" * (size - len(reference)))

    def unlink(self, path):
        self._file(path)
        del self.files[path]

    def rename(self, old, new):
        self._file(old)
        self.files[new] = self.files.pop(old)

    def pread(self, path, offset, size):
        reference = self._file(path)
        if offset < 0:
            raise InvalidArgument
        return bytes(reference[offset : offset + size])


def _outcome(call):
    """What a caller can observe: the value, or the typed error."""
    try:
        return ("ok", call())
    except FSError as exc:
        return ("error", type(exc))


def _create_exclusive(fs, path):
    fs.close(fs.open(path, O_RDWR | O_CREAT | O_EXCL))


class FSDifferential(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.plain = PassthroughFS(block_size=32)
        self.compress = CompressFS(block_size=32, page_capacity=3)
        session_base = CompressFS(block_size=32, page_capacity=3)
        tenant_base = CompressFS(block_size=32, page_capacity=3)
        self.stacks = (
            self.plain,
            self.compress,
            CompressedOverlayFS(PassthroughFS(block_size=32), segment_bytes=64),
            SessionFS(session_base, session_base.engine.mvcc.begin()),
            NamespaceFS(CompressFS(block_size=32, page_capacity=3), "t"),
            NamespaceFS(SessionFS(tenant_base, tenant_base.engine.mvcc.begin()), "t"),
        )
        self.model = _Model()

    def _agree(self, on_model, on_fs):
        """Apply one operation everywhere; every outcome must match."""
        expected = _outcome(on_model)
        for fs in self.stacks:
            got = _outcome(lambda: on_fs(fs))
            assert got == expected, f"{type(fs).__name__}: {got} != {expected}"

    def _offset(self, path, position):
        return int(position * (len(self.model.files.get(path, b"")) + 1))

    @rule(path=_NAMES, data=_DATA)
    def write_file(self, path, data):
        self._agree(
            lambda: self.model.write_file(path, data),
            lambda fs: fs.write_file(path, data),
        )

    @rule(path=_NAMES)
    def create_exclusive(self, path):
        self._agree(
            lambda: self.model.create_exclusive(path),
            lambda fs: _create_exclusive(fs, path),
        )

    @rule(path=_NAMES, data=_DATA, position=_POSITION)
    def pwrite(self, path, data, position):
        offset = self._offset(path, position)
        self._agree(
            lambda: self.model.pwrite(path, offset, data),
            lambda fs: fs._pwrite(path, offset, data),
        )

    @rule(path=_NAMES, data=_DATA)
    def append(self, path, data):
        self._agree(
            lambda: self.model.append_file(path, data),
            lambda fs: fs.append_file(path, data),
        )

    @rule(path=_NAMES, position=_POSITION)
    def truncate(self, path, position):
        size = int(position * (len(self.model.files.get(path, b"")) + 8))
        self._agree(
            lambda: self.model.truncate(path, size),
            lambda fs: fs.truncate(path, size),
        )

    @rule(path=_NAMES)
    def unlink(self, path):
        self._agree(lambda: self.model.unlink(path), lambda fs: fs.unlink(path))

    @rule(old=_NAMES, new=_NAMES)
    def rename(self, old, new):
        self._agree(
            lambda: self.model.rename(old, new),
            lambda fs: fs.rename(old, new),
        )

    @rule(path=_NAMES, position=_POSITION, size=st.integers(0, 120))
    def pread(self, path, position, size):
        offset = self._offset(path, position)
        self._agree(
            lambda: self.model.pread(path, offset, size),
            lambda fs: fs._pread(path, offset, size),
        )

    @invariant()
    def whole_files_match(self):
        for path, reference in self.model.files.items():
            for fs in self.stacks:
                assert fs.read_file(path) == bytes(reference)
                assert fs.stat(path).size == len(reference)

    @invariant()
    def listings_match(self):
        expected = sorted(self.model.files)
        for fs in self.stacks:
            assert fs.listdir() == expected

    @invariant()
    def compressfs_invariants_hold(self):
        self.compress.engine.check_invariants()

    @invariant()
    def compressfs_never_stores_more_unique_blocks(self):
        # Dedup can only reduce the distinct-block count.
        plain_blocks = self.plain.physical_bytes()
        compress_blocks = self.compress.physical_bytes()
        assert compress_blocks <= plain_blocks


FSDifferentialTest = FSDifferential.TestCase
FSDifferentialTest.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
