"""Nestable spans with deterministic ids over the simulated clock.

A :class:`Tracer` records :class:`Span` intervals in a bounded ring
buffer.  Timestamps come from the shared
:class:`~repro.storage.simclock.SimClock`, so traces are deterministic:
the same workload produces byte-identical span timings run after run.
Span ids are a process-local monotone sequence for the same reason.

Nesting is lexical — ``with tracer.span("engine.write"): ...`` — and
the parent of a span is whatever span is open on the tracer when it
starts, which is how one trace connects VFS → engine → compressor →
journal → device (and client → chunkserver in the cluster): each layer
opens its own span inside its caller's.

Tracing is off by default; a disabled tracer returns a shared no-op
context manager, so the instrumented hot paths cost one branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from typing import Optional

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One completed (or open) traced interval."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = -1.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, **attrs) -> None:
        """Attach attributes learned while the span is open."""
        self.attrs.update(attrs)


class _NullSpan:
    """Shared no-op context manager for a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager driving one span's lifecycle on its tracer."""

    __slots__ = ("tracer", "name", "attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self.tracer._open(self.name, self.attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.span is not None
        if exc_type is not None:
            self.span.attrs["error"] = exc_type.__name__
        self.tracer._close(self.span)
        return False


class Tracer:
    """Span recorder with a bounded ring buffer.

    ``clock`` may be attached lazily (set :attr:`clock` before the
    first span); without one, spans carry zero timestamps but keep
    their ids and parent links, which is still enough for structural
    assertions.
    """

    def __init__(
        self,
        clock=None,
        capacity: int = 4096,
        enabled: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self.enabled = enabled
        self._next_id = 1
        self._stack: list[Span] = []
        self._ring: deque[Span] = deque(maxlen=capacity)

    # -- recording ----------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a nested span: ``with tracer.span("engine.write", path=p):``."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start=self._now(),
            attrs=attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._now()
        # ``with`` blocks unwind LIFO, so the closing span is the top of
        # the stack; a generator abandoned mid-span could leave deeper
        # entries, which are closed (zero-length tail) alongside it.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.end = top.end if top.end >= 0 else span.end
            self._ring.append(top)
        self._ring.append(span)

    # -- inspection ---------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def spans(self) -> list[Span]:
        """Completed spans, oldest first (bounded by ``capacity``)."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self._stack.clear()
