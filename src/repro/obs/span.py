"""Hierarchical timing spans and the :class:`Tracer`.

The allocator used to time its phases with hand-rolled
``time.perf_counter()`` pairs scattered through ``allocate`` and
``allocate_local``.  Those pairs are now spans: every phase opens a
:class:`Span` on the tracer's stack, and the resulting tree *is* the
timing record — Table 2's per-round phase times are read straight off
it (see :mod:`repro.regalloc.allocator`).

Two tracer flavors share one interface:

* :class:`Tracer` — records the span tree always, and decision events
  only when constructed with ``capture_events=True``.  Span bookkeeping
  costs the same two ``perf_counter`` calls the old timing pairs did,
  so the tree is free relative to the seed implementation.
* :data:`NULL_TRACER` — the module-level no-op used as the default of
  every pass-level entry point (simplify, select, coalesce, spill
  costs).  Its spans do nothing and ``events_enabled`` is ``False``,
  so the disabled path in hot loops is one attribute check.

Event payloads are the typed dataclasses of :mod:`repro.obs.events`;
the tracer treats them opaquely and attaches them to the innermost
open span.
"""

from __future__ import annotations

import time
from typing import Any, Iterator


class Span:
    """One timed region: a name, attributes, events, child spans."""

    __slots__ = ("name", "attrs", "start", "end", "children", "events")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None,
                 start: float = 0.0, end: float = 0.0) -> None:
        self.name = name
        self.attrs: dict[str, Any] = attrs or {}
        self.start = start
        self.end = end
        self.children: list[Span] = []
        self.events: list[Any] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def child(self, name: str) -> "Span | None":
        """The first direct child named *name* (``None`` if absent)."""
        for span in self.children:
            if span.name == name:
                return span
        return None

    def children_named(self, name: str) -> list["Span"]:
        return [span for span in self.children if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the direct children named *name*."""
        return sum(span.duration for span in self.children
                   if span.name == name)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def n_events(self) -> int:
        return sum(len(span.events) for span in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Span {self.name} {self.duration * 1e3:.3f}ms "
                f"children={len(self.children)} events={len(self.events)}>")


def json_safe(value: Any) -> Any:
    """*value* if it is ``None`` or exactly a JSON scalar type, else its
    ``str``.  The type test is exact so an ``int`` subclass such as
    :class:`~repro.ir.Reg` renders by name (``r3``), not as its code."""
    if value is None or type(value) in (bool, int, float, str):
        return value
    return str(value)


def span_to_payload(span: Span) -> dict[str, Any]:
    """A JSON/pickle-safe dict of *span* and its subtree (no events).

    The worker side of the engine ships its execution span tree back
    through the supervisor ``Pipe`` in this form, and the flight
    recorder's ``debug`` dumps use it too: plain dicts survive any
    transport and tolerate schema drift between reader and writer.
    """
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attrs": {k: json_safe(v) for k, v in span.attrs.items()},
        "children": [span_to_payload(child) for child in span.children],
    }


def span_from_payload(payload: dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from :func:`span_to_payload` form."""
    span = Span(payload.get("name", "?"), payload.get("attrs") or None,
                start=payload.get("start", 0.0),
                end=payload.get("end", 0.0))
    for child in payload.get("children", ()):
        span.children.append(span_from_payload(child))
    return span


def shift_span(span: Span, delta: float) -> None:
    """Translate *span* and its subtree by *delta* seconds, in place —
    the clock-rebasing step when stitching a worker-process span tree
    into the supervising process's timeline."""
    span.start += delta
    span.end += delta
    for child in span.children:
        shift_span(child, delta)


def clamp_span(span: Span, start: float, end: float) -> None:
    """Clamp *span* and its subtree into ``[start, end]``, in place.

    After rebasing across a process boundary the shifted tree can
    protrude past its parent by the (unknowable) transport delay;
    clamping restores the well-nestedness invariant the trace
    consumers assert.
    """
    span.start = min(max(span.start, start), end)
    span.end = min(max(span.end, span.start), end)
    for child in span.children:
        clamp_span(child, span.start, span.end)


class _OpenSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *_exc) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Records a span tree, and (optionally) decision events.

    Args:
        capture_events: record the typed decision events emitted by the
            allocation passes.  Off by default: spans alone reproduce
            the old phase timings and keep the per-copy / per-node hot
            paths at a single ``events_enabled`` attribute check.
    """

    __slots__ = ("events_enabled", "roots", "_stack", "_clock")

    def __init__(self, capture_events: bool = False,
                 clock=time.perf_counter) -> None:
        self.events_enabled = capture_events
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock

    @property
    def root(self) -> Span:
        """The first root span (raises if nothing was traced)."""
        return self.roots[0]

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a child span of the innermost open span."""
        span = Span(name, attrs or None, start=self._clock())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _OpenSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        assert popped is span, "span exited out of order"

    def event(self, event: Any) -> None:
        """Attach *event* to the innermost open span (if events are on)."""
        if self.events_enabled and self._stack:
            self._stack[-1].events.append(event)


class _NullSpan:
    """Shared inert span: context-manages to itself, records nothing."""

    __slots__ = ()
    name = "null"
    attrs: dict[str, Any] = {}
    start = end = duration = 0.0
    children: list[Span] = []
    events: list[Any] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Pass-level entry points default to the shared :data:`NULL_TRACER`
    instance, so untraced calls pay one ``events_enabled`` attribute
    check per guarded block and a constant-returning ``span()`` per
    phase — nothing is allocated, nothing is timed.
    """

    __slots__ = ()
    events_enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, event: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

#: the module-level no-op tracer (the default everywhere)
NULL_TRACER = NullTracer()
