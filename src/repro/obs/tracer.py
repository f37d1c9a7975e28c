"""Hierarchical tracing: nestable spans from request down to kernel calls.

The tracer is a process-wide singleton reached through :func:`get_tracer`.
Two implementations share one interface:

* :class:`NullTracer` — the default.  ``span()`` returns a shared no-op
  context manager, so instrumented code opens its span unconditionally
  with ``with get_tracer().span(...):`` and the disabled path costs one
  method call and the no-op enter/exit (about a microsecond).
* :class:`Tracer` — the collecting implementation.  Each thread owns a
  bounded ring (``collections.deque(maxlen=...)``) registered once under a
  lock; recording a finished span is a lock-free append to the calling
  thread's ring.  Nesting is tracked per thread, so ``with span(...)``
  blocks form a tree without the caller threading parent ids around.

Spans are stored as plain JSON-safe dicts::

    {"name": ..., "trace_id": ..., "span_id": ..., "parent_id": ...,
     "start_s": ..., "duration_s": ..., "pid": ..., "thread": ...,
     "attrs": {...}}

``start_s`` / ``duration_s`` come from :func:`time.perf_counter`, which on
Linux is ``CLOCK_MONOTONIC`` — shared across processes since boot, so spans
collected in pool workers and re-parented into the host tracer
(:meth:`Tracer.ingest`) land on one consistent timeline.

Cross-process / cross-thread propagation uses explicit contexts: a context
is a plain ``(trace_id, span_id)`` tuple (picklable, shippable in a worker
dispatch payload), minted by :meth:`Tracer.new_context` and accepted by
``span(..., parent=ctx)`` and :meth:`Tracer.record_span`.

:class:`timed` is the bridge between tracing and the record fields the
sweep/chipsim paths always report: it measures its block *unconditionally*
(so ``wall_seconds`` etc. exist with tracing off) — with the span's own
clock pair when the tracer is enabled, its own ``perf_counter`` pair when
not.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_CAPACITY",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "disable",
    "enable",
    "get_tracer",
    "new_id",
    "now",
    "set_tracer",
    "timed",
]

#: Per-thread finished-span ring size of an enabled :class:`Tracer`.
DEFAULT_CAPACITY = 65536

#: The span clock (Linux: CLOCK_MONOTONIC, shared across processes).
now = time.perf_counter

_ID_COUNTER = itertools.count(1)


def new_id() -> str:
    """A process-unique span/trace id (pid-prefixed monotonic counter)."""
    return f"{os.getpid():x}-{next(_ID_COUNTER):x}"


class _NullSpan:
    """The shared do-nothing span of the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    ``span()`` hands out the one shared :class:`_NullSpan`.  ``enabled`` is a
    plain class attribute for the few callers whose work differs with
    tracing on (e.g. :class:`timed`, which measures either way).
    """

    enabled = False

    def span(self, name: str, *, parent: Optional[Tuple[str, str]] = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def new_context(self, *, parent: Optional[Tuple[str, str]] = None) -> None:
        return None

    def current_context(self) -> None:
        return None

    def record_span(self, name: str, **kwargs: Any) -> None:
        return None

    def ingest(self, spans: Iterable[Dict[str, Any]]) -> None:
        return None

    def drain(self) -> List[Dict[str, Any]]:
        return []

    def spans(self) -> List[Dict[str, Any]]:
        return []


#: The shared disabled tracer (also what worker processes reset to).
NULL_TRACER = NullTracer()


class Span:
    """One live (in-progress) span of an enabled :class:`Tracer`."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "duration_s",
        "attrs",
        "_state",
    )

    def __init__(self, name, trace_id, span_id, parent_id, attrs, state):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._state = state
        self.start_s = 0.0
        self.duration_s = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes on the live span."""
        self.attrs.update(attrs)

    def context(self) -> Tuple[str, str]:
        """The ``(trace_id, span_id)`` handle children parent under."""
        return (self.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        self._state.stack.append(self)
        self.start_s = now()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.duration_s = now() - self.start_s
        state = self._state
        if state.stack and state.stack[-1] is self:
            state.stack.pop()
        else:  # pragma: no cover - mis-nested exit; drop without corrupting
            try:
                state.stack.remove(self)
            except ValueError:
                pass
        state.ring.append(
            {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_s": self.start_s,
                "duration_s": self.duration_s,
                "pid": os.getpid(),
                "thread": state.thread_name,
                "attrs": self.attrs,
            }
        )
        return False


class _ThreadState:
    __slots__ = ("stack", "ring", "thread_name")

    def __init__(self, capacity: int) -> None:
        self.stack: List[Span] = []
        self.ring: deque = deque(maxlen=capacity)
        self.thread_name = threading.current_thread().name


class Tracer:
    """The collecting tracer: per-thread bounded rings, nestable spans."""

    enabled = True

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._register_lock = threading.Lock()

    # ------------------------------------------------------------- internals

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self.capacity)
            self._local.state = state
            with self._register_lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------------ spans

    def span(self, name: str, *, parent: Optional[Tuple[str, str]] = None, **attrs: Any) -> Span:
        """A nestable span context manager.

        Without ``parent`` the span nests under the calling thread's
        innermost open span (or roots a new trace).  ``parent`` — a
        ``(trace_id, span_id)`` context — overrides that, which is how a
        span opened on another thread or in another process becomes the
        parent.
        """
        state = self._state()
        if parent is not None:
            trace_id, parent_id = parent
        elif state.stack:
            top = state.stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            trace_id, parent_id = new_id(), None
        return Span(name, trace_id, new_id(), parent_id, attrs, state)

    def new_context(
        self, *, parent: Optional[Tuple[str, str]] = None
    ) -> Tuple[str, str]:
        """Mint a ``(trace_id, span_id)`` without opening a span yet.

        The reserved id can be shipped to workers as their parent while the
        span itself is recorded later (with :meth:`record_span`) once its
        duration is known — e.g. a batch span whose children run remotely.
        """
        if parent is not None:
            return (parent[0], new_id())
        current = self.current_context()
        if current is not None:
            return (current[0], new_id())
        return (new_id(), new_id())

    def current_context(self) -> Optional[Tuple[str, str]]:
        """The innermost open span of the calling thread, as a context."""
        stack = self._state().stack
        if not stack:
            return None
        return stack[-1].context()

    def record_span(
        self,
        name: str,
        *,
        start_s: float,
        duration_s: float,
        parent: Optional[Tuple[str, str]] = None,
        context: Optional[Tuple[str, str]] = None,
        **attrs: Any,
    ) -> Tuple[str, str]:
        """Record an already-measured span with explicit timing.

        ``parent`` names the parent context; ``context`` (if given) is the
        span's own pre-minted ``(trace_id, span_id)`` — pass the value
        handed to workers so their children resolve to this span.
        Returns the recorded span's context.
        """
        if context is not None:
            trace_id, span_id = context
        elif parent is not None:
            trace_id, span_id = parent[0], new_id()
        else:
            trace_id, span_id = new_id(), new_id()
        state = self._state()
        state.ring.append(
            {
                "name": name,
                "trace_id": trace_id,
                "span_id": span_id,
                "parent_id": None if parent is None else parent[1],
                "start_s": float(start_s),
                "duration_s": float(duration_s),
                "pid": os.getpid(),
                "thread": state.thread_name,
                "attrs": attrs,
            }
        )
        return (trace_id, span_id)

    def ingest(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Adopt finished spans collected elsewhere (worker processes)."""
        ring = self._state().ring
        for span in spans:
            ring.append(span)

    # ------------------------------------------------------------ collection

    def spans(self) -> List[Dict[str, Any]]:
        """A snapshot of all finished spans, sorted by start time."""
        with self._register_lock:
            states = list(self._states)
        collected: List[Dict[str, Any]] = []
        for state in states:
            collected.extend(state.ring)
        collected.sort(key=lambda s: s["start_s"])
        return collected

    def drain(self) -> List[Dict[str, Any]]:
        """Snapshot and clear all finished spans."""
        with self._register_lock:
            states = list(self._states)
        collected: List[Dict[str, Any]] = []
        for state in states:
            while True:
                try:
                    collected.append(state.ring.popleft())
                except IndexError:
                    break
        collected.sort(key=lambda s: s["start_s"])
        return collected


_TRACER: Any = NULL_TRACER


def get_tracer() -> Any:
    """The process-wide tracer (a :class:`NullTracer` unless enabled)."""
    return _TRACER


def set_tracer(tracer: Any) -> Any:
    """Install *tracer* process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable(*, capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Install (and return) a collecting tracer process-wide."""
    tracer = Tracer(capacity=capacity)
    set_tracer(tracer)
    return tracer


def disable() -> Any:
    """Restore the shared :class:`NullTracer`; returns the previous tracer."""
    return set_tracer(NULL_TRACER)


class timed:
    """Measure a block unconditionally; record it as a span when enabled.

    The host-timing record fields (`ChipSimulator.run` ``wall_seconds``,
    the sweep's ``setup_s`` / ``run_s`` / ``wall_s``) derive from these
    objects, so the measurement must exist with tracing off — but the span
    machinery must stay out of the disabled path.  When the tracer is
    enabled the block opens a real span (so children nest under it) and
    ``start_s`` / ``duration_s`` are that span's; otherwise they come from
    this object's own ``perf_counter`` pair.
    """

    __slots__ = ("name", "attrs", "parent", "start_s", "duration_s", "_span")

    def __init__(self, name: str, *, parent: Optional[Tuple[str, str]] = None, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.start_s = 0.0
        self.duration_s = 0.0
        self._span: Optional[Span] = None

    def __enter__(self) -> "timed":
        tracer = _TRACER
        if tracer.enabled:
            self._span = tracer.span(self.name, parent=self.parent, **self.attrs)
            self.start_s = self._span.__enter__().start_s
        else:
            self.start_s = now()
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._span is None:
            self.duration_s = now() - self.start_s
        else:
            self._span.__exit__(*exc)
            self.duration_s = self._span.duration_s
            self._span = None
        return False

    def set(self, **attrs: Any) -> None:
        """Forward attributes to the underlying span (no-op when disabled)."""
        if self._span is not None:
            self._span.set(**attrs)
