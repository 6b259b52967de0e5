"""Request tracing: lightweight spans with parent links and a bounded ring.

Aggregate telemetry (:mod:`repro.obs.metrics`) says *how much* time the
service spends; a trace says *where one request's time went*: queue-wait vs
batch-fill vs kernel vs cache.  The model is deliberately small -- this is
an in-process flight recorder, not a distributed-tracing client:

* a :class:`Trace` is one request's tree of :class:`Span` records, keyed
  by a service-wide monotonically increasing ``trace_id``,
* a :class:`Span` has a name, monotonic start/end timestamps (seconds, the
  service's injectable clock), a parent link, free-form ``attrs`` and
  cross-trace ``links`` (a deduplicated follower links to the primary
  request's kernel span), and
* the :class:`Tracer` owns the sampling decision (every Nth request; 0
  disables tracing outright) and a bounded ring of completed traces, so a
  service that runs for weeks holds a constant amount of trace memory.

Overhead discipline: an unsampled request costs one lock-free counter
increment and a modulo; a sampled request costs a handful of list appends
and clock reads.  ``scripts/check_obs.py`` holds the end-to-end service
throughput overhead of the default sampling rate to <= 5%.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError

#: Span name of a trace's root (the whole request, submit to resolve).
ROOT_SPAN = "request"


class Span:
    """One named, timed section of a trace.

    ``end_s`` is ``None`` while the span is open.  ``links`` carries
    references to other traces' spans as plain dicts (e.g. a dedup
    follower's ``{"trace_id": ..., "span": "kernel"}``).
    """

    __slots__ = ("span_id", "name", "start_s", "end_s", "parent_id", "attrs", "links")

    def __init__(
        self,
        span_id: int,
        name: str,
        start_s: float,
        parent_id: Optional[int] = None,
        attrs: Optional[dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.parent_id = parent_id
        self.attrs: dict[str, Any] = attrs or {}
        self.links: list[dict[str, Any]] = []

    @property
    def open(self) -> bool:
        return self.end_s is None

    @property
    def duration_s(self) -> Optional[float]:
        """Span duration in seconds (``None`` while still open)."""
        if self.end_s is None:
            return None
        return max(0.0, self.end_s - self.start_s)

    def add_link(self, **fields: Any) -> None:
        """Attach a cross-trace reference (e.g. the dedup primary's span)."""
        self.links.append(dict(fields))

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
            "links": [dict(link) for link in self.links],
        }


class Trace:
    """One request's spans, rooted at the submit-to-resolve ``request`` span.

    Spans are tracked by name while open (each stage name occurs at most
    once per trace), so the layer that *ends* a stage never needs the
    object the layer that *started* it held -- the request hand-off across
    scheduler, shard thread and settle step stays a single object
    reference.
    """

    __slots__ = ("trace_id", "spans", "status", "_open", "_tracer", "_finished")

    def __init__(self, trace_id: int, tracer: "Tracer", start_s: float, **attrs: Any):
        self.trace_id = trace_id
        self._tracer = tracer
        root = Span(0, ROOT_SPAN, start_s, parent_id=None, attrs=dict(attrs))
        self.spans: list[Span] = [root]
        self._open: dict[str, Span] = {}
        self.status: Optional[str] = None
        self._finished = False

    # -- span lifecycle ------------------------------------------------- #
    @property
    def root(self) -> Span:
        return self.spans[0]

    @property
    def finished(self) -> bool:
        return self._finished

    def begin(
        self,
        name: str,
        *,
        t: Optional[float] = None,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a child span (parented to the root unless given)."""
        start = self._tracer._clock() if t is None else t
        span = Span(
            len(self.spans),
            name,
            start,
            parent_id=(parent or self.root).span_id,
            attrs=attrs,
        )
        self.spans.append(span)
        self._open[name] = span
        return span

    def end(self, name: str, *, t: Optional[float] = None, **attrs: Any) -> Optional[Span]:
        """Close the open span called ``name`` (no-op when none is open)."""
        span = self._open.pop(name, None)
        if span is None:
            return None
        span.end_s = self._tracer._clock() if t is None else t
        if attrs:
            span.attrs.update(attrs)
        return span

    def span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-closed span in one call (e.g. the kernel)."""
        span = Span(
            len(self.spans),
            name,
            start,
            parent_id=(parent or self.root).span_id,
            attrs=attrs,
        )
        span.end_s = end
        self.spans.append(span)
        return span

    def find(self, name: str) -> Optional[Span]:
        """The first span named ``name``, if any."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def span_names(self) -> tuple[str, ...]:
        return tuple(span.name for span in self.spans)

    def finish(self, status: str = "ok", *, t: Optional[float] = None, **attrs: Any) -> None:
        """Close the trace: end every open span and move it to the ring.

        Idempotent -- every terminal path (resolve, eviction, shed,
        shard-side failure) may call it; the first caller wins.
        """
        if self._finished:
            return
        now = self._tracer._clock() if t is None else t
        for span in list(self._open.values()):
            span.end_s = now
        self._open.clear()
        root = self.root
        root.end_s = now
        if attrs:
            root.attrs.update(attrs)
        self.status = status
        self._finished = True
        self._tracer._complete(self)

    # -- rendering ------------------------------------------------------ #
    @property
    def duration_s(self) -> Optional[float]:
        return self.root.duration_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "status": self.status,
            "duration_s": self.duration_s,
            "spans": [span.to_dict() for span in self.spans],
        }


class Tracer:
    """Sampling trace factory plus the bounded ring of completed traces.

    Parameters
    ----------
    capacity:
        Completed traces retained; the oldest is evicted when a newer one
        finishes (ring-buffer semantics, O(capacity) memory forever).
    sample_every:
        Trace every Nth started request.  ``1`` traces everything, ``16``
        (the service default) keeps overhead negligible at high rates, and
        ``0`` disables tracing -- :meth:`start` returns ``None`` and costs
        one branch.
    clock:
        Monotonic time source, injectable so traces share the service's
        clock in tests.
    """

    def __init__(
        self,
        capacity: int = 512,
        sample_every: int = 16,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if sample_every < 0:
            raise ConfigurationError(
                f"sample_every must be >= 0 (0 disables), got {sample_every}"
            )
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self._clock = clock
        self._ids = itertools.count()
        self._seen = itertools.count()
        self._lock = threading.Lock()
        self._active: dict[int, Trace] = {}
        self._completed: "OrderedDict[int, Trace]" = OrderedDict()
        self.dropped_traces = 0  # completed traces evicted from the ring

    @property
    def enabled(self) -> bool:
        return self.sample_every > 0

    def start(self, *, t: Optional[float] = None, **attrs: Any) -> Optional[Trace]:
        """Begin a trace for one request, or ``None`` when not sampled.

        ``t`` pins the root span's start (e.g. the submit timestamp read
        just before the sampling decision); the clock is read when omitted.
        """
        if self.sample_every == 0:
            return None
        if next(self._seen) % self.sample_every != 0:
            return None
        trace = Trace(next(self._ids), self, self._clock() if t is None else t, **attrs)
        with self._lock:
            self._active[trace.trace_id] = trace
        return trace

    def _complete(self, trace: Trace) -> None:
        with self._lock:
            self._active.pop(trace.trace_id, None)
            self._completed[trace.trace_id] = trace
            while len(self._completed) > self.capacity:
                self._completed.popitem(last=False)
                self.dropped_traces += 1

    # -- retrieval ------------------------------------------------------ #
    def get(self, trace_id: Optional[int]) -> Optional[Trace]:
        """Look up a trace (in flight or completed) by id."""
        if trace_id is None:
            return None
        with self._lock:
            trace = self._active.get(trace_id)
            if trace is None:
                trace = self._completed.get(trace_id)
            return trace

    def completed(self) -> tuple[Trace, ...]:
        """Completed traces, oldest first."""
        with self._lock:
            return tuple(self._completed.values())

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    @property
    def completed_count(self) -> int:
        with self._lock:
            return len(self._completed)
