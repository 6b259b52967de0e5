"""Request tracing: finished spans with parent links, in a bounded ring.

Aggregate telemetry (:mod:`repro.obs.metrics`) says *how much* time the
service spends; a trace says *where one request's time went*: queue-wait vs
batch-fill vs kernel vs cache.  The model is deliberately small -- this is
an in-process flight recorder, not a distributed-tracing client:

* a :class:`Trace` is one request's :class:`Span` records, root first,
  keyed by a tracer-wide increasing ``trace_id``,
* a :class:`Span` has a name, monotonic start/end timestamps (seconds, the
  service's injectable clock), a parent link, free-form ``attrs`` and
  cross-trace ``links`` (a deduplicated follower links to the primary
  request's kernel span), and
* the :class:`Tracer` owns the sampling rate (every Nth request id; 0
  disables tracing outright), hands out trace ids and keeps a bounded ring
  of traces, so a service that runs for weeks holds a constant amount of
  trace memory.

A trace is built whole, in one call, once its request has ended: the serve
layer's settle step (:func:`repro.serve.request.resolve_requests`) builds
it from stamps every request and batch carries whether or not it is
sampled -- the request's enqueue time, its batch's cut time, the batch's
dispatch mark and the shard's kernel stamp.  Nothing upstream of settle
holds trace state.

Overhead discipline: settle picks a batch's sampled rows in C-level loops
(:meth:`Tracer.sample`), so an unsampled request runs no tracing bytecode;
a sampled one costs its span objects.  ``scripts/check_obs.py`` holds the
end-to-end service throughput overhead of the default sampling rate to
<= 5%.
"""

from __future__ import annotations

import itertools
import operator
import threading
from collections import OrderedDict
from typing import Any, Iterable, Optional

from repro.errors import ConfigurationError

#: Span name of a trace's root (the whole request, submit to resolve).
ROOT_SPAN = "request"


class Span:
    """One named, timed section of a trace.

    ``parent_id`` is the parent span's id (``None`` for the root).
    ``links`` carries references to other traces' spans as plain dicts
    (e.g. a dedup follower's ``{"trace_id": ..., "span": "kernel"}``).
    """

    __slots__ = ("span_id", "name", "start_s", "end_s", "parent_id", "attrs", "links")

    def __init__(
        self,
        span_id: int,
        name: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[int] = 0,
        attrs: Optional[dict[str, Any]] = None,
        links: Optional[list[dict[str, Any]]] = None,
    ):
        self.span_id = span_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.parent_id = parent_id
        self.attrs: dict[str, Any] = {} if attrs is None else attrs
        self.links: list[dict[str, Any]] = [] if links is None else links

    @property
    def open(self) -> bool:
        return self.end_s is None

    @property
    def duration_s(self) -> float:
        """Span duration in seconds."""
        return max(0.0, self.end_s - self.start_s)

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
    """One request's finished spans, rooted at the submit-to-resolve
    ``request`` span (``spans[0]``); ``status`` is ``"ok"``, ``"shed"`` or
    ``"error"``."""

    __slots__ = ("trace_id", "spans", "status")

    def __init__(self, trace_id: int, spans: list[Span], status: str):
        self.trace_id = trace_id
        self.spans = spans
        self.status = status

    @property
    def root(self) -> Span:
        return self.spans[0]

    def find(self, name: str) -> Optional[Span]:
        """The first span named ``name``, if any."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def span_names(self) -> tuple[str, ...]:
        return tuple(span.name for span in self.spans)

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "status": self.status,
            "duration_s": self.duration_s,
            "spans": [span.to_dict() for span in self.spans],
        }


class Tracer:
    """The sampling rate, the trace ids and the bounded ring of traces.

    Parameters
    ----------
    capacity:
        Traces retained; the oldest is evicted when a newer one is kept
        (ring-buffer semantics, O(capacity) memory forever).
    sample_every:
        Trace every request whose id is a multiple of N.  ``1`` traces
        everything, ``16`` (the service default) keeps overhead negligible
        at high rates, and ``0`` disables tracing.
    """

    def __init__(self, capacity: int = 512, sample_every: int = 16):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if sample_every < 0:
            raise ConfigurationError(
                f"sample_every must be >= 0 (0 disables), got {sample_every}"
            )
        self.capacity = int(capacity)
        self.sample_every = int(sample_every)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._completed: "OrderedDict[int, Trace]" = OrderedDict()
        self.dropped_traces = 0  # traces evicted from the ring

    @property
    def enabled(self) -> bool:
        return self.sample_every > 0

    def sample(self, request_ids: Iterable[int]) -> dict[int, int]:
        """A fresh trace id for the position of each sampled id in
        ``request_ids`` (a multiple of ``sample_every``; none when tracing
        is off), in order.  Ids are unique across the tracer's threads.

        Picks the sampled ids in C-level loops: an unsampled row costs no
        bytecode.
        """
        if not self.sample_every:
            return {}
        remainders = map(self.sample_every.__rmod__, request_ids)
        rows = list(itertools.compress(itertools.count(), map(operator.not_, remainders)))
        return dict(zip(rows, itertools.islice(self._ids, len(rows))))

    def keep(self, traces: Iterable[Trace]) -> None:
        """Add finished traces to the ring, in one lock section."""
        with self._lock:
            for trace in traces:
                self._completed[trace.trace_id] = trace
            while len(self._completed) > self.capacity:
                self._completed.popitem(last=False)
                self.dropped_traces += 1

    # -- retrieval ------------------------------------------------------ #
    def get(self, trace_id: Optional[int]) -> Optional[Trace]:
        """Look up a kept trace by id (``None`` once the ring dropped it)."""
        if trace_id is None:
            return None
        with self._lock:
            return self._completed.get(trace_id)

    def completed(self) -> tuple[Trace, ...]:
        """Kept traces, oldest first."""
        with self._lock:
            return tuple(self._completed.values())

    @property
    def completed_count(self) -> int:
        with self._lock:
            return len(self._completed)
