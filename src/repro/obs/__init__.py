"""Unified observability: tracing, metric registry, events and exporters.

One substrate the whole system reports through, replacing the previously
fragmented telemetry (two unrelated snapshot classes in ``serve`` and
``pipeline``, bare lifecycle counters):

* :mod:`repro.obs.metrics` -- named counters, gauges and fixed-bucket
  histograms in a :class:`MetricRegistry`; p50/p99/p999 without storing
  raw samples, durations always in seconds internally,
* :mod:`repro.obs.trace` -- per-request spans (queue-wait, batch, kernel,
  cache) with parent/cross-trace links, sampled, in a bounded ring,
* :mod:`repro.obs.events` -- structured lifecycle events (``model_swap``,
  ``evict``, ``dedup``, ``shed``, ``cache_invalidate``) with monotonic
  sequence numbers, and
* :mod:`repro.obs.export` -- JSONL snapshot writer and Prometheus text
  renderer (plus the parser CI uses to prove the round trip).

:class:`Observability` bundles one of each behind a single object that a
:class:`~repro.serve.StreamingInferenceService` reports through: its
counters and histograms in the registry, its lifecycle transitions in the
event log, and each sampled request's trace, built at the settle step once
the request has ended::

    from repro import api
    from repro.obs import Observability

    obs = Observability(sample_every=1)          # trace every request
    service = api.serve({"hall": snapshot}, obs=obs)
    response = service.submit(signature, model="hall").result()
    trace = obs.trace(response.trace_id)         # request, queue, batch,
    print(trace.span_names())                    #   kernel

``scripts/check_obs.py`` holds the throughput overhead of observability
(at the default sampling rate) to <= 5% in CI.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.obs.events import Event, EventLog
from repro.obs.export import (
    JsonlExporter,
    metrics_record,
    parse_prometheus,
    read_jsonl,
    render_prometheus,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    exponential_buckets,
)
from repro.obs.trace import ROOT_SPAN, Span, Trace, Tracer


class Observability:
    """One registry + tracer + event log, wired to a shared clock.

    Parameters
    ----------
    sample_every:
        Trace every request whose id is a multiple of N (``1`` = all,
        ``0`` = tracing off); the one sampling setting of a service.  The
        serving default of 16 keeps the measured throughput overhead well
        inside the 5% CI bound while still surfacing a steady stream of
        complete traces.
    trace_capacity, event_capacity:
        Ring sizes for traces and lifecycle events.
    clock:
        Monotonic time source of the event log, injectable for tests (pass
        the service's clock).  Trace timestamps are the service's own.

    To scrape several services with one exporter, pass them one instance.
    """

    def __init__(
        self,
        *,
        sample_every: int = 16,
        trace_capacity: int = 512,
        event_capacity: int = 1024,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = MetricRegistry()
        self.tracer = Tracer(capacity=trace_capacity, sample_every=sample_every)
        self.events = EventLog(capacity=event_capacity, clock=clock)

    @classmethod
    def disabled(cls, **kwargs) -> "Observability":
        """An instance with tracing off (metrics and events still record)."""
        kwargs.setdefault("sample_every", 0)
        return cls(**kwargs)

    def trace(self, trace_id: Optional[int]) -> Optional[Trace]:
        """Look up a sampled request's trace by id; ``None`` before the
        request has settled or once the ring has dropped it."""
        return self.tracer.get(trace_id)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return render_prometheus(self.registry)

    def metrics_record(self) -> dict:
        """The registry as one JSON-safe snapshot dict."""
        return metrics_record(self.registry)


__all__ = [
    "Observability",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "exponential_buckets",
    "Tracer",
    "Trace",
    "Span",
    "ROOT_SPAN",
    "EventLog",
    "Event",
    "JsonlExporter",
    "metrics_record",
    "read_jsonl",
    "render_prometheus",
    "parse_prometheus",
    "write_prometheus",
]
