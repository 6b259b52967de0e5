"""The metric registry: named counters, gauges and fixed-bucket histograms.

One process-wide vocabulary for everything the system measures.  The serve
layer increments its counters in an instance of this registry directly
(:class:`repro.serve.metrics.MetricsSnapshot` reads them back), and the
vision pipeline (:class:`repro.pipeline.metrics.PipelineMetrics`) is a thin
facade over one, so a single exporter pass
(:mod:`repro.obs.export`) sees every signal under one consistent naming
scheme -- ``<subsystem>_<quantity>_<unit>`` with durations always in
*seconds* (exporters and snapshot dataclasses convert to milliseconds at
render time, never before).

Three metric kinds, deliberately mirroring the Prometheus data model:

* :class:`Counter` -- monotonically increasing totals (``*_total``),
* :class:`Gauge` -- instantaneous values, settable or backed by a callback
  read lazily at collection time (queue depths, pending budgets), and
* :class:`Histogram` -- fixed-bucket distributions.  Observations fall
  into pre-declared buckets, so p50/p99/p999 estimates
  (:meth:`Histogram.quantile`) cost O(buckets) with **no raw samples
  stored** -- a long-running service's latency telemetry is O(1) memory.

Recording is O(1) per value under a per-metric lock, taken once for a
histogram's whole batch (:meth:`Histogram.observe_many`); the registry lock
is only taken to create or look up metrics, which callers do once and
cache.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from bisect import bisect_left
from collections import Counter as _Tally
from functools import partial, reduce
from typing import Callable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Immutable, hashable form of a labels mapping.
LabelsKey = tuple[tuple[str, str], ...]


def labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    """Normalise a labels mapping into a sorted, hashable key."""
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_NAME.match(name):
            raise ConfigurationError(f"invalid label name {name!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Geometric bucket bounds: ``start * factor**i`` for ``i < count``."""
    if start <= 0 or factor <= 1.0 or count <= 0:
        raise ConfigurationError(
            f"need start > 0, factor > 1, count > 0; got {start}, {factor}, {count}"
        )
    return tuple(start * factor**i for i in range(count))


#: Default duration buckets: ~10 us to ~2 minutes, geometric (x1.6).  Wide
#: enough for a cache hit and a saturated p999 alike, and the same bounds
#: everywhere means percentile estimates are comparable across services.
DEFAULT_TIME_BUCKETS = exponential_buckets(1e-5, 1.6, 35)


class Metric:
    """Base class: identity (name, labels, help) plus the recording lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelsKey, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    def _read_unlocked(self) -> float:
        raise NotImplementedError

    @property
    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


def read_consistent(*metrics: "Metric") -> tuple[float, ...]:
    """Read several metrics' values while holding *all* their locks.

    Derived gauges like a hit *ratio* are wrong if their numerator and
    denominator are read in two separate critical sections -- a recorder
    can slip between the reads.  Locks are acquired in a deterministic
    (id-sorted) order so two concurrent consistent reads cannot deadlock.
    Callback-backed gauges are evaluated inside the critical section.
    """
    ordered = sorted(set(metrics), key=id)
    for metric in ordered:
        metric._lock.acquire()
    try:
        return tuple(metric._read_unlocked() for metric in metrics)
    finally:
        for metric in reversed(ordered):
            metric._lock.release()


class Counter(Metric):
    """A monotonically increasing total (resettable only for benchmarks)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey, help: str = ""):
        super().__init__(name, labels, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _read_unlocked(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the counter (benchmark repeats only; never during export)."""
        with self._lock:
            self._value = 0.0


class Gauge(Metric):
    """An instantaneous value: set directly, or read from a callback.

    A callback gauge (``fn=...``) is evaluated lazily at collection time,
    so live quantities like queue depth never need a recording hook on the
    hot path.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: LabelsKey,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ):
        super().__init__(name, labels, help)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ConfigurationError(
                f"gauge {self.name!r} is callback-backed and cannot be set"
            )
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ConfigurationError(
                f"gauge {self.name!r} is callback-backed and cannot be set"
            )
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def _read_unlocked(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def reset(self) -> None:
        if self._fn is None:
            with self._lock:
                self._value = 0.0


class Histogram(Metric):
    """Fixed-bucket distribution with O(buckets) quantile estimates.

    Parameters
    ----------
    buckets:
        Strictly increasing upper bounds.  An implicit ``+Inf`` overflow
        bucket is always appended, so every observation lands somewhere.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelsKey,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ):
        super().__init__(name, labels, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} needs strictly increasing, non-empty buckets"
            )
        if any(not math.isfinite(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be finite (+Inf is implicit)"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Record every value in one lock section: the same bucket counts,
        sum and count as one :meth:`observe` per value, in order."""
        # The bucket search, tally and left-to-right sum run in C loops.
        tally = _Tally(map(partial(bisect_left, self.bounds), values))
        with self._lock:
            for index, count in tally.items():
                self._counts[index] += count
            self._sum = reduce(operator.add, values, self._sum)
            self._count += len(values)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _read_unlocked(self) -> float:
        return float(self._count)

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; the last entry is overflow."""
        with self._lock:
            return tuple(self._counts)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by bucket interpolation.

        Linear interpolation inside the bucket that contains the target
        rank; the overflow bucket reports its lower bound (the largest
        finite bucket edge), which keeps the estimate finite and monotone.
        Returns 0.0 before the first observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = tuple(self._counts)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lower = self.bounds[index - 1] if index > 0 else 0.0
            if index >= len(self.bounds):  # overflow bucket
                return self.bounds[-1]
            upper = self.bounds[index]
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            cumulative += bucket_count
        return self.bounds[-1]

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


class MetricRegistry:
    """Get-or-create home for every named metric of one process/service.

    ``counter``/``gauge``/``histogram`` return the existing instance when
    the (name, labels) pair is already registered -- callers hold the
    returned object and record through it without further registry lookups.
    Re-registering a name with a different kind (or a histogram with
    different buckets) raises :class:`ConfigurationError` so two subsystems
    can never silently split one metric.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelsKey], Metric] = {}

    def _get_or_create(self, cls, name: str, labels, help: str, **kwargs) -> Metric:
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        key = (name, labels_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"
                    )
                if (
                    isinstance(existing, Histogram)
                    and "buckets" in kwargs
                    and tuple(float(b) for b in kwargs["buckets"]) != existing.bounds
                ):
                    raise ConfigurationError(
                        f"histogram {name!r} is already registered with "
                        "different buckets"
                    )
                return existing
            metric = cls(name, key[1], help, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self, name: str, *, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, labels, help, fn=fn)
        if fn is not None and gauge._fn is None:
            # Upgrading an existing settable gauge to callback-backed would
            # silently discard its stored value; refuse instead.
            raise ConfigurationError(
                f"gauge {name!r} is already registered as settable"
            )
        return gauge

    def histogram(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    def remove(self, name: str, labels: Optional[Mapping[str, str]] = None) -> None:
        """Drop one series, if registered (e.g. a gauge of an evicted model).
        No export sees it again until it is registered anew, which starts a
        fresh metric."""
        with self._lock:
            self._metrics.pop((name, labels_key(labels)), None)

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get((name, labels_key(labels)))

    def collect(self) -> list[Metric]:
        """Every registered metric, ordered by (name, labels) for stable export."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda m: (m.name, m.labels))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return any(key[0] == name for key in self._metrics)
