"""Exporters: JSONL metric snapshots and Prometheus text rendering.

Two render targets over one :class:`~repro.obs.metrics.MetricRegistry`:

* :class:`JsonlExporter` appends self-contained JSON records (metrics +
  incremental events) to a file -- what the examples write behind their
  ``--metrics-out`` flags, and
* :func:`render_prometheus` emits the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket{le=...}`` histogram series,
  ``_sum``/``_count``), with :func:`parse_prometheus` as the matching
  parser so CI can prove the round trip (``scripts/check_obs.py``).

Durations cross this boundary in *seconds* -- the registry's invariant --
and any millisecond convenience values are derived here, never stored.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Callable, Optional, TextIO, Union

from repro.errors import DataError
from repro.obs.events import EventLog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry

PathLike = Union[str, Path]


# --------------------------------------------------------------------- #
# JSON snapshot records
# --------------------------------------------------------------------- #
def metrics_record(registry: MetricRegistry) -> dict[str, Any]:
    """One JSON-safe snapshot of every metric in ``registry``.

    Counters and gauges render as numbers; histograms as
    ``{"buckets": {le: cumulative_count}, "sum": ..., "count": ...,
    "p50": ..., "p99": ..., "p999": ...}`` so downstream aggregation never
    needs the registry object.  Keys are ``name`` or ``name{k=v,...}``.
    """
    record: dict[str, Any] = {}
    for metric in registry.collect():
        key = metric.name
        if metric.labels:
            rendered = ",".join(f"{k}={v}" for k, v in metric.labels)
            key = f"{metric.name}{{{rendered}}}"
        if isinstance(metric, Histogram):
            counts = metric.bucket_counts()
            cumulative: dict[str, int] = {}
            running = 0
            for bound, count in zip(metric.bounds, counts):
                running += count
                cumulative[repr(float(bound))] = running
            cumulative["+Inf"] = running + counts[-1]
            record[key] = {
                "buckets": cumulative,
                "sum": metric.sum,
                "count": metric.count,
                "p50": metric.quantile(0.50),
                "p99": metric.quantile(0.99),
                "p999": metric.quantile(0.999),
            }
        elif isinstance(metric, (Counter, Gauge)):
            record[key] = metric.value
    return record


class JsonlExporter:
    """Append metric snapshots (plus incremental events) to a JSONL file.

    Each :meth:`export` call writes one line::

        {"ts": <unix seconds>, "metrics": {...}, "events": [...]}

    Events are shipped incrementally: the exporter remembers the last
    sequence number written, so a periodic exporter never duplicates an
    event even though the log is a ring.

    Parameters
    ----------
    path:
        Output file, opened in append mode per call (crash-safe: a dead
        scraper never holds the file).
    clock:
        Wall-clock source for the ``ts`` field (unix seconds; traces and
        events keep their own monotonic timestamps).
    """

    def __init__(self, path: PathLike, *, clock: Callable[[], float] = time.time):
        self.path = Path(path)
        self._clock = clock
        self._last_event_seq: Optional[int] = None

    def export(
        self,
        registry: MetricRegistry,
        *,
        events: Optional[EventLog] = None,
    ) -> dict[str, Any]:
        """Write one snapshot line; returns the record that was written."""
        record: dict[str, Any] = {
            "ts": float(self._clock()),
            "metrics": metrics_record(registry),
        }
        if events is not None:
            fresh = events.events(since_seq=self._last_event_seq)
            record["events"] = [event.to_dict() for event in fresh]
            if fresh:
                self._last_event_seq = fresh[-1].seq
            elif self._last_event_seq is None:
                self._last_event_seq = events.last_seq
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record


def read_jsonl(path: PathLike) -> list[dict[str, Any]]:
    """Read every record of a JSONL snapshot file (schema-checking helper)."""
    records = []
    for line_number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise DataError(f"{path}:{line_number}: invalid JSON ({error})") from error
        if not isinstance(record, dict) or "metrics" not in record or "ts" not in record:
            raise DataError(
                f"{path}:{line_number}: snapshot records need 'ts' and 'metrics' keys"
            )
        records.append(record)
    return records


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #
def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _render_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for metric in registry.collect():
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            counts = metric.bucket_counts()
            running = 0
            for bound, count in zip(metric.bounds, counts):
                running += count
                labels = _render_labels(metric.labels, f'le="{_render_value(bound)}"')
                lines.append(f"{metric.name}_bucket{labels} {running}")
            labels = _render_labels(metric.labels, 'le="+Inf"')
            lines.append(f"{metric.name}_bucket{labels} {running + counts[-1]}")
            lines.append(
                f"{metric.name}_sum{_render_labels(metric.labels)} "
                f"{_render_value(metric.sum)}"
            )
            lines.append(
                f"{metric.name}_count{_render_labels(metric.labels)} {metric.count}"
            )
        else:
            lines.append(
                f"{metric.name}{_render_labels(metric.labels)} "
                f"{_render_value(metric.value)}"
            )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text back into ``{(name, labels): value}``.

    The inverse of :func:`render_prometheus` for the subset it emits --
    enough for CI to prove a lossless round trip of every sample line.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name_part, value_part = line.rsplit(" ", 1)
        except ValueError:
            raise DataError(f"line {line_number}: not a sample line: {raw!r}")
        labels: list[tuple[str, str]] = []
        name = name_part
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise DataError(f"line {line_number}: unterminated labels: {raw!r}")
            name, label_blob = name_part[:-1].split("{", 1)
            if label_blob:
                for pair in label_blob.split(","):
                    key, _, value = pair.partition("=")
                    if not value.startswith('"') or not value.endswith('"'):
                        raise DataError(
                            f"line {line_number}: unquoted label value: {raw!r}"
                        )
                    unescaped = (
                        value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
                    )
                    labels.append((key, unescaped))
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        elif value_part == "NaN":
            value = math.nan
        else:
            try:
                value = float(value_part)
            except ValueError:
                raise DataError(f"line {line_number}: bad value {value_part!r}")
        samples[(name, tuple(labels))] = value
    return samples


def write_prometheus(
    registry: MetricRegistry, target: Union[PathLike, TextIO]
) -> None:
    """Render ``registry`` to a path or open text handle."""
    text = render_prometheus(registry)
    if hasattr(target, "write"):
        target.write(text)
        return
    Path(target).write_text(text, encoding="utf-8")
