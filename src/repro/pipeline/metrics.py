"""Per-stage timing telemetry for the recognition pipeline.

The serve layer keeps itself honest with :mod:`repro.serve.metrics`; this
module does the same for the CPU-side vision front-end.  Every
:meth:`RecognitionSystem.process_frame` call records wall-clock seconds per
stage (background differencing, morphology, connected-components labelling,
blob extraction, tracking, signature extraction, classification) plus the
frame total, so operators can see exactly where a camera's frame budget
goes.

Like the serve layer's telemetry, this lives in a
:class:`repro.obs.MetricRegistry`: stage timings are registry counters
labelled by stage, in *seconds* (milliseconds appear only in the rendered
:class:`PipelineMetricsSnapshot`), so the JSONL and Prometheus exporters
in :mod:`repro.obs.export` scrape the vision front-end and the serving
layer through one interface.  Registry names:

==============================================  =======  ==================
``pipeline_frames_total``                       counter  frames processed
``pipeline_frame_seconds_total``                counter  summed frame time
``pipeline_stage_seconds_total{stage=...}``     counter  summed stage time
``pipeline_stage_calls_total{stage=...}``       counter  stage invocations
``pipeline_stage_last_seconds{stage=...}``      gauge    most recent call
==============================================  =======  ==================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, Gauge, MetricRegistry

#: Stage names in pipeline order, as recorded by ``RecognitionSystem``.
PIPELINE_STAGES = (
    "background",
    "morphology",
    "label",
    "blobs",
    "track",
    "signature",
    "classify",
)


@dataclass(frozen=True)
class StageStats:
    """Accumulated timing for one pipeline stage.

    Attributes
    ----------
    calls:
        Number of recorded invocations.
    total_ms, mean_ms, last_ms:
        Total, mean-per-call and most recent wall-clock milliseconds
        (rendered from the seconds stored internally).
    """

    calls: int
    total_ms: float
    mean_ms: float
    last_ms: float


@dataclass(frozen=True)
class PipelineMetricsSnapshot:
    """Point-in-time view of the pipeline's per-stage timing.

    Attributes
    ----------
    frames_total:
        Frames processed since construction (or the last :meth:`reset`).
    total_ms:
        Summed end-to-end frame time.
    mean_frame_ms:
        Mean end-to-end milliseconds per frame.
    frames_per_second:
        ``1000 / mean_frame_ms`` (0.0 before the first frame).
    stages:
        Per-stage :class:`StageStats`, keyed by stage name in
        :data:`PIPELINE_STAGES` order (stages never recorded are absent).
    """

    frames_total: int
    total_ms: float
    mean_frame_ms: float
    frames_per_second: float
    stages: dict[str, StageStats] = field(default_factory=dict)


class PipelineMetrics:
    """Thread-safe accumulator behind :class:`PipelineMetricsSnapshot`.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.MetricRegistry` to register the
        ``pipeline_*`` metrics in; pass a service's observability registry
        to scrape cameras and serving through one exporter.  A private
        registry is built when omitted.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None):
        self.registry = registry if registry is not None else MetricRegistry()
        self._lock = threading.Lock()
        self._stages: dict[str, tuple[Counter, Counter, Gauge]] = {}
        self._frames = self.registry.counter(
            "pipeline_frames_total", help="Frames processed end to end"
        )
        self._frame_seconds = self.registry.counter(
            "pipeline_frame_seconds_total", help="Summed end-to-end frame seconds"
        )

    def _stage_metrics(self, stage: str) -> tuple[Counter, Counter, Gauge]:
        with self._lock:
            metrics = self._stages.get(stage)
            if metrics is None:
                labels = {"stage": stage}
                metrics = (
                    self.registry.counter(
                        "pipeline_stage_seconds_total",
                        labels=labels,
                        help="Summed wall-clock seconds per pipeline stage",
                    ),
                    self.registry.counter(
                        "pipeline_stage_calls_total",
                        labels=labels,
                        help="Recorded invocations per pipeline stage",
                    ),
                    self.registry.gauge(
                        "pipeline_stage_last_seconds",
                        labels=labels,
                        help="Most recent wall-clock seconds per pipeline stage",
                    ),
                )
                self._stages[stage] = metrics
            return metrics

    # ------------------------------------------------------------------ #
    # Recording (hot path)
    # ------------------------------------------------------------------ #
    def record_stage(self, stage: str, seconds: float) -> None:
        """Add one timed invocation of ``stage`` (seconds, never ms)."""
        if seconds < 0:
            raise ConfigurationError(f"seconds must be non-negative, got {seconds}")
        total, calls, last = self._stage_metrics(stage)
        total.inc(float(seconds))
        calls.inc()
        last.set(float(seconds))

    def record_frame(self, seconds: float) -> None:
        """Add one end-to-end frame time (seconds, never ms)."""
        if seconds < 0:
            raise ConfigurationError(f"seconds must be non-negative, got {seconds}")
        self._frames.inc()
        self._frame_seconds.inc(float(seconds))

    @property
    def frames_total(self) -> int:
        return int(self._frames.value)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def snapshot(self) -> PipelineMetricsSnapshot:
        """Freeze the counters for reporting (milliseconds rendered here)."""
        with self._lock:
            recorded = dict(self._stages)
        ordered = [s for s in PIPELINE_STAGES if s in recorded]
        ordered += [s for s in recorded if s not in PIPELINE_STAGES]
        stages = {}
        for stage in ordered:
            total, calls, last = recorded[stage]
            n_calls = int(calls.value)
            if n_calls == 0:
                continue
            total_ms = total.value * 1e3
            stages[stage] = StageStats(
                calls=n_calls,
                total_ms=total_ms,
                mean_ms=total_ms / n_calls,
                last_ms=last.value * 1e3,
            )
        frames = int(self._frames.value)
        total_ms = self._frame_seconds.value * 1e3
        mean_frame_ms = total_ms / frames if frames else 0.0
        return PipelineMetricsSnapshot(
            frames_total=frames,
            total_ms=total_ms,
            mean_frame_ms=mean_frame_ms,
            frames_per_second=1e3 / mean_frame_ms if mean_frame_ms > 0 else 0.0,
            stages=stages,
        )

    def reset(self) -> None:
        """Clear all accumulated counters (e.g. between benchmark repeats)."""
        with self._lock:
            stages = list(self._stages.values())
        for total, calls, last in stages:
            total.reset()
            calls.reset()
            last.reset()
        self._frames.reset()
        self._frame_seconds.reset()
