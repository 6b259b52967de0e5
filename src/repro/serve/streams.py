"""Simulated multi-camera load generation for the serving layer.

The paper's deployment is a camera at 30 fps feeding silhouettes to the
FPGA.  To exercise the service the way a multi-camera site would, each
:class:`SimulatedCameraStream` replays signatures drawn from a labelled
pool -- with a configurable probability of repeating the previous frame's
signature, because consecutive frames of the same silhouette really do
binarise to identical 768-bit signatures (that repetition is what the
signature LRU cache exploits).

:func:`drive_streams` runs one submitting thread per stream against a
running service and gathers per-stream responses, retrying briefly on
backpressure the way a real edge client would.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import ConfigurationError, ServiceError, ServiceOverloadedError
from repro.serve.request import ClassificationResponse
from repro.serve.service import StreamingInferenceService


class SimulatedCameraStream:
    """One synthetic camera: an iterator over (signature, true label) pairs.

    Parameters
    ----------
    stream_id:
        Name reported with every request (e.g. ``"cam-3"``).
    signatures, labels:
        Pool of binary signatures (and their identities) the stream draws
        frames from -- typically a held-out test split.
    n_frames:
        Frames the stream will emit.
    repeat_probability:
        Chance that a frame repeats the previous signature exactly,
        modelling consecutive frames of a stationary silhouette.
    seed:
        Per-stream RNG seed; distinct seeds give distinct frame orders.
    """

    def __init__(
        self,
        stream_id: str,
        signatures: np.ndarray,
        labels: np.ndarray,
        *,
        n_frames: int = 100,
        repeat_probability: float = 0.3,
        seed: SeedLike = None,
    ):
        signatures = np.asarray(signatures)
        labels = np.asarray(labels)
        if signatures.ndim != 2 or signatures.shape[0] == 0:
            raise ConfigurationError(
                f"signature pool must be a non-empty 2-D matrix, got shape "
                f"{signatures.shape}"
            )
        if labels.shape[0] != signatures.shape[0]:
            raise ConfigurationError(
                f"{signatures.shape[0]} pool signatures but {labels.shape[0]} labels"
            )
        if n_frames <= 0:
            raise ConfigurationError(f"n_frames must be positive, got {n_frames}")
        if not 0.0 <= repeat_probability < 1.0:
            raise ConfigurationError(
                f"repeat_probability must lie in [0, 1), got {repeat_probability}"
            )
        self.stream_id = stream_id
        self.n_frames = int(n_frames)
        self.repeat_probability = float(repeat_probability)
        self._pool = signatures.astype(np.uint8)
        self._labels = labels
        self._rng = as_generator(seed)

    def frames(self):
        """Yield ``(signature, true_label)`` for each simulated frame."""
        previous: Optional[int] = None
        for _ in range(self.n_frames):
            if previous is not None and self._rng.random() < self.repeat_probability:
                index = previous
            else:
                index = int(self._rng.integers(0, self._pool.shape[0]))
            previous = index
            yield self._pool[index], int(self._labels[index])


@dataclass
class StreamReport:
    """What one simulated camera saw from the service.

    ``latencies_s[i]`` is the client-observed wall-clock latency of
    ``responses[i]`` -- the frame's first submit attempt to result
    delivery, including backpressure backoff and any shed-batch
    resubmits in between -- so a slow stream
    (high latencies) is distinguishable from a shedding one
    (``shed_frames`` > 0, counted when a frame exhausts its retry budget
    at submit or resubmit time and is dropped).
    """

    stream_id: str
    responses: list[ClassificationResponse] = field(default_factory=list)
    true_labels: list[int] = field(default_factory=list)
    backpressure_retries: int = 0
    latencies_s: list[float] = field(default_factory=list)
    shed_frames: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of responses whose label matches the pool's truth."""
        if not self.responses:
            return 0.0
        correct = sum(
            1
            for response, truth in zip(self.responses, self.true_labels)
            if response.label == truth
        )
        return correct / len(self.responses)

    @property
    def cache_hits(self) -> int:
        return sum(1 for response in self.responses if response.cached)

    @property
    def mean_latency_s(self) -> float:
        """Mean client-observed latency (0.0 before any response)."""
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    @property
    def max_latency_s(self) -> float:
        return max(self.latencies_s, default=0.0)


def drive_streams(
    service: StreamingInferenceService,
    streams: list[SimulatedCameraStream],
    *,
    model: str,
    timeout: float = 30.0,
    backpressure_retry_s: float = 0.002,
    max_retries: int = 200,
) -> list[StreamReport]:
    """Run every stream concurrently against ``service`` and collect results.

    Each stream gets its own submitting thread (mirroring one socket per
    camera).  Backpressure arrives on two paths and both are handled as
    "retry later": :class:`ServiceOverloadedError` raised by ``submit``
    (service pending budget full) and its subclass ``CircuitOpenError``
    re-raised from ``result()`` when every shard of the model was gated
    off as the request's batch was cut.  The client backs off for
    ``backpressure_retry_s`` and retries, up to ``max_retries`` times per
    frame, after which the frame is dropped -- load shedding, exactly what
    the backpressure contract asks of callers.  Dropped frames are counted
    in ``StreamReport.shed_frames``; delivered responses carry their
    client-observed wall-clock latency in ``StreamReport.latencies_s``.
    """
    reports = [StreamReport(stream_id=stream.stream_id) for stream in streams]
    errors: list[BaseException] = []

    def submit_with_retry(stream, report, signature):
        for _ in range(max_retries + 1):
            try:
                future = service.submit(
                    signature, model=model, stream_id=stream.stream_id
                )
                return future
            except ServiceOverloadedError:
                report.backpressure_retries += 1
                time.sleep(backpressure_retry_s)
        return None

    def run(stream: SimulatedCameraStream, report: StreamReport) -> None:
        try:
            futures = []
            for signature, truth in stream.frames():
                submitted_at = time.perf_counter()
                future = submit_with_retry(stream, report, signature)
                if future is not None:
                    futures.append((future, signature, truth, submitted_at))
                else:
                    report.shed_frames += 1  # submit retry budget exhausted
            for future, signature, truth, submitted_at in futures:
                delivered = False
                for _ in range(max_retries + 1):
                    try:
                        response = future.result(timeout)
                    except ServiceOverloadedError:
                        # The batch was shed at dispatch time; resubmit.
                        report.backpressure_retries += 1
                        time.sleep(backpressure_retry_s)
                        future = submit_with_retry(stream, report, signature)
                        if future is None:
                            break
                    else:
                        report.responses.append(response)
                        report.true_labels.append(truth)
                        report.latencies_s.append(
                            max(0.0, time.perf_counter() - submitted_at)
                        )
                        delivered = True
                        break
                if not delivered:
                    report.shed_frames += 1  # dropped mid-resubmit
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)

    threads = [
        threading.Thread(
            target=run,
            args=(stream, report),
            name=f"stream-{stream.stream_id}",
            daemon=True,
        )
        for stream, report in zip(streams, reports)
    ]
    for thread in threads:
        thread.start()
    # Every per-frame wait inside run() is itself bounded (submit retries
    # and result() both carry timeouts), so a stream thread that outlives
    # this generous budget is wedged -- report it instead of hanging the
    # driver; daemon threads cannot block interpreter exit.
    join_timeout = max(4.0 * timeout, 120.0)
    wedged = []
    for thread in threads:
        thread.join(join_timeout)
        if thread.is_alive():
            wedged.append(thread.name)
    if wedged:
        raise ServiceError(
            f"stream driver threads wedged past {join_timeout:.0f}s: "
            + ", ".join(wedged)
        )
    if errors:
        raise errors[0]
    return reports
