"""Serving layer: micro-batched, cached multi-stream serving answers every frame.

The paper's FPGA wins its throughput by scoring one signature against all
neurons in parallel (figure 6 / Table IV); the software serving layer
scores *many signatures* against all neurons in one packed-kernel call
per micro-batch, and memoises repeated silhouettes in the signature LRU
cache.  This benchmark drives both levers on the reduced surveillance
protocol and checks their telemetry.  Nothing here is timed: the
repository benchmark (``perfbench/``, workload ``serve_churn``) times
the service, and ``tests/test_predict_batch.py`` pins the batch path
against ``predict_one`` row by row.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import BinarySom, SomClassifier
from repro.serve import ServiceConfig, StreamingInferenceService

# Shared constants live beside conftest.py, which puts this directory on
# sys.path before collection so the import works under any pytest import
# mode.
from bench_constants import (
    BENCH_NEURONS,
    BENCH_SOM_SEED,
    BENCH_STREAM_SEED,
    BENCH_TRAIN_SEED,
)

#: Simulated camera fan-in for the service benchmark.
SERVE_STREAMS = 4
SERVE_FRAMES_PER_STREAM = 250
SERVE_REPEAT_PROBABILITY = 0.5


def camera_frames(pool_size, seed):
    """One camera's frames as pool indices: each repeats the one before
    with ``SERVE_REPEAT_PROBABILITY``, as consecutive frames of a standing
    silhouette binarise to the same signature."""
    rng = np.random.default_rng(seed)
    frames = [int(rng.integers(0, pool_size))]
    for _ in range(SERVE_FRAMES_PER_STREAM - 1):
        repeat = rng.random() < SERVE_REPEAT_PROBABILITY
        frames.append(frames[-1] if repeat else int(rng.integers(0, pool_size)))
    return frames


def serve_cameras(service, signatures, frames):
    """Each camera submits its frames from its own thread, then waits for
    them; returns every camera's responses."""
    answers = [[] for _ in frames]
    failures = []

    def camera(index):
        try:
            futures = [
                service.submit(signatures[row], model="bsom", stream_id=f"cam-{index}")
                for row in frames[index]
            ]
            answers[index] = [future.result(30.0) for future in futures]
        except Exception as error:
            failures.append(error)

    threads = [threading.Thread(target=camera, args=(i,)) for i in range(len(frames))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]
    return answers


@pytest.fixture(scope="module")
def serve_classifier(bench_dataset):
    """A bSOM classifier trained on the reduced surveillance protocol."""
    classifier = SomClassifier(
        BinarySom(BENCH_NEURONS, bench_dataset.n_bits, seed=BENCH_SOM_SEED)
    )
    return classifier.fit(
        bench_dataset.train_signatures,
        bench_dataset.train_labels,
        epochs=10,
        seed=BENCH_TRAIN_SEED,
    )


def test_service_throughput_and_cache_hit_rate(
    bench_dataset, serve_classifier, benchmark
):
    """Micro-batched multi-stream serving answers every frame, and the warm
    round is served from the signature cache.

    No wall-clock floor: against a sequential loop it failed on a loaded
    host whatever the code did.  The repository benchmark
    (``perfbench/``, workload ``serve_churn``) times the service end to end
    on a pinned CPU with noise bounds.
    """
    total_frames = SERVE_STREAMS * SERVE_FRAMES_PER_STREAM
    signatures = bench_dataset.test_signatures
    frames = [
        camera_frames(signatures.shape[0], BENCH_STREAM_SEED + index)
        for index in range(SERVE_STREAMS)
    ]

    def serve_two_rounds():
        service = StreamingInferenceService(
            config=ServiceConfig(batch_size=32, max_delay_ms=5.0, n_shards=2)
        )
        service.register_model("bsom", serve_classifier)
        with service:
            # Cold round: mostly SOM work through the micro-batches.
            cold = serve_cameras(service, signatures, frames)
            # Warm round: the pool is now cached, exercising the cache path.
            warm = serve_cameras(service, signatures, frames)
        return cold, warm, service.metrics_snapshot()

    cold, warm, snapshot = benchmark.pedantic(serve_two_rounds, rounds=1, iterations=1)
    assert sum(len(responses) for responses in cold) == total_frames
    assert sum(len(responses) for responses in warm) == total_frames
    # The warm round replays cached pool signatures: repeats skip the SOM.
    warm_hits = sum(response.cached for responses in warm for response in responses)
    assert warm_hits / total_frames > 0.9
    assert snapshot.cache_hit_rate > 0.2
    assert snapshot.batches_total > 0
    assert 0.0 < snapshot.mean_batch_fill <= 1.0
    # Latency telemetry is present and ordered.
    assert 0.0 <= snapshot.latency_p50_ms <= snapshot.latency_p99_ms
