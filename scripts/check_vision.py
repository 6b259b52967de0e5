#!/usr/bin/env python
"""CI gate: vision front-end parity smoke + frame-rate regression guard.

Run by ``scripts/ci_check.sh`` after the test suite:

1. *Parity smoke* -- randomized masks and frames across both
   connectivities; the vectorized CCL, separable morphology, single-pass
   blob extraction and batched histogram must agree bit-exactly with the
   seed oracles kept in ``tests/oracles/vision.py`` and with per-blob
   ``rgb_histogram``.
2. *Frame-rate regression guard* -- re-times the vectorized
   ``RecognitionSystem`` on the benchmark's 320x240 synthetic scene and
   fails if it is more than 2x slower than the baseline recorded in the
   committed ``BENCH_vision.json``.  A plain test run never rewrites that
   file once it exists; regenerate it deliberately after intentional
   front-end changes with
   ``REPRO_WRITE_BENCH=1 pytest benchmarks/test_vision_throughput.py``.

Exit code 0 on success, 1 on any failure.
"""

from __future__ import annotations

import os
import sys

# Pin thread pools before numpy import, mirroring benchmarks/conftest.py,
# so the guard measures the same single-threaded regime as the baseline.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import json
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from oracles.vision import (  # noqa: E402
    binary_close_oracle,
    binary_dilate_oracle,
    binary_erode_oracle,
    binary_open_oracle,
    extract_blobs_oracle,
    label_components_oracle,
)
from repro.signatures import rgb_histogram, rgb_histogram_batch  # noqa: E402
from repro.vision import (  # noqa: E402
    binary_close,
    binary_dilate,
    binary_erode,
    binary_open,
    extract_blobs,
    label_components,
)

BENCH_PATH = REPO_ROOT / "BENCH_vision.json"
SLOWDOWN_LIMIT = 2.0
GUARD_REPEATS = 3


def parity_smoke() -> None:
    rng = np.random.default_rng(20100608)
    morphology_pairs = (
        (binary_erode, binary_erode_oracle),
        (binary_dilate, binary_dilate_oracle),
        (binary_open, binary_open_oracle),
        (binary_close, binary_close_oracle),
    )
    for trial in range(40):
        height = int(rng.integers(1, 48))
        width = int(rng.integers(1, 48))
        mask = rng.random((height, width)) < rng.random()
        for connectivity in (4, 8):
            fast, n_fast = label_components(mask, connectivity)
            oracle, n_oracle = label_components_oracle(mask, connectivity)
            if n_fast != n_oracle or not np.array_equal(fast, oracle):
                raise SystemExit(
                    f"parity FAILED: vectorized CCL disagrees with the two-pass "
                    f"oracle on a {height}x{width} mask, connectivity {connectivity}"
                )
        for radius in (0, 1, 2):
            for fast_fn, oracle_fn in morphology_pairs:
                if not np.array_equal(fast_fn(mask, radius), oracle_fn(mask, radius)):
                    raise SystemExit(
                        f"parity FAILED: {fast_fn.__name__} disagrees with its "
                        f"full-kernel oracle at radius {radius} on {height}x{width}"
                    )
        labels, count = label_components(mask)
        fast_blobs = extract_blobs(labels, count)
        oracle_blobs = extract_blobs_oracle(labels, count)
        if len(fast_blobs) != len(oracle_blobs):
            raise SystemExit("parity FAILED: blob counts differ")
        for a, b in zip(fast_blobs, oracle_blobs):
            if not (
                a.label == b.label
                and a.area == b.area
                and a.bounding_box == b.bounding_box
                and a.centroid == b.centroid
                and np.array_equal(a.mask, b.mask)
            ):
                raise SystemExit(
                    f"parity FAILED: blob {a.label} fields differ from the oracle"
                )
        if trial < 10:
            image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
            regions = [(b.bounding_box, b.crop_mask()) for b in fast_blobs]
            batch = rgb_histogram_batch(image, regions)
            for i, blob in enumerate(fast_blobs):
                if not np.array_equal(batch[i], rgb_histogram(image, blob.mask)):
                    raise SystemExit(
                        "parity FAILED: batched histogram differs from per-blob "
                        "rgb_histogram"
                    )
    print("vision parity smoke: OK")


def frame_rate_guard() -> None:
    if not BENCH_PATH.exists():
        raise SystemExit(
            f"frame-rate guard FAILED: {BENCH_PATH} missing; run "
            "REPRO_WRITE_BENCH=1 pytest benchmarks/test_vision_throughput.py "
            "to regenerate it"
        )
    report = json.loads(BENCH_PATH.read_text())
    baseline_fps = float(report["baseline"]["fps_vectorized"])
    n_frames = int(report["baseline"]["frames"])

    import test_vision_throughput as bench

    classifier = bench.train_bench_classifier()
    frames = bench.live_frames(n_frames)
    fps, _ = bench.time_pipeline(classifier, frames, repeats=GUARD_REPEATS)
    slowdown = baseline_fps / fps
    print(
        f"vectorized pipeline {bench.SCENE_WIDTH}x{bench.SCENE_HEIGHT}: "
        f"{fps:.1f} fps (baseline {baseline_fps:.1f} fps, ratio "
        f"{slowdown:.2f}x, limit {SLOWDOWN_LIMIT}x)"
    )
    if slowdown > SLOWDOWN_LIMIT:
        raise SystemExit(
            f"frame-rate guard FAILED: vectorized pipeline is {slowdown:.2f}x "
            f"slower than the recorded baseline (limit {SLOWDOWN_LIMIT}x)"
        )
    print("vision frame-rate guard: OK")


if __name__ == "__main__":
    parity_smoke()
    frame_rate_guard()
