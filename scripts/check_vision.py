#!/usr/bin/env python
"""CI gate: vision front-end parity smoke.

Run by ``scripts/ci_check.sh`` after the test suite.  Randomized masks and
frames across both connectivities: the run-list CCL, separable
morphology, single-pass blob extraction and batched histogram must agree
bit-exactly with the seed oracles kept in ``tests/oracles/vision.py`` and
with per-blob ``rgb_histogram``.  The stages' speed is measured by the
repository benchmark's ``vision.*`` per-layer metrics (``perfbench/``).

Exit code 0 on success, 1 on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

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


if __name__ == "__main__":
    parity_smoke()
