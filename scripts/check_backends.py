#!/usr/bin/env python
"""CI gate: distance-kernel parity smoke + packed-kernel perf guard.

Run by ``scripts/ci_check.sh`` after the test suite:

1. *Parity smoke* -- randomized tri-state weights x binary inputs across a
   few shapes (including an all-``#`` neuron and a non-word-aligned bit
   width); the packed kernel, on native and lookup-table popcount, must
   agree bit-exactly with the naive oracle in ``tests/oracles/distance.py``.
2. *Perf-regression guard* -- re-times the packed uint64 kernel on the
   256-neuron / 1024-batch cell and fails if it is more than 2x slower
   than the baseline recorded in the committed ``BENCH_distance.json``.
   A plain test run never rewrites that file once it exists, so the
   baseline really is the committed one; regenerate it deliberately after
   intentional kernel changes with
   ``REPRO_WRITE_BENCH=1 pytest benchmarks/test_distance_backends.py``.

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
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from oracles.distance import NaiveBackend  # noqa: E402
from repro.core.backends import PackedBackend  # noqa: E402
from repro.core.tristate import DONT_CARE  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_distance.json"
SLOWDOWN_LIMIT = 2.0
GUARD_REPEATS = 5


def parity_smoke() -> None:
    rng = np.random.default_rng(1234)
    oracle = NaiveBackend()
    kernels = {
        "packed": PackedBackend(),
        "packed (lookup-table popcount)": PackedBackend(use_native_popcount=False),
    }
    for n_neurons, n_samples, n_bits in ((40, 64, 768), (17, 33, 100), (8, 200, 64)):
        weights = rng.integers(0, 3, size=(n_neurons, n_bits), dtype=np.int8)
        weights[0] = DONT_CARE  # the paper's all-# edge case
        inputs = rng.integers(0, 2, size=(n_samples, n_bits), dtype=np.int8)
        expected = oracle.pairwise(oracle.prepare(weights), inputs)
        assert not expected[:, 0].any(), "all-# neuron must be distance 0"
        for name, kernel in kernels.items():
            prepared = kernel.prepare(weights)
            got = kernel.pairwise(prepared, inputs)
            if not np.array_equal(got, expected):
                raise SystemExit(
                    f"parity FAILED: {name} kernel disagrees with the "
                    f"naive oracle on {n_neurons}x{n_bits}, batch {n_samples}"
                )
            got_one = kernel.batch_one(prepared, inputs[0])
            if not np.array_equal(got_one, expected[0]):
                raise SystemExit(
                    f"parity FAILED: {name} kernel batch_one disagrees "
                    f"on {n_neurons}x{n_bits}"
                )
    print("kernel parity smoke: OK")


def perf_guard() -> None:
    if not BENCH_PATH.exists():
        raise SystemExit(
            f"perf guard FAILED: {BENCH_PATH} missing; run REPRO_WRITE_BENCH=1 "
            "pytest benchmarks/test_distance_backends.py to regenerate it"
        )
    report = json.loads(BENCH_PATH.read_text())
    baseline = report["baseline"]
    n_neurons, batch = int(baseline["n_neurons"]), int(baseline["batch"])
    baseline_ms = float(baseline["packed_ms"])
    n_bits = int(report["meta"]["n_bits"])

    rng = np.random.default_rng(20100607)
    weights = rng.integers(0, 3, size=(n_neurons, n_bits), dtype=np.int8)
    inputs = rng.integers(0, 2, size=(batch, n_bits), dtype=np.int8)
    kernel = PackedBackend()
    prepared = kernel.prepare(weights)
    kernel.pairwise(prepared, inputs)  # warm-up
    best = float("inf")
    for _ in range(GUARD_REPEATS):
        start = time.perf_counter()
        kernel.pairwise(prepared, inputs)
        best = min(best, time.perf_counter() - start)
    current_ms = best * 1e3
    slowdown = current_ms / baseline_ms
    print(
        f"packed kernel {n_neurons}x{batch} cell: {current_ms:.3f} ms "
        f"(baseline {baseline_ms:.3f} ms, ratio {slowdown:.2f}x, "
        f"limit {SLOWDOWN_LIMIT}x)"
    )
    if slowdown > SLOWDOWN_LIMIT:
        raise SystemExit(
            f"perf guard FAILED: packed kernel is {slowdown:.2f}x slower than "
            f"the recorded baseline (limit {SLOWDOWN_LIMIT}x)"
        )
    print("kernel perf guard: OK")


if __name__ == "__main__":
    parity_smoke()
    perf_guard()
