"""Distance-kernel benchmark grid: the packed uint64 kernel against the oracle.

Sweeps map sizes (16-1024 neurons) and batch sizes (1-4096 signatures) at
the paper's 768-bit signature width, asserting *bit-exact* agreement of the
packed kernel with the naive oracle (``tests/oracles/distance.py``) on
every cell, over a row subsample, and timing the kernel for the report.
The timings gate nothing here: a wall-clock floor fails on a loaded host
whatever the code does, and the repository benchmark (``perfbench/``,
``core.kernel_us_per_row``) times the kernel on a pinned CPU with noise
bounds.

Results go to ``BENCH_distance.json`` at the repository root.  That file
is committed: ``scripts/ci_check.sh`` uses its recorded
256-neuron/1024-batch cell as the baseline for the packed-kernel
perf-regression guard (``scripts/check_backends.py``).  To
keep that baseline an actual *baseline*, a plain test run only writes the
file when it is missing; regenerate it deliberately (after kernel changes)
with::

    REPRO_WRITE_BENCH=1 python -m pytest benchmarks/test_distance_backends.py

Thread counts are pinned to 1 by ``benchmarks/conftest.py`` so the numbers
are host-core-count independent.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from oracles.distance import NaiveBackend
from repro.core.backends import HAS_BITWISE_COUNT, PackedBackend
from repro.core.tristate import DONT_CARE

N_BITS = 768
NEURON_SIZES = (16, 64, 256, 1024)
BATCH_SIZES = (1, 8, 64, 1024, 4096)
TIMED_REPEATS = 3

#: Bit-exactness against the oracle is asserted on every cell over at most
#: this many batch rows (the kernel is row-independent, so a subsample
#: proves the same arithmetic the full batch uses).
PARITY_MAX_ROWS = 512

#: The cell ``scripts/ci_check.sh`` guards against perf regressions.
BASELINE_CELL = {"n_neurons": 256, "batch": 1024}

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_distance.json"


def _make_weights(rng: np.random.Generator, n_neurons: int) -> np.ndarray:
    """Random tri-state weights with a guaranteed all-# neuron (row 0)."""
    weights = rng.integers(0, 3, size=(n_neurons, N_BITS), dtype=np.int8)
    weights[0] = DONT_CARE
    return weights


def _best_of(fn) -> float:
    """Best-of-N wall-clock seconds (min is the standard noise filter)."""
    fn()  # warm-up: page in operands and the chunk buffer
    best = float("inf")
    for _ in range(TIMED_REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_backend_grid_bit_exact_and_emit_bench():
    rng = np.random.default_rng(20100607)
    packed, naive = PackedBackend(), NaiveBackend()
    cells = []
    for n_neurons in NEURON_SIZES:
        weights = _make_weights(rng, n_neurons)
        packed_ops = packed.prepare(weights)
        naive_ops = naive.prepare(weights)
        for batch in BATCH_SIZES:
            inputs = rng.integers(0, 2, size=(batch, N_BITS), dtype=np.int8)

            # --- bit-exactness on every cell (subsampled rows) ---------- #
            sample = inputs[: min(batch, PARITY_MAX_ROWS)]
            oracle = naive.pairwise(naive_ops, sample)
            assert np.array_equal(packed.pairwise(packed_ops, sample), oracle)
            # The paper's all-# neuron edge case: distance 0 to everything.
            assert not oracle[:, 0].any()

            # --- timing ------------------------------------------------- #
            packed_s = _best_of(lambda: packed.pairwise(packed_ops, inputs))
            cells.append(
                {
                    "n_neurons": n_neurons,
                    "batch": batch,
                    "packed_ms": round(packed_s * 1e3, 4),
                }
            )

    baseline = next(
        cell
        for cell in cells
        if cell["n_neurons"] == BASELINE_CELL["n_neurons"]
        and cell["batch"] == BASELINE_CELL["batch"]
    )
    report = {
        "meta": {
            "n_bits": N_BITS,
            "numpy": np.__version__,
            "popcount": "bitwise_count" if HAS_BITWISE_COUNT else "lut16",
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "timed_repeats": TIMED_REPEATS,
        },
        "cells": cells,
        "baseline": {**BASELINE_CELL, "packed_ms": baseline["packed_ms"]},
    }
    if os.environ.get("REPRO_WRITE_BENCH") or not BENCH_PATH.exists():
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
