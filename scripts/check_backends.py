#!/usr/bin/env python
"""CI gate: distance-kernel parity smoke.

Run by ``scripts/ci_check.sh`` after the test suite.  Randomized tri-state
weights x binary inputs across a few shapes (including an all-``#`` neuron
and a non-word-aligned bit width); the packed kernel, on native and
lookup-table popcount, must agree bit-exactly with the naive oracle in
``tests/oracles/distance.py``.  The kernel's speed is the benchmark's
``core.kernel_us_per_row`` per-layer metric (``scripts/bench_pairs.py``).

Exit code 0 on success, 1 on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from oracles.distance import NaiveBackend  # noqa: E402
from repro.core.backends import PackedBackend  # noqa: E402
from repro.core.tristate import DONT_CARE  # noqa: E402


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


if __name__ == "__main__":
    parity_smoke()
