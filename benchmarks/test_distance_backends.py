"""Distance-kernel grid: the packed uint64 kernel against the oracle.

Sweeps map sizes (16-1024 neurons) and batch sizes (1-4096 signatures) at
the paper's 768-bit signature width, asserting *bit-exact* agreement of the
packed kernel with the naive oracle (``tests/oracles/distance.py``) on
every cell, over a row subsample.  Nothing here is timed: the repository
benchmark (``perfbench/``, ``core.kernel_us_per_row``) times the kernel on
a pinned CPU, and ``scripts/bench_pairs.py`` records it.
"""

from __future__ import annotations

import numpy as np

from oracles.distance import NaiveBackend
from repro.core.backends import PackedBackend
from repro.core.tristate import DONT_CARE

N_BITS = 768
NEURON_SIZES = (16, 64, 256, 1024)
BATCH_SIZES = (1, 8, 64, 1024, 4096)

#: Bit-exactness against the oracle is asserted on every cell over at most
#: this many batch rows (the kernel is row-independent, so a subsample
#: proves the same arithmetic the full batch uses).
PARITY_MAX_ROWS = 512


def _make_weights(rng: np.random.Generator, n_neurons: int) -> np.ndarray:
    """Random tri-state weights with a guaranteed all-# neuron (row 0)."""
    weights = rng.integers(0, 3, size=(n_neurons, N_BITS), dtype=np.int8)
    weights[0] = DONT_CARE
    return weights


def test_backend_grid_bit_exact():
    rng = np.random.default_rng(20100607)
    packed, naive = PackedBackend(), NaiveBackend()
    for n_neurons in NEURON_SIZES:
        weights = _make_weights(rng, n_neurons)
        packed_ops = packed.prepare(weights)
        naive_ops = naive.prepare(weights)
        for batch in BATCH_SIZES:
            inputs = rng.integers(0, 2, size=(batch, N_BITS), dtype=np.int8)
            sample = inputs[: min(batch, PARITY_MAX_ROWS)]
            oracle = naive.pairwise(naive_ops, sample)
            assert np.array_equal(packed.pairwise(packed_ops, sample), oracle)
            # The paper's all-# neuron edge case: distance 0 to everything.
            assert not oracle[:, 0].any()
