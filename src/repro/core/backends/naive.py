"""The naive comparison backend -- kept as the correctness oracle.

This is equation 3 written the obvious way: broadcast the input against
every tri-state weight row, mask the don't-care components, count
mismatches.  The property tests check it against the scalar
:func:`repro.core.distance.masked_hamming_distance`, and the
cycle-accurate hardware model is tested against it; the GEMM and packed
backends must agree with it bit for bit (asserted by the parity tests and
the benchmark suite).

Preparation is zero-copy: the "operands" are the weight matrix itself, so
the prepared object stays valid even while training mutates the weights in
place, and ``update_rows`` is a trivially-successful no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backends.base import DistanceBackend
from repro.core.tristate import DONT_CARE

#: Row-block size for pairwise: bounds the (block, n_neurons, n_bits)
#: comparison tensor without falling back to a per-sample Python loop.
_BLOCK_ROWS = 64


@dataclass
class NaiveOperands:
    """A bare reference to the weight matrix (no derived state)."""

    weights: np.ndarray


class NaiveBackend(DistanceBackend):
    """Direct broadcast-and-count masked Hamming distances."""

    name = "naive"

    def prepare(self, weights: np.ndarray) -> NaiveOperands:
        return NaiveOperands(weights=np.asarray(weights, dtype=np.int8))

    def pairwise(self, prepared: NaiveOperands, inputs: np.ndarray) -> np.ndarray:
        weights = prepared.weights
        inputs = np.asarray(inputs, dtype=np.int8)
        out = np.empty((inputs.shape[0], weights.shape[0]), dtype=np.int64)
        committed = weights != DONT_CARE
        for start in range(0, inputs.shape[0], _BLOCK_ROWS):
            block = inputs[start : start + _BLOCK_ROWS]
            mismatch = committed[np.newaxis, :, :] & (
                weights[np.newaxis, :, :] != block[:, np.newaxis, :]
            )
            out[start : start + block.shape[0]] = np.count_nonzero(mismatch, axis=2)
        return out

    def batch_one(self, prepared: NaiveOperands, x: np.ndarray) -> np.ndarray:
        weights = prepared.weights
        mismatch = (weights != DONT_CARE) & (weights != np.asarray(x)[np.newaxis, :])
        return np.count_nonzero(mismatch, axis=1).astype(np.int64)

    def update_rows(
        self, prepared: NaiveOperands, weights: np.ndarray, rows: np.ndarray
    ) -> bool:
        # The operands alias the live weight matrix; nothing to refresh as
        # long as the reference is the same array object.
        return prepared.weights is weights
