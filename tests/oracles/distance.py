"""The naive masked-Hamming batch oracle the packed kernel is checked against.

Equation 3 written the obvious way: broadcast the input against every
tri-state weight row, mask the don't-care components, count mismatches.
The property tests check it against the scalar
:func:`repro.core.distance.masked_hamming_distance`, the cycle-accurate
Hamming unit is tested against it, and
:class:`repro.core.backends.PackedBackend` must agree with it bit for bit.

It implements the kernel interface,
:class:`~repro.core.backends.DistanceBackend`: ``prepare`` is zero-copy
(the "operands" are the weight matrix itself), then ``pairwise`` and
``batch_one``.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import DistanceBackend
from repro.core.tristate import DONT_CARE

#: Row-block size for pairwise: bounds the (block, n_neurons, n_bits)
#: comparison tensor without falling back to a per-sample Python loop.
_BLOCK_ROWS = 64


class NaiveBackend(DistanceBackend):
    """Direct broadcast-and-count masked Hamming distances."""

    def prepare(self, weights: np.ndarray) -> np.ndarray:
        return np.asarray(weights, dtype=np.int8)

    def pairwise(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
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

    def batch_one(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        mismatch = (weights != DONT_CARE) & (weights != np.asarray(x)[np.newaxis, :])
        return np.count_nonzero(mismatch, axis=1).astype(np.int64)
