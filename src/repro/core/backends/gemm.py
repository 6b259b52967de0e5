"""The float32 GEMM distance backend (the PR-1 hot path, now pluggable).

For a binary input ``x`` the masked mismatch of one bit is
``(w == 1) & (x == 0)  |  (w == 0) & (x == 1)``, so the whole distance
matrix decomposes into one matrix product::

    D = rowsum(W1) + X @ (W0 - W1)^T,   W1 = (W == 1), W0 = (W == 0)

which runs as a single BLAS GEMM instead of materialising the
``(n_samples, n_neurons, n_bits)`` comparison tensor.  ``float32`` is exact
here: every product is 0 or 1 and every sum is bounded by ``n_bits``, far
inside the 24-bit integer range of ``float32``.

The prepared operands are the ``(n_neurons, n_bits)`` difference matrix
``W0 - W1`` and the per-neuron ones count -- exactly the quantities the
ROADMAP flagged for caching with invalidation on weight updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backends.base import DistanceBackend


@dataclass
class GemmOperands:
    """Prepared GEMM operands for one weights snapshot.

    Attributes
    ----------
    diff:
        ``(n_neurons, n_bits)`` ``float32`` matrix ``(W == 0) - (W == 1)``.
    ones_count:
        ``(n_neurons,)`` ``float32`` count of committed-one bits per neuron.
    """

    diff: np.ndarray
    ones_count: np.ndarray


class GemmBackend(DistanceBackend):
    """Masked Hamming distances via one float32 BLAS GEMM."""

    name = "gemm"

    def prepare(self, weights: np.ndarray) -> GemmOperands:
        weights = np.asarray(weights, dtype=np.int8)
        ones = weights == 1
        diff = (weights == 0).astype(np.float32)
        diff -= ones
        return GemmOperands(
            diff=diff, ones_count=ones.sum(axis=1, dtype=np.int64).astype(np.float32)
        )

    def pairwise(self, prepared: GemmOperands, inputs: np.ndarray) -> np.ndarray:
        distances = inputs.astype(np.float32) @ prepared.diff.T
        distances += prepared.ones_count[np.newaxis, :]
        return np.rint(distances).astype(np.int64)

    def batch_one(self, prepared: GemmOperands, x: np.ndarray) -> np.ndarray:
        distances = prepared.diff @ x.astype(np.float32)
        distances += prepared.ones_count
        return np.rint(distances).astype(np.int64)
