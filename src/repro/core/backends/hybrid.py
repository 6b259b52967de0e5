"""The hybrid backend: per-call routing between GEMM and packed kernels.

The measured grid in ``BENCH_distance.json`` shows a division of labour
on a single core: the packed ``uint64`` kernel wins wherever memory
traffic dominates (single-signature queries and small batches against
large maps -- 3.7x at 1024 neurons x batch 1 on the committed grid),
while the float32 GEMM wins large batches, where BLAS register blocking
runs near peak FLOPs.  Neither kernel dominates the whole (map size,
batch size) plane, so ``"auto"`` resolves to this backend: it prepares
both operand sets once (cached and version-invalidated together) and
routes every call by shape.

The routing rule distilled from the grid::

    batch_one          -> packed for maps of >= 256 neurons, else GEMM
    pairwise (n rows)  -> packed when the map has >= 512 neurons and
                          n <= 16, else GEMM
    pairwise_packed    -> same rule; word inputs feed the packed kernel
                          directly, and unpack (a cheap ``unpackbits``)
                          into the GEMM when the batch is GEMM-shaped

The thresholds are deliberately *conservative*: they only claim the
region where packed is at or above parity across all neighbouring
measured shapes.  BLAS also has slow skinny-batch islands (e.g. the
256-neuron x batch-8 cell, where packed measures ~2x faster) that the
rule leaves to the GEMM because the win does not hold at the surrounding
batch sizes (256 x 2 and 256 x 4 measure ~0.7x).  Hosts whose
BLAS/popcount balance differs can bypass the rule with
:func:`repro.core.backends.calibrate_backend` or by pinning ``"gemm"`` /
``"packed"`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backends.base import DistanceBackend
from repro.core.backends.gemm import GemmBackend, GemmOperands
from repro.core.backends.packed import (
    PackedBackend,
    PackedOperands,
    unpack_words_to_bits,
)

#: Minimum map size for packed ``batch_one``; below it both kernels sit in
#: the microsecond-overhead regime and the GEMM matvec is ahead (measured
#: ratio 0.8x at 128 neurons, 1.2x at 256, 3.4x at 1024).
_PACKED_ONE_MIN_NEURONS = 256

#: Packed ``pairwise`` region: >= this many neurons and <= this many rows.
_PACKED_PAIRWISE_MIN_NEURONS = 512
_PACKED_PAIRWISE_MAX_ROWS = 16


def _use_packed_pairwise(n_neurons: int, n_rows: int) -> bool:
    return (
        n_neurons >= _PACKED_PAIRWISE_MIN_NEURONS
        and n_rows <= _PACKED_PAIRWISE_MAX_ROWS
    )


@dataclass
class HybridOperands:
    """Both kernels' prepared operands for one weights snapshot."""

    gemm: GemmOperands
    packed: PackedOperands


class HybridBackend(DistanceBackend):
    """Route each call to the measured-fastest kernel for its shape."""

    name = "hybrid"

    def __init__(self):
        self._gemm = GemmBackend()
        self._packed = PackedBackend()

    def prepare(self, weights: np.ndarray) -> HybridOperands:
        return HybridOperands(
            gemm=self._gemm.prepare(weights), packed=self._packed.prepare(weights)
        )

    def pairwise(self, prepared: HybridOperands, inputs: np.ndarray) -> np.ndarray:
        n_neurons = prepared.gemm.diff.shape[0]
        if _use_packed_pairwise(n_neurons, inputs.shape[0]):
            return self._packed.pairwise(prepared.packed, inputs)
        return self._gemm.pairwise(prepared.gemm, inputs)

    def pairwise_packed(
        self, prepared: HybridOperands, input_words: np.ndarray
    ) -> np.ndarray:
        input_words = np.atleast_2d(input_words)
        n_neurons = prepared.gemm.diff.shape[0]
        if _use_packed_pairwise(n_neurons, input_words.shape[0]):
            return self._packed.pairwise_packed(prepared.packed, input_words)
        # GEMM-shaped batch: unpacking the words costs microseconds, the
        # kernel choice costs milliseconds -- route on shape here too.
        bits = unpack_words_to_bits(input_words, prepared.packed.n_bits)
        return self._gemm.pairwise(prepared.gemm, bits)

    def batch_one(self, prepared: HybridOperands, x: np.ndarray) -> np.ndarray:
        if prepared.gemm.diff.shape[0] >= _PACKED_ONE_MIN_NEURONS:
            return self._packed.batch_one(prepared.packed, x)
        return self._gemm.batch_one(prepared.gemm, x)
