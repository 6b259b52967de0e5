"""The bSOM's distance kernel and its version-invalidated operand cache.

The paper's FPGA stores each tri-state neuron as two BlockRAM bit-planes
and scores a pattern by masked Hamming distance over them.  The one
software kernel, :class:`~repro.core.backends.packed.PackedBackend`, is
that datapath: the planes packed 64 components to a ``uint64`` word and
the distance ``popcount((x XOR value) AND care)``, with
:func:`numpy.bitwise_count` or, on NumPy < 2.0, a 16-bit lookup table.
Training runs on the same planes (:mod:`repro.core.bsom`), and the
serving layer packs each signature once at submit, so no query path
unpacks a word.  The naive broadcast-and-count oracle it is tested
against bit for bit lives in ``tests/oracles/distance.py``; both
implement :class:`~repro.core.backends.base.DistanceBackend`.

:class:`PreparedOperandCache` holds a map's prepared planes keyed on its
weights-version counter, so classifiers and serve shards reuse them
across calls, and they invalidate exactly when training or
``set_weights`` changes the weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.backends.base import DistanceBackend
from repro.core.backends.packed import (
    HAS_BITWISE_COUNT,
    PackedBackend,
    PackedOperands,
    pack_bits_to_words,
    popcount_words,
    unpack_words_to_bits,
    words_per_vector,
)


class PreparedOperandCache:
    """A map's prepared kernel operands, versioned by its weights.

    The entry carries the weights-version counter it was prepared at, and
    :meth:`operands` returns it only while that matches the map's current
    one.  Every weight change -- a training pass or ``set_weights`` --
    drops it (:meth:`invalidate`); the next query prepares afresh.

    Concurrency contract: single writer, and readers must not overlap an
    in-flight weight update.  This is the same discipline the raw weight
    matrix has always required -- a training pass writes it back in place,
    so a query racing a ``partial_fit`` can read a torn weight snapshot.
    The version key prevents *reuse of stale operands across calls* (a
    query after training always sees re-derived operands); it cannot
    protect a reader that overlaps the update itself.  The stock
    deployments respect this: serve shards share a classifier that is
    fitted before registration, and the on-line learner classifies and
    trains sequentially in one thread.
    """

    def __init__(self) -> None:
        self._entry: Optional[tuple[int, PackedOperands]] = None

    def operands(self, weights: np.ndarray, version: int) -> PackedOperands:
        """Prepared operands for ``weights`` at ``version`` (cached or fresh)."""
        entry = self._entry
        if entry is None or entry[0] != version:
            entry = self._entry = (version, PackedBackend.prepare(weights))
        return entry[1]

    def invalidate(self) -> None:
        """Drop the entry (the weights changed)."""
        self._entry = None

    @property
    def cached_version(self) -> Optional[int]:
        """Weights version of the cached operands; ``None`` when empty."""
        return None if self._entry is None else self._entry[0]


__all__ = [
    "DistanceBackend",
    "HAS_BITWISE_COUNT",
    "PackedBackend",
    "PackedOperands",
    "PreparedOperandCache",
    "pack_bits_to_words",
    "popcount_words",
    "unpack_words_to_bits",
    "words_per_vector",
]
