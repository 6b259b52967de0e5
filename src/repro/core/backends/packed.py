"""The packed ``uint64`` popcount distance kernel.

This is the software twin of the paper's Hamming-distance unit: the FPGA
stores each tri-state neuron as two BlockRAM bit-planes (a *value* plane
and a *care* plane) and computes the masked distance bit-parallel.  Here
the same two planes are packed 64 bits to a machine word, and the masked
mismatch of 64 components collapses to three word operations::

    mismatch_words = (x_words XOR value_words) AND care_words
    distance       = popcount(mismatch_words)

Don't-care components have ``care == 0`` and drop out of the AND -- as does
the zero padding in the final word, so any ``n_bits`` works, not just
multiples of 64.  A 768-bit signature is 12 words.  The bSOM's training
pass keeps the same planes neuron-major and updates them in place
(:mod:`repro.core.bsom`).

The planes are stored *word-major* (``(n_words, n_neurons)``): NumPy
reduces over the leading axis with contiguous row adds, which makes the
per-word popcount accumulation several times faster than reducing a
trailing 12-element axis.

Popcount uses :func:`numpy.bitwise_count` when available (NumPy >= 2.0)
and otherwise falls back to a 16-bit lookup table over the ``uint16`` view
of the words; both paths are exercised by the parity tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.backends.base import DistanceBackend
from repro.core.tristate import DONT_CARE

#: Whether the native vectorised popcount ufunc is available.
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Number of ones in every 16-bit value -- the fallback popcount table.
_POPCOUNT16 = np.bitwise_count(np.arange(65536, dtype=np.uint16)).astype(
    np.uint8
) if HAS_BITWISE_COUNT else np.array(
    [bin(v).count("1") for v in range(65536)], dtype=np.uint8
)

#: Soft bound on the mismatch temporary in bytes; pairwise chunks the input
#: batch so the ``(n_words, chunk, n_neurons)`` intermediates stay bounded.
_CHUNK_BYTES = 4 << 20


def popcount_words(
    words: np.ndarray,
    *,
    use_native: bool | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-word population count of a ``uint64`` array (``uint8`` result).

    Parameters
    ----------
    words:
        Array of ``uint64`` words.
    use_native:
        Force (``True``) or forbid (``False``) :func:`numpy.bitwise_count`;
        ``None`` auto-selects.  The lookup-table path exists both as the
        pre-NumPy-2.0 fallback and as an independent implementation for the
        parity tests.
    out:
        Optional ``uint8`` array of ``words``' shape to write the counts to.
    """
    if use_native is None:
        use_native = HAS_BITWISE_COUNT
    if use_native:
        return np.bitwise_count(words, out=out)
    halves = np.ascontiguousarray(words).view(np.uint16).reshape(*words.shape, 4)
    return np.add.reduce(_POPCOUNT16[halves], axis=-1, dtype=np.uint8, out=out)


def words_per_vector(n_bits: int) -> int:
    """Number of ``uint64`` words needed to hold ``n_bits`` packed bits."""
    return (int(n_bits) + 63) // 64


def pack_bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack trusted binary arrays into ``uint64`` words along the last axis.

    ``bits`` may be 1-D (one vector) or 2-D (a batch); the result replaces
    the ``n_bits`` axis with ``ceil(n_bits / 64)`` words.  Bits are packed
    big-endian within each byte (:func:`numpy.packbits` order) and padded
    with zeros, so two equal-length bit vectors are equal exactly when
    their word arrays are -- the serving layer uses the raw word bytes as
    its cache key for this reason.  Inputs are *trusted*: validation
    happens once at the API boundary, not here.
    """
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1)
    pad = (-packed.shape[-1]) % 8
    if pad:
        pad_widths = [(0, 0)] * (packed.ndim - 1) + [(0, pad)]
        packed = np.pad(packed, pad_widths)
    packed = np.ascontiguousarray(packed)
    return packed.view(np.uint64)


def unpack_words_to_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits_to_words`: recover the ``uint8`` bits.

    Used by maps without a packed query path (e.g. the real-valued cSOM)
    when they receive pre-packed signatures from the serving layer.
    """
    words = np.atleast_2d(np.asarray(words, dtype=np.uint64))
    bit_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(bit_bytes, axis=-1)[:, : int(n_bits)]


@dataclass
class PackedOperands:
    """Packed, word-major bit-plane operands for one weights snapshot.

    Attributes
    ----------
    value_words:
        ``(n_words, n_neurons)`` ``uint64`` -- committed bit values
        (zero on don't-care components), one row per packed word index.
    care_words:
        ``(n_words, n_neurons)`` ``uint64`` -- one where the component is
        committed (0 or 1), zero on ``#`` and on the padding bits.
    n_bits:
        Unpacked vector length the planes were built for.
    """

    value_words: np.ndarray
    care_words: np.ndarray
    n_bits: int


class PackedBackend(DistanceBackend):
    """Masked Hamming distances via XOR/AND over packed words + popcount.

    ``use_native_popcount`` forces (``True``) or forbids (``False``)
    :func:`numpy.bitwise_count`; ``None`` uses it where NumPy has it.

    Attributes
    ----------
    popcount:
        :func:`popcount_words` on the chosen path, as one callable
        ``popcount(words, out=None)``: the native ufunc itself, so a
        caller in a loop (the bSOM's training step) runs no Python frame
        per count, or the lookup-table path.
    """

    def __init__(self, *, use_native_popcount: bool | None = None):
        native = use_native_popcount
        if native is None:
            native = HAS_BITWISE_COUNT
        self.popcount = (
            np.bitwise_count
            if native
            else functools.partial(popcount_words, use_native=False)
        )

    @staticmethod
    def prepare(weights: np.ndarray) -> PackedOperands:
        """The word-major care/value planes of a tri-state matrix."""
        weights = np.asarray(weights, dtype=np.int8)
        care = weights != DONT_CARE
        value = care & (weights == 1)
        return PackedOperands(
            value_words=np.ascontiguousarray(pack_bits_to_words(value).T),
            care_words=np.ascontiguousarray(pack_bits_to_words(care).T),
            n_bits=int(weights.shape[1]),
        )

    # ------------------------------------------------------------------ #
    # Distance kernels
    # ------------------------------------------------------------------ #
    def _one_packed(self, prepared: PackedOperands, x_words: np.ndarray) -> np.ndarray:
        """Distances of one packed input against every neuron column."""
        mismatch = x_words[:, np.newaxis] ^ prepared.value_words
        mismatch &= prepared.care_words
        return self.popcount(mismatch).sum(axis=0, dtype=np.int64)

    def pairwise(self, prepared: PackedOperands, inputs: np.ndarray) -> np.ndarray:
        return self.pairwise_packed(prepared, pack_bits_to_words(inputs))

    def pairwise_packed(
        self, prepared: PackedOperands, input_words: np.ndarray
    ) -> np.ndarray:
        """Distances for inputs already packed by :func:`pack_bits_to_words`.

        The zero-copy serving path: the service packs each signature once
        (producing both the cache key and these words), so the shard's
        batch never re-packs.
        """
        input_words = np.atleast_2d(input_words)
        n_samples = input_words.shape[0]
        if n_samples == 1:
            return self._one_packed(prepared, input_words[0])[np.newaxis, :]
        n_words, n_neurons = prepared.value_words.shape
        value = prepared.value_words[:, np.newaxis, :]
        care = prepared.care_words[:, np.newaxis, :]
        out = np.empty((n_samples, n_neurons), dtype=np.int64)
        chunk = max(1, _CHUNK_BYTES // max(1, n_words * n_neurons * 8))
        mismatch = np.empty((n_words, min(chunk, n_samples), n_neurons), np.uint64)
        for start in range(0, n_samples, chunk):
            block = input_words[start : start + chunk]
            rows = block.shape[0]
            buffer = mismatch[:, :rows, :]
            np.bitwise_xor(block.T[:, :, np.newaxis], value, out=buffer)
            np.bitwise_and(buffer, care, out=buffer)
            out[start : start + rows] = self.popcount(buffer).sum(
                axis=0, dtype=np.int64
            )
        return out

    def batch_one(self, prepared: PackedOperands, x: np.ndarray) -> np.ndarray:
        return self._one_packed(
            prepared, pack_bits_to_words(np.asarray(x, dtype=np.uint8))
        )
