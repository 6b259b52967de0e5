"""Bit packing helpers and the 32x24 image view of a signature.

The FPGA design (section V-B of the paper) streams each 768-bit signature in
as a 32x24 binary image, one bit per clock cycle.  These helpers convert
between the three representations used throughout the library:

* an unpacked ``uint8`` vector of zeros and ones (the software view),
* a packed ``uint8`` byte array (the storage / BlockRAM view), and
* a 2-D binary image (the camera-interface / VGA-display view).
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import pack_bits_to_words
from repro.errors import DataError

#: Default image shape the FPGA design streams signatures as (width x height).
SIGNATURE_IMAGE_SHAPE = (24, 32)  # rows, columns -> 768 bits


def _checked(bits: np.ndarray, ndims: tuple[int, ...]) -> np.ndarray:
    """``bits`` as an array, after the one rule for signatures: ``ndims``
    dimensions, non-empty, only zeros and ones (one ``np.unique``)."""
    bits = np.asarray(bits)
    if bits.ndim not in ndims:
        raise DataError(
            f"expected a {' or '.join(map(str, ndims))}-D bit array, got shape "
            f"{bits.shape}"
        )
    if bits.size == 0:
        raise DataError("bit array must not be empty")
    if not np.isin(np.unique(bits), (0, 1)).all():
        raise DataError("bit array must contain only zeros and ones")
    return bits


def _validate_bits(bits: np.ndarray) -> np.ndarray:
    return _checked(bits, (1,)).astype(np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a vector of zeros and ones into bytes (big-endian within a byte).

    The packed form is what the BlockRAM model in :mod:`repro.hw` stores:
    768 bits fit in 96 bytes per neuron.
    """
    return np.packbits(_validate_bits(bits))


def unpack_bits(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns exactly ``length`` bits."""
    packed = np.asarray(packed, dtype=np.uint8)
    if length <= 0:
        raise DataError(f"length must be positive, got {length}")
    bits = np.unpackbits(packed)
    if bits.size < length:
        raise DataError(
            f"packed buffer holds only {bits.size} bits but {length} were requested"
        )
    return bits[:length].astype(np.uint8)


def pack_signature_batch(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(n_samples, n_bits)`` binary matrix row-wise into bytes.

    The batched counterpart of :func:`pack_bits`: one ``packbits`` call
    over the whole matrix instead of a Python loop.  Each packed row equals
    ``pack_bits`` of the corresponding input row, so row ``i`` of the
    result is byte-identical to :func:`signature_key` of signature ``i`` --
    useful for bulk-deriving cache keys or BlockRAM images of a whole
    signature set.
    """
    return np.packbits(_checked(bits, (2,)).astype(np.uint8), axis=1)


def signature_key(bits: np.ndarray) -> bytes:
    """Compact, hashable identity of one signature: its packed bytes.

    Two signatures share a key exactly when they are bit-for-bit equal, so
    the serving layer's LRU cache (:mod:`repro.serve.cache`) can treat the
    packed 96-byte form of a 768-bit signature as the cache key -- repeated
    silhouettes of the same object hash to the same entry and skip the SOM
    entirely.

    The serving layer itself now derives its keys from the padded
    ``uint64`` words of :func:`repro.core.backends.pack_bits_to_words`
    (packing once for both the cache key and the distance kernel); both
    forms are injective over equal-length signatures, and for 768-bit
    signatures (96 bytes = 12 words exactly) they are byte-identical.
    """
    return pack_bits(bits).tobytes()


def packed_signature_words(bits: np.ndarray) -> np.ndarray:
    """Validate once, pack once: one signature (1-D) or a block of them (one
    per row) as ``uint64`` words.

    One ``np.unique`` checks the whole block and one
    :func:`~repro.core.backends.pack_bits_to_words` call packs it.  The
    serving layer derives *both* artefacts it needs from this one call: row
    ``i``'s words feed the packed distance kernel
    (:meth:`repro.core.BinarySom.distance_matrix_packed`), and their raw
    bytes are its LRU cache key.
    """
    return pack_bits_to_words(_checked(bits, (1, 2)))


def signature_to_image(
    bits: np.ndarray, shape: tuple[int, int] = SIGNATURE_IMAGE_SHAPE
) -> np.ndarray:
    """Reshape a flat signature into the binary image the FPGA streams.

    Parameters
    ----------
    bits:
        Flat binary vector whose length must equal ``shape[0] * shape[1]``.
    shape:
        ``(rows, columns)`` of the image; default 24x32 = 768 bits.
    """
    bits = _validate_bits(bits)
    rows, cols = shape
    if bits.size != rows * cols:
        raise DataError(
            f"signature of length {bits.size} cannot be reshaped to {rows}x{cols}"
        )
    return bits.reshape(rows, cols)


def image_to_signature(image: np.ndarray) -> np.ndarray:
    """Flatten a binary image back into a signature vector (row-major).

    Row-major order matches the raster scan the pattern-input block uses
    when it reads bits from the camera interface.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise DataError(f"expected a 2-D binary image, got shape {image.shape}")
    return _validate_bits(image.reshape(-1))
