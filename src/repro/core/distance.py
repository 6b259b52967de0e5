"""Hamming distances between binary inputs and (tri-state) neuron weights.

Equation 3 of the paper defines the match measure used throughout: the
Hamming distance between the input vector and a neuron, where components in
the ``#`` (don't care) state are skipped.  A neuron whose weight vector is
all ``#`` therefore has distance zero to every input -- a property the paper
calls out explicitly, and one the node-labelling stage has to cope with.

The functions here score one input against one weight vector on plain
numpy arrays: the scalar statement of equation 3, which the property tests
check the naive batch oracle (``tests/oracles/distance.py``) against.

Batches are scored by the one kernel in :mod:`repro.core.backends`: the
paper's datapath, masked Hamming distance over packed ``uint64``
care/value words with a vectorised popcount, on operands cached per
weights version.  It is asserted bit-exact against that oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.tristate import DONT_CARE
from repro.errors import DataError, DimensionMismatchError


def _as_binary_vector(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1:
        raise DataError(f"{name} must be a one-dimensional vector, got shape {x.shape}")
    if x.size == 0:
        raise DataError(f"{name} must not be empty")
    if not np.all(np.isin(np.unique(x), (0, 1))):
        raise DataError(f"{name} must contain only zeros and ones")
    return x.astype(np.int8)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Plain Hamming distance between two binary vectors of equal length."""
    a = _as_binary_vector(a, "first vector")
    b = _as_binary_vector(b, "second vector")
    if a.shape != b.shape:
        raise DimensionMismatchError(a.size, b.size, "second vector")
    return int(np.count_nonzero(a != b))


def masked_hamming_distance(weights: np.ndarray, x: np.ndarray) -> int:
    """Hamming distance between one tri-state weight vector and a binary input.

    Components where ``weights == DONT_CARE`` are ignored (equation 3).
    """
    weights = np.asarray(weights)
    x = _as_binary_vector(x)
    if weights.ndim != 1:
        raise DataError(
            f"weight vector must be one-dimensional, got shape {weights.shape}"
        )
    if weights.shape != x.shape:
        raise DimensionMismatchError(weights.size, x.size, "input vector")
    care = weights != DONT_CARE
    return int(np.count_nonzero(care & (weights != x)))
