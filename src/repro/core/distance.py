"""Hamming distances between binary inputs and (tri-state) neuron weights.

Equation 3 of the paper defines the match measure used throughout: the
Hamming distance between the input vector and a neuron, where components in
the ``#`` (don't care) state are skipped.  A neuron whose weight vector is
all ``#`` therefore has distance zero to every input -- a property the paper
calls out explicitly, and one the node-labelling stage has to cope with.

The functions here score one input against one weight vector on plain
numpy arrays: the scalar statement of equation 3, which the property tests
check the naive batch backend against.

Backend selection
-----------------
Batches are scored by the pluggable backends in :mod:`repro.core.backends`:
a packed-``uint64`` popcount kernel, a float32 GEMM, their shape-routed
hybrid, and the naive broadcast-and-count oracle, each with cached,
version-invalidated operands.  All backends are bit-exact; the choice only
affects speed.  Measured on the benchmark grid (768-bit signatures,
single-threaded BLAS; see ``BENCH_distance.json``, regenerated by
``benchmarks/test_distance_backends.py``):

========================  =======================================================
backend                   when it wins
========================  =======================================================
``packed`` (uint64)       memory-traffic-bound shapes: single-signature queries
                          and small batches against large maps (3.7x over GEMM
                          at 1024 neurons x batch 1, 3.3x at 1024 x 8, 2.1x at
                          256 x 8) -- the FPGA-shaped workload, and the training
                          loop's winner search.
``gemm`` (float32 BLAS)   compute-bound shapes: large batches, where BLAS
                          register blocking runs near peak FLOPs (2.5-4x over
                          packed from batch 64 up).
``hybrid`` (= ``auto``)   both operand sets prepared and cached together; calls
                          routed conservatively by shape: packed for pairwise
                          at >= 512 neurons with <= 16 rows and for single
                          queries at >= 256 neurons, GEMM otherwise (the
                          2.1x packed win at 256 x 8 is a non-monotonic BLAS
                          island the rule deliberately leaves to GEMM; see
                          ``repro.core.backends.hybrid``).  The default.
``naive`` (oracle)        never on speed -- kept as the correctness oracle
                          the others are asserted bit-exact against.
========================  =======================================================

A map's backend is chosen in one place: the model's own ``backend=``
argument or :meth:`~repro.core.bsom.BinarySom.set_backend`, else
``"auto"``.  Re-measure with :func:`repro.core.backends.calibrate_backend`
on hosts whose BLAS/popcount balance differs (e.g. a multi-threaded
wide-SIMD BLAS shifts the crossover toward ``gemm``).
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
