"""Pluggable masked-Hamming distance backends and operand caching.

The paper's FPGA computes masked Hamming distances bit-parallel over packed
BlockRAM words; the software reproduction chooses between three
interchangeable kernels behind one interface
(:class:`~repro.core.backends.base.DistanceBackend`):

``gemm``
    One float32 BLAS GEMM over ``(W0 - W1)`` operand matrices -- the PR-1
    hot path, strongest when a large batch meets a BLAS with wide SIMD.
``packed``
    Tri-state weights as two ``uint64`` bit-planes (*care*, *value*);
    distances via ``XOR``/``AND`` plus a vectorised popcount
    (:func:`numpy.bitwise_count`, or a 16-bit lookup table on older
    NumPy).  64 components per word instead of one per float32 lane.
``naive``
    The broadcast-and-count oracle every other backend is tested against.
``hybrid``
    Prepares both GEMM and packed operands and routes each call to the
    measured winner for its shape (packed for single queries and small
    batches on large maps, GEMM for large batches).

Selection (:func:`resolve_backend`) is by explicit name or instance, or
``"auto"`` (also what ``None`` means), which resolves to the hybrid
router; its thresholds come from the measured crossover points recorded
in ``BENCH_distance.json`` (see the benchmark
``benchmarks/test_distance_backends.py``).  :func:`calibrate_backend` is
the opt-in empirical variant: it times the candidates on synthetic data of
the actual map shape and picks the winner.

:class:`PreparedOperandCache` holds each backend's prepared operands keyed
on the SOM's weights-version counter, so classifiers, serve shards and the
training loop reuse packed planes / GEMM operands across calls and
invalidate exactly when training touches the weights.
"""

from __future__ import annotations

import time
from typing import Any, Union

import numpy as np

from repro.core.backends.base import DistanceBackend
from repro.core.backends.gemm import GemmBackend, GemmOperands
from repro.core.backends.hybrid import HybridBackend, HybridOperands
from repro.core.backends.naive import NaiveBackend, NaiveOperands
from repro.core.backends.packed import (
    HAS_BITWISE_COUNT,
    PackedBackend,
    PackedOperands,
    pack_bits_to_words,
    popcount_words,
    unpack_words_to_bits,
    words_per_vector,
)
# ConfigurationError is consumed internally by resolve_backend, not
# re-exported API: callers import it from repro.errors directly.
# repro: allow[export-surface]
from repro.errors import ConfigurationError

#: Registered backend factories by name.
BACKEND_NAMES = ("gemm", "packed", "naive", "hybrid")

BackendSpec = Union[str, DistanceBackend, None]


def make_backend(name: str) -> DistanceBackend:
    """Instantiate a backend by registered name."""
    if name == "gemm":
        return GemmBackend()
    if name == "packed":
        return PackedBackend()
    if name == "naive":
        return NaiveBackend()
    if name == "hybrid":
        return HybridBackend()
    raise ConfigurationError(
        f"unknown distance backend {name!r}; expected one of "
        f"{BACKEND_NAMES + ('auto',)}"
    )


def resolve_backend(spec: BackendSpec = None) -> DistanceBackend:
    """Resolve a backend from a name or an instance.

    A :class:`DistanceBackend` instance is returned as is; a name is
    instantiated; ``None`` means ``"auto"``, the hybrid router that picks
    the measured-fastest kernel per call from the shapes it sees.
    """
    if isinstance(spec, DistanceBackend):
        return spec
    if spec is None:
        spec = "auto"
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"backend must be a name or DistanceBackend, got {type(spec).__name__}"
        )
    name = spec.strip().lower()
    if name == "auto":
        return HybridBackend()
    return make_backend(name)


def calibrate_backend(
    n_neurons: int,
    n_bits: int,
    *,
    batch_size: int = 256,
    repeats: int = 3,
    candidates: tuple[str, ...] = ("gemm", "packed"),
    seed: int = 0,
) -> DistanceBackend:
    """Empirically pick the fastest backend for a map shape.

    Times each candidate's ``prepare`` + ``pairwise`` on synthetic
    tri-state weights and binary inputs of the given shape and returns the
    backend with the best wall-clock time.  This is the opt-in empirical
    counterpart of the static routing rule inside
    :class:`~repro.core.backends.hybrid.HybridBackend` (what ``"auto"``
    resolves to), useful on hosts whose BLAS/popcount balance differs from
    the recorded benchmarks.
    """
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 3, size=(n_neurons, n_bits), dtype=np.int8)
    inputs = rng.integers(0, 2, size=(batch_size, n_bits), dtype=np.int8)
    best_name, best_time = None, float("inf")
    for name in candidates:
        backend = make_backend(name)
        prepared = backend.prepare(weights)
        backend.pairwise(prepared, inputs)  # warm-up
        elapsed = float("inf")
        for _ in range(max(1, int(repeats))):
            start = time.perf_counter()
            backend.pairwise(prepared, inputs)
            elapsed = min(elapsed, time.perf_counter() - start)
        if elapsed < best_time:
            best_name, best_time = name, elapsed
    assert best_name is not None
    return make_backend(best_name)


class PreparedOperandCache:
    """Per-map cache of prepared backend operands, versioned by weights.

    Entries are keyed on the backend name and carry the weights-version
    counter they were prepared at.  :meth:`operands` returns a cached
    entry only when its version matches the map's current one;
    :meth:`note_rows_changed` lets the training loop migrate still-warm
    entries across a weight update by patching just the touched neuron
    rows (backends that cannot are dropped and re-prepared lazily).

    Concurrency contract: single writer, and readers must not overlap an
    in-flight weight update.  This is the same discipline the raw weight
    matrix has always required -- training mutates it in place, so a query
    racing a ``partial_fit`` could already read a torn weight snapshot
    before backends existed; ``update_rows`` patching cached planes in
    place has identical semantics.  The version keys prevent *reuse of
    stale operands across calls* (a query after training always sees
    re-derived or migrated operands); they cannot protect a reader that
    overlaps the update itself.  The stock deployments respect this:
    serve shards share a classifier that is fitted before registration,
    and the on-line learner classifies and trains sequentially in one
    thread.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[int, Any, DistanceBackend]] = {}

    def operands(self, backend: DistanceBackend, weights: np.ndarray, version: int):
        """Prepared operands for ``weights`` at ``version`` (cached or fresh)."""
        entry = self._entries.get(backend.name)
        if entry is not None and entry[0] == version:
            return entry[1]
        operands = backend.prepare(weights)
        self._entries[backend.name] = (version, operands, backend)
        return operands

    def note_rows_changed(
        self,
        weights: np.ndarray,
        rows: np.ndarray,
        old_version: int,
        new_version: int,
    ) -> None:
        """Migrate warm entries across an in-place update of ``weights[rows]``."""
        for name, (version, operands, backend) in list(self._entries.items()):
            if version == old_version and backend.update_rows(operands, weights, rows):
                self._entries[name] = (new_version, operands, backend)
            else:
                del self._entries[name]

    def invalidate(self) -> None:
        """Drop every entry (wholesale weight replacement)."""
        self._entries.clear()

    def cached_versions(self) -> dict[str, int]:
        """Backend name -> version of its cached operands (introspection)."""
        return {name: entry[0] for name, entry in self._entries.items()}

    def __len__(self) -> int:
        return len(self._entries)


__all__ = [
    "BACKEND_NAMES",
    "BackendSpec",
    "DistanceBackend",
    "GemmBackend",
    "GemmOperands",
    "HAS_BITWISE_COUNT",
    "HybridBackend",
    "HybridOperands",
    "NaiveBackend",
    "NaiveOperands",
    "PackedBackend",
    "PackedOperands",
    "PreparedOperandCache",
    "calibrate_backend",
    "make_backend",
    "pack_bits_to_words",
    "popcount_words",
    "resolve_backend",
    "unpack_words_to_bits",
    "words_per_vector",
]
