"""LRU cache over packed binary signatures.

A surveillance feed is massively repetitive: the same person produces the
same (or bit-identical, after mean-threshold binarisation) 768-bit signature
for many consecutive frames.  Since the bSOM is deterministic at inference
time, a signature's classification can be memoised outright -- keyed on the
raw bytes of the packed ``uint64`` words the distance kernel consumes
(:func:`repro.signatures.packing.packed_signature_words`; 96 bytes for a
768-bit signature) plus the model name, so two models never share entries.
The service packs each signature exactly once at submit time and reuses the
words for both this key and the shard's popcount kernel -- the cache never
re-packs per lookup.

The cache stores the *outcome* (label, neuron, distance, rejection,
confidence), not the response object, because latency and stream identity
differ per request even when the classification is identical.

Entries dropped from the live tier -- by LRU eviction or
``invalidate_model`` -- are demoted into a second, bounded *stale* tier
rather than discarded.  Stale entries never answer normal lookups; the
service consults them (``get_stale``) only while every shard circuit
breaker of a model is open, trading freshness for availability and
flagging the response ``stale=True``.  A service without breakers never
reads the tier, so it builds its cache without one (``stale_capacity=0``)
and an eviction or invalidation then just drops the entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.serve.resilience import CACHE_CODEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.classifier import BatchPrediction
    from repro.serve.resilience import FaultInjector


class CachedOutcome(NamedTuple):
    """The model-determined part of a classification, safe to memoise.

    An immutable named tuple, so a batch's outcomes are built from its
    prediction arrays in C loops (:meth:`rows`) rather than one
    ``__init__`` call per row.
    """

    label: int
    neuron: int
    distance: float
    rejected: bool
    confidence: float

    @classmethod
    def rows(cls, prediction: "BatchPrediction") -> list["CachedOutcome"]:
        """One outcome per row of a batch prediction, in row order."""
        columns = (prediction.labels, prediction.neurons, prediction.distances,
                   prediction.rejected, prediction.confidences)
        return list(map(partial(tuple.__new__, cls),
                        zip(*(column.tolist() for column in columns))))


class SignatureLruCache:
    """Thread-safe LRU map from ``(model, packed signature)`` to outcomes.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently *used* entry is
        evicted when a new one would exceed it.  A capacity of 0 disables
        the cache (every ``get`` misses, ``put_many`` is a no-op), which
        the benchmarks use to isolate batching gains from caching gains.
    stale_capacity:
        Maximum number of entries in the stale (degradation) tier that
        evicted/invalidated entries demote into; defaults to ``capacity``.
        0 disables the tier.
    fault_injector:
        Optional :class:`~repro.serve.resilience.FaultInjector`; when armed
        for the ``cache_codec`` site, ``get``/``put_many`` raise
        :class:`~repro.errors.InjectedFaultError` (simulating a corrupt
        entry/codec bug) so tests can prove the service degrades a cache
        error to a miss instead of failing the request.
    """

    def __init__(
        self,
        capacity: int = 2048,
        *,
        stale_capacity: Optional[int] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ):
        if capacity < 0:
            raise ConfigurationError(f"capacity must be non-negative, got {capacity}")
        if stale_capacity is None:
            stale_capacity = capacity
        if stale_capacity < 0:
            raise ConfigurationError(
                f"stale_capacity must be non-negative, got {stale_capacity}"
            )
        self.capacity = int(capacity)
        self.stale_capacity = int(stale_capacity)
        self._injector = fault_injector
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, bytes], CachedOutcome]" = OrderedDict()
        self._stale: "OrderedDict[tuple[str, bytes], CachedOutcome]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_hits = 0

    def _demote_unlocked(self, full_key: tuple[str, bytes], outcome: CachedOutcome):
        # Caller holds the lock and has a stale tier.  Most-recent
        # demotion wins the slot.
        self._stale[full_key] = outcome
        self._stale.move_to_end(full_key)
        while len(self._stale) > self.stale_capacity:
            self._stale.popitem(last=False)

    def get(self, model: str, key: bytes) -> Optional[CachedOutcome]:
        """Look up a signature; counts a hit or miss and refreshes recency."""
        if self._injector is not None:
            self._injector.raise_if(CACHE_CODEC, op="get", model=model)
        with self._lock:
            outcome = self._entries.get((model, key))
            if outcome is None:
                self.misses += 1
                return None
            self._entries.move_to_end((model, key))
            self.hits += 1
            return outcome

    def get_stale(self, model: str, key: bytes) -> Optional[CachedOutcome]:
        """Degradation lookup in the stale tier (breaker-open fallback).

        Checks the live tier first -- a live entry is strictly better --
        then the stale tier.  Does not count toward hit/miss statistics
        (it is not on the normal serving path) but tracks ``stale_hits``.
        """
        with self._lock:
            outcome = self._entries.get((model, key))
            if outcome is not None:
                return outcome
            outcome = self._stale.get((model, key))
            if outcome is not None:
                self.stale_hits += 1
            return outcome

    def put(self, model: str, key: bytes, outcome: CachedOutcome) -> None:
        """Insert or refresh one entry: a batch of one."""
        self.put_many(model, (key,), (outcome,))

    def put_many(
        self, model: str, keys: Iterable[bytes], outcomes: Iterable[CachedOutcome]
    ) -> None:
        """Insert or refresh one model's entries in order, in one lock section.

        Each row is written as a lone ``put`` would write it -- moved to the
        most recent end, then the least recently used entry evicted while
        over capacity -- so a batch leaves the same entries, order,
        evictions and stale tier as writing its rows one at a time.  The
        ``cache_codec`` fault fires once per call, before any row is written.
        """
        if self.capacity == 0:
            return
        if self._injector is not None:
            self._injector.raise_if(CACHE_CODEC, op="put", model=model)
        entries, capacity = self._entries, self.capacity
        demote = self._demote_unlocked if self.stale_capacity else None
        evictions = 0
        with self._lock:
            for full_key, outcome in zip(zip(repeat(model), keys), outcomes):
                if full_key in entries:
                    entries.move_to_end(full_key)
                entries[full_key] = outcome
                if len(entries) > capacity:
                    evicted = entries.popitem(last=False)
                    evictions += 1
                    if demote is not None:
                        demote(*evicted)
            self.evictions += evictions

    def invalidate_model(self, model: str) -> int:
        """Demote every live entry of one model to the stale tier (drop it
        when there is none); returns how many left the live tier.

        Used on hot-swap and eviction: the outcomes may no longer match the
        serving weights, so they must not answer normal lookups -- but they
        remain available for breaker-open degradation, where an answer from
        the previous snapshot beats no answer at all.
        """
        with self._lock:
            dropped = [k for k in self._entries if k[0] == model]
            for k in dropped:
                outcome = self._entries.pop(k)
                if self.stale_capacity:
                    self._demote_unlocked(k, outcome)
            return len(dropped)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stale.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, model_and_key: tuple[str, bytes]) -> bool:
        with self._lock:
            return model_and_key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused).

        Hits and misses are read under the cache lock in one critical
        section -- two bare attribute reads would let a concurrent lookup
        land between them and skew the ratio.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0
