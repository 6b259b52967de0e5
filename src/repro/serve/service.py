"""The streaming inference service front-end.

:class:`StreamingInferenceService` is the piece a multi-camera deployment
talks to.  It admits signatures a block at a time -- a frame's
silhouettes arrive as one ``classify`` block, and ``submit`` is a block of
one -- validating and packing the block once, then per row it:

1. checks the signature LRU cache (packed-signature key) and answers
   on a hit -- a repeated silhouette never touches the SOM,
2. coalesces the row onto an identical *in-flight* packed signature, or
   an identical earlier row of the block, when one exists (cross-request
   deduplication: one kernel execution fans out to every waiting future,
   counted as ``dedup_hits``),
3. otherwise admits it against a service-wide pending budget -- the whole
   block's slots at once, or none (raising
   :class:`~repro.errors.ServiceOverloadedError` when saturated).  The
   budget is the service's one admission point: backpressure happens
   here, where the caller can retry, and nowhere later,
4. hands the block to the micro-batching scheduler, which cuts size- or
   deadline-bounded batches per model, and
5. hands each cut batch through the sharded model registry to its
   model's ready queue, which the model's worker threads pull from; a
   worker hands the scored batch back to the service's settle step.

The settle step (:meth:`StreamingInferenceService._settle`) is the one
code path that ends a request, whatever the outcome: an answer from the
kernel, the cache, the stale tier or a dedup fan-out, an error, or a
shed.  It retires the batch's dedup entries, releases its pending budget,
counts the metrics (straight into the :class:`~repro.obs.MetricRegistry`),
emits ``shed`` events with the reason the error's type stands for, fills
the cache, feeds the breakers and rollout mirroring, and settles every
future through :func:`~repro.serve.request.resolve_requests`.

Model lifecycle: :meth:`register_model` / :meth:`swap_model` /
:meth:`evict_model` accept fitted classifiers or
:class:`~repro.core.snapshot.ModelSnapshot` objects.  ``swap_model`` is the
zero-drop hot-reload -- shards flip to the new model at a micro-batch
boundary while queued requests ride through untouched -- and every swap or
eviction bumps the model's *generation* so the settle step never
memoises a prediction computed by a superseded map.

A background dispatcher thread enforces the deadline flushes so a lone
low-rate stream still sees bounded latency.  It sleeps until the earliest
lane deadline and is woken only by a block that leaves a lane it opened
-- the one kind of admission that starts a deadline -- so its passes
scale with batches, not with requests.  The service is a context manager:
``with StreamingInferenceService(...) as service: ...``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Callable, Collection, Optional, Sequence

import numpy as np

from repro.core.classifier import BatchPrediction, SomClassifier
from repro.core.serialization import PathLike
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DataError,
    DeadlineExceededError,
    ModelEvictedError,
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
    UnknownModelError,
)
from repro.obs import Observability
from repro.serve.batching import MicroBatch, MicroBatchScheduler
from repro.serve.cache import CachedOutcome, SignatureLruCache
from repro.serve.metrics import MetricsSnapshot
from repro.serve.registry import ModelRegistry, ModelSource
from repro.serve.resilience import (
    BreakerBoard,
    BreakerConfig,
    FaultInjector,
    RetryPolicy,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.serve.request import (
    ClassificationRequest,
    ClassificationResponse,
    Outcome,
    PendingResult,
    resolve_requests,
)
from repro.serve.rollout import RolloutConfig, RolloutManager
from repro.serve.shard import WorkerShard
from repro.signatures.packing import packed_signature_words

#: Errors that end a shard's batch without saying anything about the
#: shard's health: evictions and deadline sheds, and shard deaths, which
#: the supervisor's restart hook records against the breaker itself.
_NOT_SHARD_FAULTS = (ModelEvictedError, DeadlineExceededError, ShardFailedError)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the streaming service.

    Attributes
    ----------
    batch_size:
        Micro-batch size target; a full lane flushes immediately.
    max_delay_ms:
        Deadline bound: no admitted request waits longer than this for its
        batch to be cut.
    cache_capacity:
        Signature LRU cache entries (0 disables caching).
    n_shards:
        Worker shards per registered model; they pull cut batches from the
        model's one ready queue.
    max_pending:
        Service-wide cap on admitted-but-unresolved requests; submissions
        beyond it are refused with :class:`ServiceOverloadedError`.  The
        only admission control: it also bounds the ready queues, so an
        admitted request is never shed for queue space.
    default_deadline_s:
        Deadline budget applied to every submit that does not pass its own
        ``deadline_s`` (``None`` = no deadline).  Expired requests are shed
        with :class:`~repro.errors.DeadlineExceededError` before batching
        and again before kernel launch.
    retry:
        :class:`~repro.serve.resilience.RetryPolicy` for transient submit
        refusals (pending budget, open circuits).  ``None`` (default)
        surfaces :class:`ServiceOverloadedError` to the caller on the first
        refusal, exactly as before.
    breaker:
        :class:`~repro.serve.resilience.BreakerConfig` enabling
        per-(model, shard) circuit breakers; a cut batch is queued only
        while some shard's breaker allows it, and the service degrades to
        stale cache answers when every shard of a model is open.  ``None``
        (default) disables breakers.
    supervisor:
        :class:`~repro.serve.resilience.SupervisorConfig` for the shard
        watchdog (dead/wedged worker detection + bounded restarts).  On by
        default with conservative timeouts; ``None`` disables supervision.
    fault_injector:
        :class:`~repro.serve.resilience.FaultInjector` threaded into the
        cache, registry and shards -- chaos tests only, ``None`` in
        production.  Only used when the service builds its own registry;
        a passed-in registry keeps its own injector.
    """

    batch_size: int = 32
    max_delay_ms: float = 5.0
    cache_capacity: int = 2048
    n_shards: int = 2
    max_pending: int = 1024
    default_deadline_s: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker: Optional[BreakerConfig] = None
    supervisor: Optional[SupervisorConfig] = SupervisorConfig()
    fault_injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.max_delay_ms <= 0:
            raise ConfigurationError(
                f"max_delay_ms must be positive, got {self.max_delay_ms}"
            )
        if self.max_pending <= 0:
            raise ConfigurationError(
                f"max_pending must be positive, got {self.max_pending}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive or None, "
                f"got {self.default_deadline_s}"
            )


class StreamingInferenceService:
    """Micro-batched, sharded, cached classification for camera streams.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry` to serve from; built from ``config`` when
        omitted.  The service binds the registry's completion path to its
        settle step.
    config:
        Service configuration (defaults are sensible for tests/demos).
    clock:
        Monotonic time source, injectable for tests.
    obs:
        The :class:`~repro.obs.Observability` bundle (metric registry +
        tracer + event log) the service reports through, and the one place
        its trace sampling is set (``sample_every``).  Built with its
        defaults on ``clock`` when omitted; pass a shared instance to scrape
        several services with one exporter.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        obs: Optional[Observability] = None,
    ):
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability(clock=clock)
        self.registry = registry if registry is not None else ModelRegistry(
            n_shards=self.config.n_shards,
            clock=clock,
            fault_injector=self.config.fault_injector,
        )
        self.registry.bind_completion(self._settle, self._on_model_retired)
        self.registry.bind_events(self.obs.events)
        self.registry.bind_metrics(self.obs.registry)
        self._clock = clock
        self.scheduler = MicroBatchScheduler(
            batch_size=self.config.batch_size,
            max_delay_s=self.config.max_delay_ms / 1e3,
            clock=clock,
        )
        # Only breakers read the stale tier (get_stale), so without them
        # the cache keeps none and an eviction just drops its entry.
        self.cache = SignatureLruCache(
            self.config.cache_capacity,
            stale_capacity=None if self.config.breaker is not None else 0,
            fault_injector=self.config.fault_injector,
        )
        registry = self.obs.registry
        self._requests = registry.counter(
            "serve_requests_total", help="Requests accepted (cache hits included)"
        )
        self._responses = registry.counter(
            "serve_responses_total", help="Requests resolved with a classification"
        )
        self._cache_hits = registry.counter(
            "serve_cache_hits_total", help="Signature-cache hits"
        )
        self._cache_misses = registry.counter(
            "serve_cache_misses_total", help="Signature-cache misses"
        )
        self._dedup_hits = registry.counter(
            "serve_dedup_hits_total", help="Requests coalesced onto in-flight twins"
        )
        self._swaps = registry.counter(
            "serve_model_swaps_total", help="Zero-drop model hot-swaps"
        )
        self._backpressure = registry.counter(
            "serve_backpressure_rejections_total",
            help="Requests shed under saturation (pending budget, open circuits)",
        )
        self._batches = registry.counter(
            "serve_batches_total", help="Micro-batches dispatched to shards"
        )
        self._fill_sum = registry.counter(
            "serve_batch_fill_fraction_sum",
            help="Summed fill fractions of dispatched batches",
        )
        self._size_sum = registry.counter(
            "serve_batch_size_sum", help="Summed sizes of dispatched batches"
        )
        self._latency = registry.histogram(
            "serve_request_latency_seconds",
            help="Submit-to-resolve request latency in seconds",
        )
        self._retries = registry.counter(
            "serve_retries_total", help="Submit retries under the backoff policy"
        )
        self._deadline_exceeded = registry.counter(
            "serve_deadline_exceeded_total",
            help="Requests shed because their deadline expired",
        )
        self._stale_hits = registry.counter(
            "serve_stale_hits_total",
            help="Requests answered from the stale cache tier (breaker open)",
        )
        self._shard_restarts = registry.counter(
            "serve_shard_restarts_total",
            help="Dead/wedged workers replaced by the supervisor",
        )
        self._cache_errors = registry.counter(
            "serve_cache_errors_total",
            help="Signature-cache faults degraded to misses",
        )
        self._shard_leaks = registry.counter(
            "serve_shard_leaks_total",
            help="Worker threads that failed to join at stop",
        )
        self._board: Optional[BreakerBoard] = None
        if self.config.breaker is not None:
            self._board = BreakerBoard(
                self.config.breaker,
                clock=clock,
                registry=self.obs.registry,
                events=self.obs.events,
            )
            self.registry.bind_breakers(self._board.allow)
        self._rollout: Optional[RolloutManager] = None
        self._supervisor: Optional[ShardSupervisor] = None
        if self.config.supervisor is not None:
            self._supervisor = ShardSupervisor(
                self.registry,
                config=self.config.supervisor,
                clock=clock,
                on_restart=self._on_shard_restart,
                on_disabled=self._on_shard_disabled,
            )
        self.obs.registry.gauge(
            "serve_pending_requests",
            fn=lambda: float(self.pending_requests),
            help="Admitted-but-unresolved requests (live, read at collection)",
        )
        # In-flight dedup table: (model, packed-signature key) -> the
        # primary request whose kernel execution will answer the group.
        # Its lock also guards the pending budget, which admission reserves
        # in the same section as it dedups.
        self._inflight: dict[tuple[str, bytes], ClassificationRequest] = {}
        self._pending = 0
        self._inflight_lock = threading.Lock()
        # Per-model generation counters, bumped on swap/evict; completion
        # only memoises outcomes whose request generation is still current,
        # so a hot-swap can never leave a superseded prediction in the cache.
        # Its lock also hands out request ids.
        self._generations: dict[str, int] = {}
        self._next_request_id = 0
        self._gen_lock = threading.Lock()
        self._running = False
        # Guards the running flag against the admission path: stop() flips
        # it under this lock, and admission enqueues under it, so no request can
        # reach the scheduler after stop() has drained the lanes (a stranded
        # request would leave its future unresolved until the caller's
        # timeout).  Every batch also leaves its lane for its model's ready
        # queue under it, so drained() never sees a batch between the two.
        self._state_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._wake = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "StreamingInferenceService":
        if self._running:
            return self
        self._stop_event.clear()
        self.registry.start()
        if self._supervisor is not None:
            self._supervisor.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._running = True
        self._dispatcher.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        with self._state_lock:
            if not self._running:
                return
            self._running = False
        # The watchdog goes first: a restart racing the shard teardown
        # below would resurrect workers the registry is trying to join.
        if self._supervisor is not None:
            self._supervisor.stop()
        # Rollouts next, while the registry is still up: demoting an
        # in-flight candidate drains and evicts its canary group cleanly.
        if self._rollout is not None:
            self._rollout.stop()
        self._stop_event.set()
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
            self._dispatcher = None
        # Push whatever is still buffered through the shards, then drain them.
        self.flush()
        leaked = self.registry.stop(timeout)
        if leaked:
            self._shard_leaks.inc(len(leaked))

    def __enter__(self) -> "StreamingInferenceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------ #
    # Model lifecycle (registry + cache/generation bookkeeping)
    # ------------------------------------------------------------------ #
    def register_model(self, name: str, model: ModelSource) -> None:
        """Register a fitted classifier or :class:`ModelSnapshot` under ``name``."""
        self.registry.register(name, model)

    def load_model(self, name: str, path: PathLike) -> SomClassifier:
        return self.registry.load(name, path)

    def swap_model(self, name: str, model: ModelSource) -> SomClassifier:
        """Hot-reload ``name`` with zero dropped requests; return the old model.

        Delegates the shard flip to :meth:`ModelRegistry.swap` (queued
        batches ride through; the in-flight batch finishes on the old map);
        the registry's ``retired`` hook then bumps the model's generation
        and invalidates its cache entries so no memoised outcome of the
        superseded map survives -- that hook also covers swaps issued on
        ``service.registry`` directly.  Requests already queued resolve
        successfully, scored by whichever map was current at their
        micro-batch boundary -- exactly the semantics of reflashing the
        FPGA between patterns.
        """
        previous = self.registry.swap(name, model)  # raises UnknownModelError
        self._swaps.inc()
        return previous

    def evict_model(self, name: str) -> SomClassifier:
        """Unregister ``name``; every queued future fails promptly and clearly.

        Batches in the model's ready queue are failed by the registry with
        :class:`~repro.errors.ModelEvictedError`; requests still buffered
        in this service's scheduler lane are cut and failed here the same
        way, so no future is left waiting for a deadline flush to discover
        that the name no longer routes.
        """
        classifier = self.registry.evict(name)  # fires _on_model_retired
        lane = self.scheduler.cut_lane(name)
        if lane is not None:
            self._settle(None, lane, ModelEvictedError(name, self.registry.names()))
        return classifier

    def enable_rollouts(
        self, config: Optional[RolloutConfig] = None
    ) -> RolloutManager:
        """Attach the guarded-rollout machinery (idempotent; returns it).

        Once enabled, :meth:`RolloutManager.begin` shadow-evaluates
        candidates against live traffic, the configured
        :class:`~repro.serve.rollout.RolloutPolicy` promotes or demotes
        them automatically, and -- when circuit breakers are configured and
        ``rollback_on_breaker`` is set -- a breaker opening on a freshly
        promoted model swaps the previous snapshot back in.
        """
        if self._rollout is None:
            self._rollout = RolloutManager(self, config)
            if self._board is not None:
                self._board.on_open = self._rollout.on_breaker_open
        return self._rollout

    @property
    def rollouts(self) -> Optional[RolloutManager]:
        """The attached :class:`RolloutManager`, or ``None``."""
        return self._rollout

    def _on_model_retired(self, name: str, evicted: bool) -> None:
        """Registry hook: a swap/evict displaced ``name``'s classifier.

        Runs after the shards have flipped (or torn down), whichever entry
        point initiated it -- ``swap_model``/``evict_model`` here or
        ``registry.swap``/``registry.evict`` directly.  Bumping the
        generation first blocks further cache fills from pre-swap requests;
        the invalidation then clears anything already memoised.  An
        eviction also drops the model's breakers and their gauges, so a
        service rolling out through canaries keeps no series of versions
        it no longer serves.
        """
        with self._gen_lock:
            self._generations[name] = self._generations.get(name, 0) + 1
        dropped = self.cache.invalidate_model(name)
        self.obs.events.emit("cache_invalidate", model=name, dropped_entries=dropped)
        if evicted and self._board is not None:
            self._board.forget(name)

    # ------------------------------------------------------------------ #
    # Submission: one admission path, a block of signatures at a time
    # ------------------------------------------------------------------ #
    def submit(
        self,
        signature: np.ndarray,
        *,
        model: str,
        stream_id: str = "",
        deadline_s: Optional[float] = None,
    ) -> PendingResult:
        """Queue one signature for classification; returns its future.

        A block of one: admission, errors, retries and deadlines are
        :meth:`submit_many`'s.  A cache hit resolves before this returns.
        """
        signature = np.asarray(signature)
        if signature.ndim != 1:
            raise DataError(
                f"expected a one-dimensional bit vector, got shape {signature.shape}"
            )
        return self._admit(signature[np.newaxis], model, stream_id, deadline_s)[0].pending

    def submit_many(
        self,
        X: np.ndarray,
        *,
        model: str,
        stream_id: str = "",
        deadline_s: Optional[float] = None,
    ) -> list[PendingResult]:
        """Admit the rows of ``X`` as one block; returns one future per row.

        The block is validated and packed once and takes its request ids,
        pending-budget slots and lane hand-off in one step each; cache hits
        and dedup followers (rows equal to a request in flight or an earlier
        row) take no slot.  All or nothing: with no row admitted, counted or
        answered, raises :class:`~repro.errors.DataError` (empty, or not
        zeros and ones), :class:`~repro.errors.ConfigurationError` (width),
        :class:`UnknownModelError`, :class:`ServiceError` (not running),
        :class:`ServiceOverloadedError` (the pending budget cannot take every
        row that needs a kernel) or :class:`~repro.errors.CircuitOpenError`
        (every breaker open, a row without a stale answer); each refused row
        counts once as shed.  If :meth:`stop` wins the race, the rows that
        needed a kernel fail.  An admitted row is never shed for queue
        space.  ``config.retry`` retries a refused block whole;
        ``deadline_s`` (default ``config.default_deadline_s``) sheds a late
        row with :class:`~repro.errors.DeadlineExceededError`.
        """
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        return [request.pending for request in self._admit(X, model, stream_id, deadline_s)]

    def classify(
        self,
        model: str,
        X: np.ndarray,
        *,
        stream_id: str = "",
        timeout: float = 30.0,
        deadline_s: Optional[float] = None,
    ) -> list[ClassificationResponse]:
        """:meth:`submit_many`, then wait up to ``timeout`` seconds for each
        answer: how :class:`repro.pipeline.system.RecognitionSystem` sends a
        frame's silhouettes, as one block."""
        futures = self.submit_many(
            X, model=model, stream_id=stream_id, deadline_s=deadline_s
        )
        return [future.result(timeout) for future in futures]

    def _admit(
        self, X: np.ndarray, model: str, stream_id: str, deadline_s: Optional[float]
    ) -> list[ClassificationRequest]:
        """Admit the 2-D block ``X``, retrying a refusal under
        ``config.retry``; returns its requests in row order."""
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline_at = None if deadline_s is None else self._clock() + deadline_s
        attempt = 0
        while True:
            if not self._running:
                raise ServiceError("the service is not running; call start() first")
            # Canary routing: under a traffic split each row draws its own
            # version, so the Kth draw stays a pure function of (seed, name,
            # K) and lanes, cache and dedup keys and responses carry the
            # version that serves the row.  A draw of another version pins it
            # until the block is in its lanes or settled, so a teardown
            # draining the version (drained) waits for it.
            if len(X) == 1:
                version, versions = self.registry.resolve(model), None
            elif self.registry.route(model) is None:
                version, versions = model, None
            else:
                version, versions = None, [self.registry.resolve(model) for _ in X]
            try:
                return self._admit_routed(X, version, versions, stream_id, deadline_at)
            except ServiceOverloadedError:
                attempt += 1
                policy = self.config.retry
                if policy is None or attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_s(attempt)
                if deadline_at is not None and self._clock() + delay >= deadline_at:
                    raise  # the backoff would outlive the deadline
            finally:
                if version != model:  # a routed draw pinned its version
                    for drawn in (version,) if versions is None else versions:
                        if drawn != model:
                            self.registry.release(drawn)
            self._retries.inc()
            time.sleep(delay)

    def _admit_routed(
        self,
        X: np.ndarray,
        version: Optional[str],
        versions: Optional[list[str]],
        stream_id: str,
        deadline_at: Optional[float],
    ) -> list[ClassificationRequest]:
        """Admit ``X``, served by ``version``, or row i by ``versions[i]``."""
        names = (version,) if versions is None else tuple(dict.fromkeys(versions))
        classifiers = list(map(self.registry.classifier, names))  # UnknownModelError
        # Validate and pack the block once: row i's uint64 words are both
        # request i's cache key (their bytes) and its distance-kernel input.
        words = packed_signature_words(X)
        n_bits = X.shape[1]
        for name, classifier in zip(names, classifiers):
            if classifier.som.n_bits != n_bits:
                raise ConfigurationError(f"model {name!r} expects "
                    f"{classifier.som.n_bits}-bit signatures, got {n_bits} bits")
        now = self._clock()
        # One section hands out the block's request ids and reads the
        # generations its settle checks before memoising: a swap landing
        # after this read costs a cache fill, never a stale one.
        with self._gen_lock:
            first_id = self._next_request_id
            self._next_request_id = first_id + len(words)
            generations = self._generations.copy()
        get = self.cache.get
        requests: list[ClassificationRequest] = []
        misses: list[ClassificationRequest] = []
        hits: list[tuple[ClassificationRequest, CachedOutcome]] = []
        cache_errors = 0
        for request_id, packed in enumerate(words, first_id):
            name = version if versions is None else versions[request_id - first_id]
            key = packed.tobytes()
            request = ClassificationRequest(
                packed, name, stream_id, request_id, key, now,
                generation=generations.get(name, 0),
                deadline_at=deadline_at,
            )
            requests.append(request)
            try:
                outcome = get(name, key)
            except Exception:
                # A corrupt entry / codec bug degrades to a miss, not a failed
                # request: the SOM can re-derive the answer.  Counted.
                cache_errors += 1
                outcome = None
            if outcome is None:
                misses.append(request)
            else:
                hits.append((request, outcome))
        if cache_errors:
            self._cache_errors.inc(cache_errors)
        primaries, stale = self._reserve(requests, misses) if misses else ((), ())
        if hits:
            self._answer_at_admission(hits)
        if stale:
            self._answer_at_admission(stale, stale=True)
        if not primaries:
            return requests
        with self._state_lock:
            admitted = self._running
            if admitted:
                # Counted only once admitted: primaries that lose the race
                # with stop() below are refused, not accepted.
                self._requests.inc(len(primaries))
                self._cache_misses.inc(len(primaries))
                batches, opened = self.scheduler.submit(primaries)
                for batch in batches:
                    # Dispatch inside the lock so stop() cannot close the
                    # ready queues in front of this batch.
                    self._dispatch(batch)
        if not admitted:
            # stop() won the race after the entry check: fail fast instead of
            # stranding the primaries, and their followers, in a drained lane.
            error = ServiceError("the service is not running; call start() first")
            self._settle(None, _block(primaries, "stop"), error)
            raise error
        if opened:
            self._wake.set()  # only a block that opens a lane starts a deadline
        return requests

    def _answer_at_admission(
        self, answers: list[tuple[ClassificationRequest, CachedOutcome]], stale: bool = False
    ) -> None:
        """Count and settle cache (or stale-tier) answers, each as a batch of one."""
        self._requests.inc(len(answers))
        (self._stale_hits if stale else self._cache_hits).inc(len(answers))
        for request, outcome in answers:
            if stale:
                self.obs.events.emit(
                    "stale_hit", model=request.model, request_id=request.request_id
                )
            self._settle(None, _block([request]), outcome, admitted=False, stale=stale)

    def _reserve(
        self,
        requests: list[ClassificationRequest],
        misses: list[ClassificationRequest],
    ) -> tuple[list[ClassificationRequest], list[tuple[ClassificationRequest, CachedOutcome]]]:
        """Dedup a block's misses and reserve its primaries' slots in one
        ``_inflight_lock`` section; returns the primaries and stale answers.

        A miss equal to a request in flight or an earlier miss follows it;
        with its model's breakers all open it takes a stale answer or
        refuses the block; else it is a primary.  Only an admitted block
        leaves entries in the dedup table; a refusal settles ``requests``
        and raises.
        """
        open_models: Collection[str] = ()
        if self._board is not None:
            allow = self._board.would_allow_any
            models = {request.model for request in misses}
            open_models = {m for m in models if not allow(m, self.registry.shard_names(m))}
        primaries: list[ClassificationRequest] = []
        followers: list[tuple[ClassificationRequest, ClassificationRequest]] = []
        stale: list[tuple[ClassificationRequest, CachedOutcome]] = []
        refusal: Optional[ServiceOverloadedError] = None
        inflight = self._inflight
        with self._inflight_lock:
            for request in misses:
                key = (request.model, request.cache_key)
                # An entry made here lets an equal later row follow this one.
                primary = inflight.setdefault(key, request)
                if primary is not request:
                    followers.append((primary, request))
                elif request.model not in open_models:
                    primaries.append(request)
                else:
                    del inflight[key]
                    outcome = self.cache.get_stale(*key)
                    if outcome is None:
                        # No stale answer either: shed, so the retry policy
                        # backs off until a half-open probe closes a breaker.
                        shards = len(self.registry.shard_names(request.model))
                        refusal = CircuitOpenError(
                            request.model, open_shards=shards, total_shards=shards
                        )
                        break
                    stale.append((request, outcome))
            if refusal is None and primaries:
                pending = self._pending + len(primaries)
                if pending <= self.config.max_pending:
                    self._pending = pending
                else:
                    refusal = ServiceOverloadedError("service pending budget",
                        pending=self._pending, capacity=self.config.max_pending)
            if refusal is not None:
                for request in primaries:
                    del inflight[(request.model, request.cache_key)]
            elif followers:
                # Followers count as accepted now: their primary may settle
                # them once the lock is released.
                self._requests.inc(len(followers))
                self._dedup_hits.inc(len(followers))
                for primary, follower in followers:
                    # A primary's list is made when its first follower
                    # attaches.
                    if primary.followers is None:
                        primary.followers = [follower]
                    else:
                        primary.followers.append(follower)
        if refusal is not None:
            # Every row, cache hits included, is shed, not a request.
            self._settle(None, _block(requests), refusal, admitted=False)
            raise refusal
        for primary, follower in followers:
            self.obs.events.emit("dedup", model=follower.model, request_id=follower.request_id,
                                 primary_request_id=primary.request_id)
        return primaries, stale

    def flush(self) -> None:
        """Force-dispatch every buffered lane (bounded-latency barrier)."""
        with self._state_lock:
            for batch in self.scheduler.drain():
                self._dispatch(batch)

    def drained(self, model: str) -> bool:
        """Whether nothing resolved to ``model`` is still on its way to a
        shard, or queued for or in flight on one.

        True when no admission pins ``model`` (a routed draw not yet in its
        lane), its scheduler lane and its ready queue are empty, and no
        shard of it holds a batch.  A canary teardown polls this after
        clearing the version's route: no request can resolve to the
        version after that, so once this holds, evicting the version fails
        nothing routed to it.  Read under the state lock, under which every
        batch leaves its lane for the ready queue, so a batch between the
        two is never missed.
        """
        with self._state_lock:
            if self.registry.pinned(model) or self.scheduler.pending_count(model):
                return False
            try:
                return self.registry.group(model).idle
            except UnknownModelError:
                return True

    # ------------------------------------------------------------------ #
    # Dispatch and completion
    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: MicroBatch) -> None:
        # First deadline shed: requests that expired while waiting for
        # their batch to be cut never reach a ready queue.  (The shard
        # sheds once more just before kernel launch.)
        live, expired = batch.partition_expired(self._clock())
        if expired is not None:
            self._settle(None, expired, DeadlineExceededError(batch.model))
        if live is None:
            return
        batch = live
        batch.dispatched = True  # its requests now wait for a shard, not a cut
        try:
            self.registry.submit(batch)
        except Exception as error:
            # Every shard gated off, or the model gone: the settle step
            # sheds or fails the batch by the error's type.
            self._settle(None, batch, error)
            return
        # Counted once a ready queue has taken the batch.
        self._batches.inc()
        self._fill_sum.inc(batch.fill_fraction)
        self._size_sum.inc(len(batch))

    def _settle(
        self,
        shard: Optional[WorkerShard],
        batch: MicroBatch,
        outcome: Outcome,
        *,
        admitted: bool = True,
        stale: bool = False,
    ) -> None:
        """End every request of ``batch`` in one pass: the one path that
        does so.

        ``outcome`` is the shard's prediction, a cached outcome (cache or
        stale-tier hit), or the error that ended the batch.  ``shard`` is
        the shard that finished the batch, ``None`` when the service ends
        it itself or a group fails it straight off its ready queue.
        ``admitted`` batches hold pending-budget slots and
        dedup entries; requests answered or refused at admission hold
        neither.  A fault while answering fails the batch with that fault
        rather than stranding it.  Each step takes its lock once for the
        whole batch: the dedup table and budget, the futures (in
        :func:`~repro.serve.request.resolve_requests`), the latency
        histogram and the cache write.
        """
        requests = batch.requests
        if admitted:
            # Retire the dedup entries first (identity-checked: a racing
            # twin may own the key): once an entry is gone no new follower
            # can attach, so each request's follower list is final by the
            # time it is settled below.  The budget goes back in the same
            # section.
            inflight = self._inflight
            with self._inflight_lock:
                for key, request in zip(map(_DEDUP_KEY, requests), requests):
                    if inflight.get(key) is request:
                        del inflight[key]
                self._pending -= len(requests)
        if (
            shard is not None
            and self._board is not None
            and not isinstance(outcome, _NOT_SHARD_FAULTS)
        ):
            self._board.record(
                batch.model, shard.name, ok=not isinstance(outcome, BaseException)
            )
        if not isinstance(outcome, BaseException):
            try:
                if isinstance(outcome, BatchPrediction):
                    # The rows answer the futures and fill the cache below:
                    # built once.
                    outcome = CachedOutcome.rows(outcome)
                responses = resolve_requests(
                    requests,
                    outcome,
                    clock=self._clock,
                    stale=stale,
                    record=self._count_responses,
                    tracer=self.obs.tracer,
                    batch=batch,
                )
            except Exception as error:
                outcome = error
        if isinstance(outcome, BaseException):
            reason = _shed_reason(outcome)
            if reason is not None:
                shed = (
                    self._deadline_exceeded
                    if reason == "deadline_exceeded"
                    else self._backpressure
                )
                shed.inc(len(batch))
                self.obs.events.emit(
                    "shed", model=batch.model, reason=reason, count=len(batch)
                )
            resolve_requests(requests, outcome, clock=self._clock, shed=reason,
                             tracer=self.obs.tracer, batch=batch)
            return
        if shard is None:
            return  # a cache or stale-tier answer: nothing to memoise or mirror
        # Memoise under the generation lock: a request stamped with the
        # model's current generation was classified by the current map (a
        # swap bumps the generation only after the shards have flipped), so
        # checking inside the lock guarantees no superseded outcome is
        # written after swap_model's cache invalidation ran.
        with self._gen_lock:
            current = self._generations.get(batch.model, 0)
            fresh = list(map(current.__eq__, map(_GENERATION, requests)))
            try:
                self.cache.put_many(
                    batch.model,
                    compress(map(_CACHE_KEY, requests), fresh),
                    compress(outcome, fresh),
                )
            except Exception:
                # A cache write fault loses the batch's memoisation, nothing
                # else: the responses were already delivered above.
                self._cache_errors.inc()
        if self._rollout is not None:
            # Shadow mirroring runs dead last: every caller already has its
            # answer, so a slow (or crashing) candidate cannot touch the
            # primary path.  The hook itself only enqueues.
            try:
                self._rollout.mirror_batch(batch, responses[: len(batch)])
            except Exception:  # pragma: no cover - mirroring must not fail
                pass

    def _count_responses(self, responses: list[ClassificationResponse]) -> None:
        """Count answers and their latencies before their futures are set."""
        self._responses.inc(len(responses))
        self._latency.observe_many(list(map(_LATENCY, responses)))

    def _on_shard_restart(self, model: str, shard_name: str, reason: str) -> None:
        """Supervisor hook: a dead/wedged worker was replaced."""
        self._shard_restarts.inc()
        self.obs.events.emit(
            "shard_restart", model=model, shard=shard_name, reason=reason
        )
        if self._board is not None:
            self._board.record(model, shard_name, ok=False)

    def _on_shard_disabled(self, model: str, shard_name: str, reason: str) -> None:
        """Supervisor hook: a shard exhausted its restart budget."""
        self.obs.events.emit(
            "shard_disabled", model=model, shard=shard_name, reason=reason
        )
        if self._board is not None:
            self._board.record(model, shard_name, ok=False)

    def _dispatch_loop(self) -> None:
        # Sleeps until the earliest lane deadline.  Only a block that leaves
        # a lane it opened sets _wake (and stop()): a request joining a lane
        # cannot move that lane's deadline, which runs from its oldest
        # request.  Every clear() is followed by a fresh next_deadline()
        # read before the next wait, so a set that lands between a wait
        # returning and its clear() is not lost: the read sees its lane.
        max_idle_wait = max(self.config.max_delay_ms / 1e3, 0.01)
        while not self._stop_event.is_set():
            deadline = self.scheduler.next_deadline()
            if deadline is None:
                self._wake.wait(timeout=max_idle_wait)
                self._wake.clear()
                continue
            remaining = deadline - self._clock()
            if remaining > 0:
                self._wake.wait(timeout=remaining)
                self._wake.clear()
            with self._state_lock:
                for batch in self.scheduler.due():
                    self._dispatch(batch)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    @property
    def pending_requests(self) -> int:
        """Admitted requests not yet resolved (cache hits excluded).

        Read without a lock: one int read is atomic, and the gauge that
        calls this must not wait on the admission section, which counts
        requests while it holds ``_inflight_lock``.
        """
        return self._pending

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Current counters, read from ``obs.registry``, plus a live
        per-model ready-queue depth sample."""
        return MetricsSnapshot.read(self.obs.registry, self.registry.queue_depths())


_DEDUP_KEY = attrgetter("model", "cache_key")
_CACHE_KEY = attrgetter("cache_key")
_GENERATION = attrgetter("generation")
_LATENCY = attrgetter("latency_s")


def _block(requests: Sequence[ClassificationRequest], flushed_by: str = "submit") -> MicroBatch:
    """Requests settled at admission, as one batch: ``"submit"``, or
    ``"stop"`` for admitted requests refused on their way into a lane."""
    return MicroBatch(
        requests[0].model, tuple(requests), capacity=len(requests), flushed_by=flushed_by
    )


def _shed_reason(error: BaseException) -> Optional[str]:
    """The ``shed`` reason ``error`` stands for; ``None`` for a failure.

    A plain :class:`ServiceOverloadedError` only ever refuses a block at
    the pending budget, before admission.
    """
    if isinstance(error, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(error, CircuitOpenError):
        return "circuit_open"
    if isinstance(error, ServiceOverloadedError):
        return "pending_budget"
    return None
