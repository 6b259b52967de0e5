"""The streaming inference service front-end.

:class:`StreamingInferenceService` is the piece a multi-camera deployment
talks to.  Per request it:

1. checks the signature LRU cache (packed-signature key) and answers
   immediately on a hit -- a repeated silhouette never touches the SOM,
2. coalesces the request onto an identical *in-flight* packed signature
   when one exists (cross-request deduplication: one kernel execution fans
   out to every waiting future, counted as ``dedup_hits``),
3. otherwise admits the request against a service-wide pending budget
   (raising :class:`~repro.errors.ServiceOverloadedError` when saturated --
   backpressure instead of unbounded queues),
4. hands it to the micro-batching scheduler, which cuts size- or
   deadline-bounded batches per model, and
5. routes each batch through the sharded model registry to a worker
   thread, which hands the scored batch back to the service's settle
   step.

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
low-rate stream still sees bounded latency.  The service is a context
manager: ``with StreamingInferenceService(...) as service: ...``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.classifier import SomClassifier
from repro.core.serialization import PathLike
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ModelEvictedError,
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
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
        Worker shards per registered model.
    routing_policy:
        ``"round_robin"`` or ``"least_loaded"`` shard selection.
    shard_queue_capacity:
        Bounded batch queue per shard.
    max_pending:
        Service-wide cap on admitted-but-unresolved requests; submissions
        beyond it are refused with :class:`ServiceOverloadedError`.
    trace_sample_every:
        Trace every Nth request (``1`` = all, ``0`` = tracing off).  Only
        used when the service builds its own :class:`~repro.obs.Observability`;
        a passed-in ``obs`` keeps its own sampling rate.
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
        per-(model, shard) circuit breakers; the router skips open shards
        and the service degrades to stale cache answers when every shard
        of a model is open.  ``None`` (default) disables breakers.
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
    routing_policy: str = "round_robin"
    shard_queue_capacity: int = 8
    max_pending: int = 1024
    trace_sample_every: int = 16
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
        if self.trace_sample_every < 0:
            raise ConfigurationError(
                "trace_sample_every must be >= 0 (0 disables tracing), "
                f"got {self.trace_sample_every}"
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
        tracer + event log) the service reports through.  Built from
        ``config.trace_sample_every`` and ``clock`` when omitted; pass a
        shared instance to scrape several services with one exporter.
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
        self.obs = obs if obs is not None else Observability(
            sample_every=self.config.trace_sample_every, clock=clock
        )
        self.registry = registry or ModelRegistry(
            n_shards=self.config.n_shards,
            policy=self.config.routing_policy,
            queue_capacity=self.config.shard_queue_capacity,
            clock=clock,
            fault_injector=self.config.fault_injector,
        )
        self.registry.bind_completion(self._settle, self._on_model_retired)
        self.registry.bind_events(self.obs.events)
        self._clock = clock
        self.scheduler = MicroBatchScheduler(
            batch_size=self.config.batch_size,
            max_delay_s=self.config.max_delay_ms / 1e3,
            clock=clock,
        )
        self.cache = SignatureLruCache(
            self.config.cache_capacity, fault_injector=self.config.fault_injector
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
            help="Requests shed under saturation (pending budget, shard queues, "
            "open circuits)",
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
        self._pending = 0
        self._pending_lock = threading.Lock()
        # In-flight dedup table: (model, packed-signature key) -> the
        # primary request whose kernel execution will answer the group.
        self._inflight: dict[tuple[str, bytes], ClassificationRequest] = {}
        self._inflight_lock = threading.Lock()
        # Per-model generation counters, bumped on swap/evict; completion
        # only memoises outcomes whose request generation is still current,
        # so a hot-swap can never leave a superseded prediction in the cache.
        self._generations: dict[str, int] = {}
        self._gen_lock = threading.Lock()
        self._next_request_id = 0
        self._id_lock = threading.Lock()
        self._running = False
        # Guards the running flag against the submit path: stop() flips it
        # under this lock, and submit() enqueues under it, so no request can
        # reach the scheduler after stop() has drained the lanes (a stranded
        # request would leave its future unresolved until the caller's
        # timeout).
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
        for batch in self.scheduler.drain():
            self._dispatch(batch)
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

        Shard-queued batches are failed by the registry with
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

    def _on_model_retired(self, name: str) -> None:
        """Registry hook: a swap/evict displaced ``name``'s classifier.

        Runs after the shards have flipped (or torn down), whichever entry
        point initiated it -- ``swap_model``/``evict_model`` here or
        ``registry.swap``/``registry.evict`` directly.  Bumping the
        generation first blocks further cache fills from pre-swap requests;
        the invalidation then clears anything already memoised.
        """
        with self._gen_lock:
            self._generations[name] = self._generations.get(name, 0) + 1
        dropped = self.cache.invalidate_model(name)
        self.obs.events.emit("cache_invalidate", model=name, dropped_entries=dropped)

    # ------------------------------------------------------------------ #
    # Submission
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

        Cache hits resolve before this method returns.  Raises
        :class:`ServiceOverloadedError` when the service-wide pending
        budget is full (or, as :class:`~repro.errors.CircuitOpenError`,
        when every shard breaker of the model is open and no stale cache
        entry could answer), and :class:`UnknownModelError` for an
        unregistered model name.  Shard-queue saturation is only
        detectable at dispatch time (the batch holds other callers'
        requests and may be cut by the deadline thread), so that flavour
        of backpressure is delivered through the future: ``result()``
        re-raises the :class:`ServiceOverloadedError` for every request of
        the shed batch.  Callers should treat both paths as "retry later";
        :func:`repro.serve.streams.drive_streams` shows the pattern.

        When ``config.retry`` is set, transient submit-time refusals are
        retried here under jittered exponential backoff -- bounded by the
        policy's ``max_attempts`` and by the request's deadline (the
        service never sleeps past ``deadline_at``).  A refused submit
        leaves no admitted state behind, so retries cannot stack orphaned
        requests against the pending budget.

        ``deadline_s`` (defaulting to ``config.default_deadline_s``) is
        the caller's total latency budget: requests that exceed it are
        shed with :class:`~repro.errors.DeadlineExceededError` at dispatch
        or pre-kernel instead of consuming a kernel they can no longer
        use.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline_at = None if deadline_s is None else self._clock() + deadline_s
        policy = self.config.retry
        attempt = 0
        while True:
            try:
                return self._submit_once(
                    signature,
                    model=model,
                    stream_id=stream_id,
                    deadline_at=deadline_at,
                )
            except ServiceOverloadedError:
                attempt += 1
                if policy is None or attempt >= policy.max_attempts:
                    raise
                delay = policy.delay_s(attempt)
                if deadline_at is not None and self._clock() + delay >= deadline_at:
                    raise  # the backoff would outlive the deadline
                self._retries.inc()
                time.sleep(delay)

    def _submit_once(
        self,
        signature: np.ndarray,
        *,
        model: str,
        stream_id: str,
        deadline_at: Optional[float],
    ) -> PendingResult:
        if not self._running:
            raise ServiceError("the service is not running; call start() first")
        # Canary routing: a logical name under an active traffic split
        # resolves to a concrete version here, once, so lanes, cache keys,
        # dedup keys and the response all carry the version that actually
        # serves the request.  Unrouted names pass through untouched.
        model = self.registry.resolve(model)
        classifier = self.registry.classifier(model)  # raises UnknownModelError
        signature = np.asarray(signature)
        # Validate and pack exactly once: the uint64 words are both the
        # cache key (their raw bytes) and the shard's distance-kernel
        # input, so the signature is never re-packed downstream.
        packed = packed_signature_words(signature)  # validates the bit vector
        key = packed.tobytes()
        if signature.size != classifier.som.n_bits:
            raise ConfigurationError(
                f"model {model!r} expects {classifier.som.n_bits}-bit signatures, "
                f"got {signature.size} bits"
            )
        now = self._clock()
        with self._id_lock:
            request_id = self._next_request_id
            self._next_request_id += 1
        request = ClassificationRequest(
            signature=signature.astype(np.uint8, copy=True),
            model=model,
            stream_id=stream_id,
            request_id=request_id,
            cache_key=key,
            enqueued_at=now,
            packed=packed,
            trace=self.obs.tracer.start(
                t=now, model=model, stream_id=stream_id, request_id=request_id
            ),
            deadline_at=deadline_at,
        )

        try:
            outcome = self.cache.get(model, key)
        except Exception:
            # A corrupt entry / codec bug in the cache must degrade to a
            # miss, not fail the request: the SOM can always re-derive the
            # answer.  Counted so an elevated error rate is visible.
            self._cache_errors.inc()
            outcome = None
        if outcome is not None:
            self._requests.inc()
            self._cache_hits.inc()
            self._settle(None, _alone(request), outcome, admitted=False)
            return request.pending

        # Cross-request dedup: an identical packed signature already in
        # flight for this model answers us too.  The follower consumes no
        # pending-budget slot and never reaches a shard -- the primary's
        # one kernel execution fans out to every waiting future.
        with self._inflight_lock:
            primary = self._inflight.get((model, key))
            if primary is not None:
                if request.trace is not None:
                    # The follower never queues or reaches a shard; its one
                    # span records the coalesce and links to the primary's
                    # kernel span, which does the actual work.
                    span = request.trace.span(
                        "dedup",
                        start=now,
                        end=self._clock(),
                        primary_request_id=primary.request_id,
                    )
                    if primary.trace is not None:
                        span.add_link(
                            trace_id=primary.trace.trace_id, span="kernel"
                        )
                # Append last: once the follower is visible to the settle
                # step its trace/span state must be final.
                primary.followers.append(request)
                self._requests.inc()
                self._dedup_hits.inc()
                self.obs.events.emit(
                    "dedup",
                    model=model,
                    request_id=request_id,
                    primary_request_id=primary.request_id,
                )
                return request.pending

        refusal: Optional[ServiceOverloadedError] = None
        if self._board is not None:
            shard_names = self.registry.shard_names(model)
            if not self._board.would_allow_any(model, shard_names):
                # Every shard breaker of the model is open: degrade to the
                # stale cache tier if it can answer (flagged stale=True),
                # otherwise shed with CircuitOpenError so the retry policy
                # backs off until a half-open probe closes a breaker.
                stale = self.cache.get_stale(model, key)
                if stale is not None:
                    self._requests.inc()
                    self._stale_hits.inc()
                    self.obs.events.emit(
                        "stale_hit", model=model, request_id=request_id
                    )
                    self._settle(None, _alone(request), stale, admitted=False, stale=True)
                    return request.pending
                refusal = CircuitOpenError(
                    model,
                    open_shards=len(shard_names),
                    total_shards=len(shard_names),
                )
        if refusal is None:
            with self._pending_lock:
                if self._pending < self.config.max_pending:
                    self._pending += 1
                else:
                    refusal = ServiceOverloadedError(
                        "service pending budget",
                        pending=self._pending,
                        capacity=self.config.max_pending,
                    )
        if refusal is not None:
            # A refused attempt is backpressure only -- neither a request
            # nor a cache miss -- so requests_total keeps the documented
            # meaning of "requests accepted".
            self._settle(None, _alone(request), refusal, admitted=False)
            raise refusal

        with self._gen_lock:
            request.generation = self._generations.get(model, 0)
        if request.trace is not None:
            request.trace.begin("queue", t=now)
        with self._inflight_lock:
            # First-in becomes the primary; later identical signatures
            # coalesce onto it until its batch completes.
            self._inflight.setdefault((model, key), request)
        with self._state_lock:
            admitted = self._running
            if admitted:
                # Counted only once admitted: a request that loses the race
                # with stop() below is refused, not accepted.
                self._requests.inc()
                self._cache_misses.inc()
                full_batch = self.scheduler.submit(request)
                if full_batch is not None:
                    # Dispatch inside the lock so stop() cannot slip its
                    # shard shutdown sentinel in front of this batch.
                    self._dispatch(full_batch)
        if not admitted:
            # stop() won the race after the entry check: fail fast instead
            # of stranding the request in a drained lane.
            error = ServiceError("the service is not running; call start() first")
            self._settle(None, _alone(request), error)
            raise error
        if full_batch is None:
            self._wake.set()
        return request.pending

    def submit_many(
        self,
        X: np.ndarray,
        *,
        model: str,
        stream_id: str = "",
        deadline_s: Optional[float] = None,
        drain_timeout_s: float = 30.0,
    ) -> list[PendingResult]:
        """Submit every row of ``X``; returns one future per row.

        All-or-nothing admission: if a row's ``submit`` is refused with
        :class:`ServiceOverloadedError` (after the retry policy, if any,
        gave up), the rows already submitted are drained -- their results
        awaited and discarded, dedup followers included, since a follower's
        future resolves with its primary -- before the error is re-raised.
        A retrying caller therefore never stacks orphaned requests onto the
        already-saturated pending budget.
        """
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        futures: list[PendingResult] = []
        try:
            for row in X:
                futures.append(
                    self.submit(
                        row, model=model, stream_id=stream_id, deadline_s=deadline_s
                    )
                )
        except ServiceOverloadedError:
            # Drain without flushing: the deadline dispatcher cuts the
            # orphans' lane within max_delay_ms, and a global flush here
            # would fragment every other caller's half-filled batches at
            # the exact moment the service is saturated.
            for future in futures:
                try:
                    future.result(drain_timeout_s)
                except ServiceError:
                    pass
            raise
        return futures

    def classify(
        self,
        model: str,
        X: np.ndarray,
        *,
        stream_id: str = "",
        timeout: float = 30.0,
        deadline_s: Optional[float] = None,
    ) -> list[ClassificationResponse]:
        """Synchronous convenience: submit every row of ``X`` and wait.

        This is the path :class:`repro.pipeline.system.RecognitionSystem`
        uses to push a frame's silhouettes through the service.  Delegates
        admission (and its all-or-nothing overload drain) to
        :meth:`submit_many`.
        """
        futures = self.submit_many(
            X,
            model=model,
            stream_id=stream_id,
            deadline_s=deadline_s,
            drain_timeout_s=timeout,
        )
        return [future.result(timeout) for future in futures]

    def flush(self) -> None:
        """Force-dispatch every buffered lane (bounded-latency barrier)."""
        for batch in self.scheduler.drain():
            self._dispatch(batch)

    # ------------------------------------------------------------------ #
    # Dispatch and completion
    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: MicroBatch) -> None:
        # First deadline shed: requests that expired while waiting for
        # their batch to be cut never reach a shard queue.  (The shard
        # sheds once more just before kernel launch.)
        live, expired = batch.partition_expired(self._clock())
        if expired is not None:
            self._settle(None, expired, DeadlineExceededError(batch.model))
        if live is None:
            return
        batch = live
        self._batches.inc()
        self._fill_sum.inc(batch.fill_fraction)
        self._size_sum.inc(len(batch))
        for request in batch.requests:
            if request.trace is not None:
                # The batch-cut timestamp is the queue/batch boundary: the
                # request stopped waiting for peers and started waiting for
                # a shard.  The shard ends the batch span at kernel start.
                request.trace.end("queue", t=batch.cut_at)
                request.trace.begin("batch", t=batch.cut_at)
        try:
            self.registry.submit(batch)
        except Exception as error:
            # Full shard queues, every circuit open, or the model gone:
            # the settle step sheds or fails the batch by the error's type.
            self._settle(None, batch, error)

    def _settle(
        self,
        shard: Optional[WorkerShard],
        batch: MicroBatch,
        outcome: Outcome,
        *,
        admitted: bool = True,
        stale: bool = False,
    ) -> None:
        """End every request of ``batch``: the one path that does so.

        ``outcome`` is the shard's prediction, a cached outcome (cache or
        stale-tier hit), or the error that ended the batch.  ``shard`` is
        the shard that finished the batch, ``None`` when the service ends
        it itself.  ``admitted`` batches hold pending-budget slots and
        dedup entries; requests answered or refused at submit hold
        neither.  A fault while answering fails the batch with that fault
        rather than stranding it.
        """
        if admitted:
            # Retire the dedup entries first (identity-checked: a racing
            # twin may own the key): once an entry is gone no new follower
            # can attach, so each request's follower list is final by the
            # time it is settled below.
            with self._inflight_lock:
                for request in batch.requests:
                    key = (request.model, request.cache_key)
                    if self._inflight.get(key) is request:
                        del self._inflight[key]
            with self._pending_lock:
                self._pending -= len(batch)
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
                responses = resolve_requests(
                    batch.requests,
                    outcome,
                    clock=self._clock,
                    stale=stale,
                    record=self._count_responses,
                )
            except Exception as error:
                outcome = error
        if isinstance(outcome, BaseException):
            reason = _shed_reason(outcome, admitted)
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
            resolve_requests(batch.requests, outcome, clock=self._clock, shed=reason)
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
            for request, response in zip(batch.requests, responses):
                if request.generation != current:
                    continue
                try:
                    self.cache.put(
                        request.model,
                        request.cache_key,
                        CachedOutcome(
                            label=response.label,
                            neuron=response.neuron,
                            distance=response.distance,
                            rejected=response.rejected,
                            confidence=response.confidence,
                        ),
                    )
                except Exception:
                    # A cache write fault loses a memoisation, nothing
                    # else: the response was already delivered above.
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
        for response in responses:
            self._latency.observe(response.latency_s)

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
            for batch in self.scheduler.due():
                self._dispatch(batch)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    @property
    def pending_requests(self) -> int:
        """Admitted requests not yet resolved (cache hits excluded)."""
        with self._pending_lock:
            return self._pending

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Current counters, read from ``obs.registry``, plus a live
        per-shard queue-depth sample."""
        return MetricsSnapshot.read(self.obs.registry, self.registry.queue_depths())


def _alone(request: ClassificationRequest) -> MicroBatch:
    """A one-request batch, for a request settled at submit."""
    return MicroBatch(request.model, (request,), capacity=1, flushed_by="submit")


def _shed_reason(error: BaseException, admitted: bool) -> Optional[str]:
    """The ``shed`` reason ``error`` stands for; ``None`` for a failure.

    A plain :class:`ServiceOverloadedError` refuses a request at the
    pending budget before admission, or an admitted batch at full shard
    queues.
    """
    if isinstance(error, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(error, CircuitOpenError):
        return "circuit_open"
    if isinstance(error, ServiceOverloadedError):
        return "shard_queues" if admitted else "pending_budget"
    return None
