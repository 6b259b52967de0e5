"""Worker shards: thread-backed batch executors behind each model.

A shard owns a bounded queue of micro-batches and a worker thread that
classifies each batch in one :meth:`SomClassifier.predict_batch` call.  A
:class:`ShardGroup` fronts the N shards of one model and picks a shard per
batch using one of two routing policies:

* ``round_robin`` -- rotate through the shards, skipping full queues, and
* ``least_loaded`` -- send the batch to the shard with the smallest load
  (queued batches plus the one in flight).

When every shard's queue is full the group raises
:class:`~repro.errors.ServiceOverloadedError` -- the backpressure signal the
service surfaces to callers instead of buffering without bound.  When a
breaker gate is bound (:class:`~repro.serve.resilience.BreakerBoard` via
the registry) the router additionally skips shards whose circuit breaker
is open, and raises :class:`~repro.errors.CircuitOpenError` when *every*
shard of the model is gated off.

Shards never settle request futures themselves: every batch a shard
finishes with -- scored, failed by the kernel, shed past its deadline,
cancelled by an eviction, or abandoned by the supervisor -- is handed as
``(shard, batch, outcome)`` to one completion callback, where ``outcome``
is the :class:`~repro.core.classifier.BatchPrediction` or the error.  The
service's settle step owns the futures, the cache and the metrics; a bare
registry settles through :func:`repro.serve.request.resolve_requests`.
That keeps the shard loop model-only and lets tests drive a shard without
a full service around it.

Supervision protocol
--------------------
Python threads cannot be killed, so a wedged worker (hung kernel) is
*abandoned*, not stopped: the supervisor takes the in-flight batch, fails
its futures terminally, bumps the shard's **epoch**, and starts a
replacement thread on the same queue.  Two rules keep that race-free:

* the worker **claims** its batch (:meth:`WorkerShard._claim`, under the
  shard lock) before handing it on -- an abandoned worker's claim fails
  because the supervisor already took the batch, so a late kernel result
  is discarded instead of double-delivered, and
* every busy-state mutation is guarded by the epoch captured at thread
  start, so a stale worker can never clobber its replacement's state; on
  its next queue read it hands the item back and exits.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from typing import Callable, Optional, Union

from repro.core.classifier import BatchPrediction, SomClassifier
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.serve.batching import MicroBatch
from repro.serve.resilience import (
    KERNEL_HANG,
    KERNEL_RAISE,
    SHARD_DEATH,
    FaultInjector,
)

import numpy as np

logger = logging.getLogger(__name__)

#: Signature of the completion callback every finished batch is handed to,
#: with its prediction or the error that ended it.
CompletionCallback = Callable[
    ["WorkerShard", MicroBatch, Union[BatchPrediction, BaseException]], None
]

#: Signature of the breaker gate the router consults per (model, shard).
BreakerGate = Callable[[str, str], bool]

_ROUTING_POLICIES = ("round_robin", "least_loaded")


class WorkerShard:
    """One worker thread + bounded batch queue for one model replica.

    Parameters
    ----------
    name:
        Unique shard name (``"<model>/<index>"`` in a group); keys the
        per-shard queue-depth telemetry.
    classifier:
        The fitted classifier replica this shard scores batches with.
    completion:
        Called with ``(shard, batch, outcome)`` for every batch the shard
        finishes with; ``outcome`` is the prediction, or the error that
        ended the batch (kernel failure, deadline shed, cancellation,
        abandonment).
    queue_capacity:
        Maximum queued batches before :meth:`try_submit` refuses.
    clock:
        Monotonic time source for trace timestamps (kernel spans) and the
        busy heartbeat the supervisor reads, shared with the service's
        tracer; injectable for tests.
    fault_injector:
        Optional :class:`~repro.serve.resilience.FaultInjector`; arms the
        ``kernel_raise`` / ``kernel_hang`` / ``shard_death`` sites.
    """

    def __init__(
        self,
        name: str,
        classifier: SomClassifier,
        completion: CompletionCallback,
        *,
        queue_capacity: int = 8,
        clock: Callable[[], float] = time.monotonic,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if queue_capacity <= 0:
            raise ConfigurationError(
                f"queue_capacity must be positive, got {queue_capacity}"
            )
        self.name = name
        self.classifier = classifier
        self._completion = completion
        self._clock = clock
        self._injector = fault_injector
        self._queue: "queue.Queue[Optional[MicroBatch]]" = queue.Queue(
            maxsize=int(queue_capacity)
        )
        self._thread: Optional[threading.Thread] = None
        self._in_flight = 0
        self._lock = threading.Lock()
        self._epoch = 0
        self._busy_since: Optional[float] = None
        self._current_batch: Optional[MicroBatch] = None
        self._stopped = False
        self._disabled = False
        self.restarts = 0
        self.leaked = False
        self.processed_batches = 0
        self.processed_requests = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        with self._lock:
            self._stopped = False
            epoch = self._epoch
        self._thread = threading.Thread(
            target=self._run, args=(epoch,), name=f"shard-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> bool:
        """Drain the queue, then stop the worker thread.

        Returns ``True`` when the worker exited within ``timeout``.  A
        worker that is still alive after the join -- wedged in a kernel, or
        starved by a saturated machine -- is *reported*, not silently
        forgotten: the shard is flagged ``leaked``, a warning is logged,
        and ``False`` is returned so the registry can count the leak.  The
        daemon thread cannot block interpreter exit either way.  A worker
        that had died instead leaves its claimed batch and the batches
        queued behind the sentinel unserved; no supervisor watches a
        stopped shard, so they are failed here with
        :class:`~repro.errors.ShardFailedError`, and the unread sentinel
        is dropped so a later :meth:`start` gets a worker that serves.
        """
        if self._thread is None:
            return True
        with self._lock:
            # From here on restart() refuses, so this is the last worker.
            self._stopped = True
            thread = self._thread
        self._queue.put(None)  # sentinel; everything queued before it drains
        thread.join(timeout)
        self._thread = None
        if thread.is_alive():
            self.leaked = True
            logger.warning(
                "worker shard %r did not stop within %.1fs; thread %s leaked",
                self.name,
                timeout,
                thread.name,
            )
            return False
        error = ShardFailedError(self.name, "died")
        self.abandon_current(error)
        self.cancel_queued(error)
        return True

    def restart(self, announce: Optional[Callable[[], None]] = None) -> bool:
        """Replace the worker thread (supervisor recovery path).

        Bumps the epoch so the previous worker -- dead, or wedged and
        abandoned -- can never claim a batch or clobber busy-state again,
        then starts a fresh thread on the *same* queue, so batches queued
        behind the failure are re-dispatched automatically.

        Returns ``False`` and does nothing once :meth:`stop` has begun.
        The decision is taken under the shard lock, under which ``stop()``
        marks the shard stopped and takes the thread it joins, so a
        replacement is either joined by that ``stop()`` or never started.
        ``announce`` is called once the restart is decided and before the
        replacement starts, so it precedes every answer the replacement
        gives; it runs under the shard lock and must not take it.
        """
        with self._lock:
            if self._stopped:
                return False
            if announce is not None:
                announce()
            self._epoch += 1
            self._current_batch = None
            self._busy_since = None
            self._in_flight = 0
            self.restarts += 1
            self._thread = threading.Thread(
                target=self._run,
                args=(self._epoch,),
                name=f"shard-{self.name}-r{self.restarts}",
                daemon=True,
            )
            self._thread.start()
        return True

    def abandon_current(self, error: BaseException) -> int:
        """Fail the in-flight batch and invalidate the current worker.

        The supervisor calls this for a dead or wedged worker: the batch is
        handed to the completion callback with ``error``, and the epoch bump
        makes any late delivery attempt by the old worker a no-op.  Returns
        the number of requests failed.
        """
        with self._lock:
            batch = self._current_batch
            self._current_batch = None
            self._busy_since = None
            self._in_flight = 0
            self._epoch += 1
        if batch is None:
            return 0
        self._deliver(batch, error)
        return len(batch)

    def disable(self, error: BaseException) -> None:
        """Take the shard out of service (restart budget exhausted).

        The in-flight batch and everything queued are failed terminally;
        :meth:`try_submit` refuses from now on, so the router stops
        selecting this shard and the group's breaker accounting treats it
        as permanently open.
        """
        self._disabled = True
        self.abandon_current(error)
        self.cancel_queued(error)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------ #
    # Supervisor surface
    # ------------------------------------------------------------------ #
    @property
    def thread_alive(self) -> bool:
        """Is the current worker thread alive?  (Heartbeat: liveness.)"""
        return self._thread is not None and self._thread.is_alive()

    def busy_seconds(self, now: float) -> Optional[float]:
        """How long the worker has been on its current batch (heartbeat:
        progress); ``None`` when idle."""
        with self._lock:
            if self._busy_since is None:
                return None
            return now - self._busy_since

    @property
    def supervisable(self) -> bool:
        """Should the watchdog act on this shard?  Started, not stopping,
        not disabled."""
        return self._thread is not None and not self._stopped and not self._disabled

    @property
    def disabled(self) -> bool:
        return self._disabled

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def try_submit(self, batch: MicroBatch) -> bool:
        """Queue a batch; ``False`` when the queue is full (backpressure)
        or the shard has been disabled by the supervisor."""
        if self._disabled:
            return False
        try:
            self._queue.put_nowait(batch)
            return True
        except queue.Full:
            return False

    def cancel_queued(self, error: BaseException) -> int:
        """Fail every queued (not yet running) batch with ``error``.

        Used by model eviction: queued futures get a prompt, catchable
        error instead of hanging until their timeout.  Batches the worker
        already pulled are unaffected (they complete normally).  Stop
        sentinels found in the queue are preserved while a worker is alive
        to read them, and dropped otherwise, so a worker started later
        does not exit on a sentinel meant for a dead one.  Returns the
        number of requests failed.
        """
        drained: list[Optional[MicroBatch]] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                break
        cancelled = 0
        for batch in drained:
            if batch is None:
                if self.running:
                    self._queue.put(None)
                continue
            self._deliver(batch, error)
            cancelled += len(batch)
        return cancelled

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def load(self) -> int:
        """Queued batches plus the batch currently being classified."""
        with self._lock:
            return self._queue.qsize() + self._in_flight

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    def _run(self, epoch: int) -> None:
        while True:
            batch = self._queue.get()
            with self._lock:
                stale = epoch != self._epoch
                if not stale and batch is not None:
                    self._in_flight = 1
                    self._busy_since = self._clock()
                    self._current_batch = batch
            if stale:
                # Abandoned while blocked on the queue: hand the item
                # (batch or stop sentinel) to the replacement worker.
                self._queue.put(batch)
                return
            if batch is None:
                return
            if self._injector is not None and self._injector.fires(SHARD_DEATH):
                # Simulated worker death: exit with the batch still
                # claimed as in-flight, exactly like an uncaught error
                # killing the thread.  The supervisor must notice the dead
                # thread, fail the batch and start a replacement.
                return
            if not self._process(batch, epoch):
                return  # abandoned mid-batch; a replacement owns the queue

    def _claim(self, batch: MicroBatch, epoch: int) -> bool:
        """Atomically take delivery rights for ``batch``.

        Fails when the supervisor abandoned this worker (epoch bumped
        and/or batch taken) -- the caller must then discard its result and
        exit, because the batch's futures already received a terminal
        :class:`~repro.errors.ShardFailedError`.
        """
        with self._lock:
            if epoch != self._epoch or self._current_batch is not batch:
                return False
            self._current_batch = None
            self._busy_since = None
            self._in_flight = 0
            return True

    def _process(self, batch: MicroBatch, epoch: int) -> bool:
        """Run one batch end to end; ``False`` when this worker was
        abandoned and must exit."""
        live: Optional[MicroBatch] = batch
        if any(r.deadline_at is not None for r in batch.requests):
            # Second (pre-kernel) deadline shed: requests that expired
            # while queued behind earlier batches are failed here instead
            # of paying for a kernel they can no longer use.
            live, expired = batch.partition_expired(self._clock())
            if expired is not None:
                with self._lock:
                    if epoch != self._epoch:
                        return False
                    self._current_batch = live
                self._deliver(expired, DeadlineExceededError(batch.model))
                if live is None:
                    with self._lock:
                        if epoch == self._epoch:
                            self._busy_since = None
                            self._in_flight = 0
                    return True
        try:
            outcome = self._classify(live)
            self.processed_batches += 1
            self.processed_requests += len(live)
        except BaseException as error:  # deliver, never kill the worker
            outcome = error
        if not self._claim(live, epoch):
            return False
        self._deliver(live, outcome)
        return True

    def _deliver(
        self, batch: MicroBatch, outcome: Union[BatchPrediction, BaseException]
    ) -> None:
        """Hand a finished batch to the completion callback.

        A raising callback is logged, never propagated: it must not kill
        the worker and strand every queued batch behind it.
        """
        try:
            self._completion(self, batch, outcome)
        except Exception:
            logger.exception("completion callback of shard %r raised", self.name)

    def _classify(self, batch: MicroBatch) -> BatchPrediction:
        """Score one micro-batch, preferring the zero-copy packed path.

        When every request carries its submit-time ``uint64`` words, the
        stacked words go straight to ``predict_batch_packed`` and the bSOM
        scores them against its cached bit-planes -- no re-packing, no
        re-validation.  Mixed or unpacked batches fall back to stacking the
        raw signatures; those were validated at ``submit`` time too, so the
        zeros-and-ones scan is skipped either way.

        ``self.classifier`` is read exactly once per batch: a hot-swap
        (:meth:`ShardGroup.swap_classifier`) rebinding it mid-queue takes
        effect at the next micro-batch boundary, never mid-kernel.

        Sampled requests get a ``kernel`` span (one clock read pair for the
        whole batch) annotated with the shard, model, batch size and the
        serving map's weights version -- the annotation that makes a trace
        spanning a hot-swap attributable to the map that actually scored
        it.  Their still-open ``batch`` span (shard-queue wait) is closed
        at the same instant the kernel starts.
        """
        if self._injector is not None:
            # kernel_hang sleeps (spec.hang_s) -- the wedged-worker fault
            # the supervisor's hang_timeout must catch; kernel_raise throws.
            self._injector.raise_if(KERNEL_HANG, shard=self.name, model=batch.model)
            self._injector.raise_if(KERNEL_RAISE, shard=self.name, model=batch.model)
        classifier = self.classifier
        traced = [r.trace for r in batch.requests if r.trace is not None]
        kernel_start = self._clock() if traced else 0.0
        rows = [request.packed for request in batch.requests]
        if rows and all(row is not None for row in rows):
            prediction = classifier.predict_batch_packed(np.vstack(rows))
        else:
            signatures = np.vstack([request.signature for request in batch.requests])
            prediction = classifier.predict_batch(signatures, validate=False)
        if traced:
            kernel_end = self._clock()
            som = classifier.som
            weights_version = getattr(som, "weights_version", None)
            backend = getattr(getattr(som, "backend", None), "name", None)
            for trace in traced:
                trace.end("batch", t=kernel_start)
                trace.span(
                    "kernel",
                    start=kernel_start,
                    end=kernel_end,
                    shard=self.name,
                    model=batch.model,
                    batch_size=len(batch),
                    weights_version=weights_version,
                    backend=backend,
                )
        return prediction


class ShardGroup:
    """The routed set of worker shards behind one registered model.

    Parameters
    ----------
    model:
        Model name (shards are named ``"<model>/<index>"``).
    classifier:
        Fitted classifier shared by all shards.  ``predict_batch`` is
        read-only over the weights, so replicas can share the object.
    completion:
        Forwarded to every shard.
    n_shards:
        Number of worker threads.
    policy:
        ``"round_robin"`` or ``"least_loaded"``.
    queue_capacity:
        Per-shard queue bound.
    clock:
        Monotonic time source forwarded to every shard (trace timestamps).
    fault_injector:
        Forwarded to every shard (kernel/death injection sites).
    """

    def __init__(
        self,
        model: str,
        classifier: SomClassifier,
        completion: CompletionCallback,
        *,
        n_shards: int = 2,
        policy: str = "round_robin",
        queue_capacity: int = 8,
        clock: Callable[[], float] = time.monotonic,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}")
        if policy not in _ROUTING_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {_ROUTING_POLICIES}, got {policy!r}"
            )
        self.model = model
        self.policy = policy
        self.classifier = classifier
        #: Optional (model, shard) -> bool gate the router consults before
        #: offering a batch to a shard; bound by the registry when the
        #: service runs with circuit breakers
        #: (:meth:`repro.serve.resilience.BreakerBoard.allow`).
        self.breaker_gate: Optional[BreakerGate] = None
        self.shards = [
            WorkerShard(
                f"{model}/{index}",
                classifier,
                completion,
                queue_capacity=queue_capacity,
                clock=clock,
                fault_injector=fault_injector,
            )
            for index in range(n_shards)
        ]
        self._rr_lock = threading.Lock()
        self._rr_next = 0

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def stop(self, timeout: float = 5.0) -> list[str]:
        """Stop every shard; returns the names of leaked (wedged) workers."""
        return [shard.name for shard in self.shards if not shard.stop(timeout)]

    # ------------------------------------------------------------------ #
    # Hot-swap and eviction support
    # ------------------------------------------------------------------ #
    def swap_classifier(self, classifier: SomClassifier) -> SomClassifier:
        """Rebind every shard to ``classifier``; return the previous one.

        Rebinding is a single attribute store per shard, and each worker
        reads its classifier once per batch, so the switch lands exactly at
        a micro-batch boundary: the in-flight batch finishes on the old
        map, everything still queued is scored by the new one, and no
        request is dropped or failed.
        """
        previous = self.classifier
        self.classifier = classifier
        for shard in self.shards:
            shard.classifier = classifier
        return previous

    def cancel_queued(self, error: BaseException) -> int:
        """Fail every queued batch across all shards (eviction path)."""
        return sum(shard.cancel_queued(error) for shard in self.shards)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _candidate_order(self) -> list[WorkerShard]:
        if self.policy == "least_loaded":
            return sorted(self.shards, key=lambda shard: shard.load)
        with self._rr_lock:
            start = self._rr_next
            self._rr_next = (self._rr_next + 1) % len(self.shards)
        return [
            self.shards[(start + offset) % len(self.shards)]
            for offset in range(len(self.shards))
        ]

    def submit(self, batch: MicroBatch) -> WorkerShard:
        """Route a batch to a shard per the policy.

        Shards whose circuit breaker is open (or that the supervisor
        disabled) are skipped.  When every shard was gated off the group
        raises :class:`~repro.errors.CircuitOpenError`; when at least one
        shard was eligible but all eligible queues were full it raises
        :class:`~repro.errors.ServiceOverloadedError` (backpressure).
        """
        gate = self.breaker_gate
        gated = 0
        for shard in self._candidate_order():
            if shard.disabled:
                gated += 1
                continue
            if gate is not None and not gate(self.model, shard.name):
                gated += 1
                continue
            if shard.try_submit(batch):
                return shard
        if gated == len(self.shards):
            raise CircuitOpenError(
                self.model, open_shards=gated, total_shards=len(self.shards)
            )
        raise ServiceOverloadedError(
            f"all {len(self.shards)} shard queues of model {self.model!r}",
            pending=self.total_queue_depth,
            capacity=sum(shard._queue.maxsize for shard in self.shards),
        )

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    @property
    def total_queue_depth(self) -> int:
        return sum(shard.queue_depth for shard in self.shards)

    def queue_depths(self) -> dict[str, int]:
        return {shard.name: shard.queue_depth for shard in self.shards}
