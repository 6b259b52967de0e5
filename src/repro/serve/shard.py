"""Worker shards: thread-backed batch executors behind each model.

A :class:`ShardGroup` fronts the N worker shards of one model, whose
threads all pull cut micro-batches from the model's one
:class:`ReadyQueue` and classify each in one
:meth:`SomClassifier.predict_batch_packed` call.  The queue is unbounded:
the service's pending budget bounds it, so an admitted request is never
shed for queue space, and a wedged worker holds only its one batch.  A
bound breaker gate (:class:`~repro.serve.resilience.BreakerBoard` via the
registry) is consulted before a batch is queued; the group raises
:class:`~repro.errors.CircuitOpenError` when *every* shard of the model is
gated off or disabled.

Shards never settle request futures themselves: every batch a shard
finishes with -- scored, failed by the kernel, shed past its deadline, or
abandoned by the supervisor -- is handed as ``(shard, batch, outcome)`` to
one completion callback, where ``outcome`` is the
:class:`~repro.core.classifier.BatchPrediction` or the error (``shard`` is
``None`` for a batch failed straight off the ready queue).  The service's
settle step owns the futures, the cache and the metrics; a bare registry
settles through :func:`repro.serve.request.resolve_requests`.  That keeps
the shard loop model-only and lets tests drive a shard without a full
service around it.

Supervision protocol
--------------------
Python threads cannot be killed, so a wedged worker (hung kernel) is
*abandoned*, not stopped: the supervisor takes the in-flight batch, fails
its futures terminally, bumps the shard's **epoch**, and starts a
replacement thread on the same ready queue.  Two rules keep that
race-free:

* the worker **claims** its batch (:meth:`WorkerShard._claim`, under the
  shard lock) before handing it on -- an abandoned worker's claim fails
  because the supervisor already took the batch, so a late kernel result
  is discarded instead of double-delivered, and
* every busy-state mutation is guarded by the epoch captured at thread
  start, so a stale worker can never clobber its replacement's state; on
  its next queue read it hands the batch back and exits.
"""

from __future__ import annotations

import collections
import logging
import threading
import time
from typing import Callable, Optional, Union

from repro.core.classifier import BatchPrediction, SomClassifier
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ShardFailedError,
)
from repro.serve.batching import KernelStamp, MicroBatch
from repro.serve.resilience import (
    KERNEL_HANG,
    KERNEL_RAISE,
    SHARD_DEATH,
    FaultInjector,
)

import numpy as np

logger = logging.getLogger(__name__)

#: Signature of the completion callback every finished batch is handed to,
#: with its prediction or the error that ended it; the shard is ``None``
#: for a batch failed straight off the ready queue.
CompletionCallback = Callable[
    [Optional["WorkerShard"], MicroBatch, Union[BatchPrediction, BaseException]], None
]

#: Signature of the breaker gate a group consults per (model, shard).
BreakerGate = Callable[[str, str], bool]


class ReadyQueue:
    """The FIFO of cut batches that the worker shards of one model pull.

    It counts the enabled shards that serve it and refuses a batch once
    none is left.  :meth:`close` lets the workers drain what is queued and
    return; no stop sentinel is queued, so none outlives a stop.
    """

    def __init__(self) -> None:
        self._batches: collections.deque[MicroBatch] = collections.deque()
        self._changed = threading.Condition()
        self._closed = False
        self._servers = 0

    def __len__(self) -> int:
        return len(self._batches)

    def add_server(self) -> None:
        """Count one more enabled shard pulling this queue."""
        with self._changed:
            self._servers += 1

    def retire_server(self) -> list[MicroBatch]:
        """Count one enabled shard fewer; returns (and removes) every
        queued batch when that was the last one."""
        with self._changed:
            self._servers -= 1
            return [] if self._servers else self.take_all()  # reentrant lock

    def put(self, batch: MicroBatch) -> bool:
        """Queue ``batch``; ``False`` (and not queued) when no enabled
        shard serves the queue."""
        with self._changed:
            if not self._servers:
                return False
            self._batches.append(batch)
            self._changed.notify()
            return True

    def get(self) -> Optional[MicroBatch]:
        """The oldest batch, waiting for one; ``None`` once the queue is
        closed and empty."""
        with self._changed:
            while not self._batches:
                if self._closed:
                    return None
                self._changed.wait()
            return self._batches.popleft()

    def take_all(self) -> list[MicroBatch]:
        """Remove and return every queued batch."""
        with self._changed:
            batches = list(self._batches)
            self._batches.clear()
            return batches

    def open(self) -> None:
        with self._changed:
            self._closed = False

    def close(self) -> None:
        """Wake every waiting worker; each returns once the queue is empty."""
        with self._changed:
            self._closed = True
            self._changed.notify_all()


class WorkerShard:
    """One worker thread of a model, pulling cut batches from its ready queue.

    Parameters
    ----------
    name:
        Unique shard name (``"<model>/<index>"`` in a group); keys the
        shard's circuit breaker and its kernel spans.
    classifier:
        The fitted classifier this shard scores batches with.
    completion:
        Called with ``(shard, batch, outcome)`` for every batch the shard
        finishes with; ``outcome`` is the prediction, or the error that
        ended the batch (kernel failure, deadline shed, abandonment).
    ready:
        The :class:`ReadyQueue` the worker pulls batches from, shared by
        every shard of a model; the shard serves it until disabled.
    clock:
        Monotonic time source for the kernel stamp and the busy heartbeat
        the supervisor reads, shared with the service; injectable for
        tests.
    fault_injector:
        Optional :class:`~repro.serve.resilience.FaultInjector`; arms the
        ``kernel_raise`` / ``kernel_hang`` / ``shard_death`` sites.
    """

    def __init__(
        self,
        name: str,
        classifier: SomClassifier,
        completion: CompletionCallback,
        ready: ReadyQueue,
        *,
        clock: Callable[[], float] = time.monotonic,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.name = name
        self.classifier = classifier
        self._completion = completion
        self._clock = clock
        self._injector = fault_injector
        self._ready = ready
        ready.add_server()
        self._thread: Optional[threading.Thread] = None
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
        """Start the worker; a no-op while it runs, or once disabled."""
        if self.thread_alive:
            return
        with self._lock:
            if self._disabled:
                return
            self._stopped = False
            epoch = self._epoch
        self._ready.open()
        self._thread = threading.Thread(
            target=self._run, args=(epoch,), name=f"shard-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> bool:
        """Close the ready queue, let the worker drain it, and join it.

        Returns ``True`` when the worker exited within ``timeout``.  A
        worker that is still alive after the join -- wedged in a kernel, or
        starved by a saturated machine -- is *reported*, not silently
        forgotten: the shard is flagged ``leaked``, a warning is logged,
        and ``False`` is returned so the registry can count the leak.  The
        daemon thread cannot block interpreter exit either way.  A worker
        that had died instead leaves its claimed batch unserved; no
        supervisor watches a stopped shard, so it is failed here with
        :class:`~repro.errors.ShardFailedError`.
        """
        self._ready.close()
        if self._thread is None:
            return True
        with self._lock:
            # From here on restart() refuses, so this is the last worker.
            self._stopped = True
            thread = self._thread
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
        self.abandon_current(ShardFailedError(self.name, "died"))
        return True

    def restart(self, announce: Optional[Callable[[], None]] = None) -> bool:
        """Replace the worker thread (supervisor recovery path).

        Bumps the epoch so the previous worker -- dead, or wedged and
        abandoned -- can never claim a batch or clobber busy-state again,
        then starts a fresh thread on the *same* ready queue.

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
            self._epoch += 1
        if batch is None:
            return 0
        self._deliver(batch, error)
        return len(batch)

    def disable(self, error: BaseException) -> None:
        """Take the shard out of service (restart budget exhausted).

        The in-flight batch is failed with ``error``, and the shard never
        pulls again: the epoch bump leaves its worker stale, and a stale
        worker hands back whatever it reads.  The model's other shards
        carry the ready queue on; when no enabled shard of the model is
        left, every queued batch is failed with ``error`` too, and the
        queue refuses further batches
        (:class:`~repro.errors.CircuitOpenError` at the group).
        """
        with self._lock:
            if self._disabled:
                return
            self._disabled = True
        self.abandon_current(error)
        for batch in self._ready.retire_server():
            self._deliver(batch, error)

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
    def idle(self) -> bool:
        """Does the worker hold no batch?"""
        with self._lock:
            return self._current_batch is None

    @property
    def supervisable(self) -> bool:
        """Should the watchdog act on this shard?  Started, not stopping,
        not disabled."""
        return self._thread is not None and not self._stopped and not self._disabled

    @property
    def disabled(self) -> bool:
        return self._disabled

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    def _run(self, epoch: int) -> None:
        while True:
            batch = self._ready.get()
            if batch is None:
                return  # the queue was closed and is drained
            with self._lock:
                stale = epoch != self._epoch
                if not stale:
                    self._busy_since = self._clock()
                    self._current_batch = batch
            if stale:
                # Abandoned or disabled while waiting on the queue: hand
                # the batch back to a live worker, or fail it when the
                # model has no enabled shard left to take it.
                if not self._ready.put(batch):
                    self._deliver(batch, ShardFailedError(self.name, "disabled"))
                return
            if self._injector is not None and self._injector.fires(SHARD_DEATH):
                # Simulated worker death: exit with the batch still
                # claimed as in-flight, exactly like an uncaught error
                # killing the thread.  The supervisor must notice the dead
                # thread, fail the batch and start a replacement.
                return
            if not self._process(batch, epoch):
                return  # abandoned mid-batch; a replacement serves the queue

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
        """Score one micro-batch on the bSOM's cached bit-planes.

        Every request carries its submit-time ``uint64`` words, packed (and
        validated) once per admitted block, so the stacked words go
        straight to ``predict_batch_packed`` -- no re-packing, no
        re-validation.

        ``self.classifier`` is read exactly once per batch: a hot-swap
        (:meth:`ShardGroup.swap_classifier`) rebinding it mid-queue takes
        effect at the next micro-batch boundary, never mid-kernel.

        Every scored batch gets a :class:`~repro.serve.batching.KernelStamp`
        (two clock reads): this shard's name, the kernel's start and end,
        and the serving map's weights version -- what makes a trace that
        spans a hot-swap attributable to the map that actually scored it.
        Settle builds the sampled requests' ``batch`` and ``kernel`` spans
        from it.
        """
        if self._injector is not None:
            # kernel_hang sleeps (spec.hang_s) -- the wedged-worker fault
            # the supervisor's hang_timeout must catch; kernel_raise throws.
            self._injector.raise_if(KERNEL_HANG, shard=self.name, model=batch.model)
            self._injector.raise_if(KERNEL_RAISE, shard=self.name, model=batch.model)
        classifier = self.classifier
        start = self._clock()
        prediction = classifier.predict_batch_packed(
            np.vstack([request.packed for request in batch.requests])
        )
        batch.kernel = KernelStamp(self.name, start, self._clock(),
                                   getattr(classifier.som, "weights_version", None))
        return prediction


class ShardGroup:
    """The worker shards behind one registered model, and their ready queue.

    Parameters
    ----------
    model:
        Model name (shards are named ``"<model>/<index>"``).
    classifier:
        Fitted classifier shared by all shards.  ``predict_batch_packed``
        is read-only over the weights, so the shards can share the object.
    completion:
        Forwarded to every shard.
    n_shards:
        Number of worker threads.
    clock:
        Monotonic time source forwarded to every shard (kernel stamps).
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
        clock: Callable[[], float] = time.monotonic,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}")
        self.model = model
        self.classifier = classifier
        #: Optional (model, shard) -> bool gate consulted before a batch is
        #: queued; bound by the registry when the service runs with
        #: circuit breakers (:meth:`repro.serve.resilience.BreakerBoard.allow`).
        self.breaker_gate: Optional[BreakerGate] = None
        self._completion = completion
        self.ready = ReadyQueue()
        self._started = False
        self.shards = [
            WorkerShard(
                f"{model}/{index}",
                classifier,
                completion,
                self.ready,
                clock=clock,
                fault_injector=fault_injector,
            )
            for index in range(n_shards)
        ]

    def start(self) -> None:
        self._started = True
        for shard in self.shards:
            shard.start()

    def stop(self, timeout: float = 5.0) -> list[str]:
        """Stop every shard; returns the names of leaked (wedged) workers.

        Everything queued drains through live workers first.  What no
        worker is left to take -- every worker of a started group dead --
        is failed with :class:`~repro.errors.ShardFailedError`, since no
        supervisor watches a stopped group.
        """
        leaked = [shard for shard in self.shards if not shard.stop(timeout)]
        if self._started and all(shard.disabled for shard in leaked):
            self.cancel_queued(ShardFailedError(self.model, "died"))
        self._started = False
        return [shard.name for shard in leaked]

    # ------------------------------------------------------------------ #
    # Hot-swap, eviction and hand-off
    # ------------------------------------------------------------------ #
    def swap_classifier(self, classifier: SomClassifier) -> SomClassifier:
        """Rebind every shard to ``classifier``; return the previous one.

        Rebinding is a single attribute store per shard, and each worker
        reads its classifier once per batch, so the switch lands exactly at
        a micro-batch boundary: the in-flight batches finish on the old
        map, everything still queued is scored by the new one, and no
        request is dropped or failed.
        """
        previous = self.classifier
        self.classifier = classifier
        for shard in self.shards:
            shard.classifier = classifier
        return previous

    def cancel_queued(self, error: BaseException) -> int:
        """Fail every batch waiting in the ready queue with ``error``.

        Batches a worker already pulled complete normally.  Returns the
        number of requests failed.
        """
        batches = self.ready.take_all()
        for batch in batches:
            try:
                self._completion(None, batch, error)
            except Exception:
                logger.exception("completion callback of model %r raised", self.model)
        return sum(len(batch) for batch in batches)

    def submit(self, batch: MicroBatch) -> None:
        """Queue a cut batch for whichever shard of the model pulls it first.

        Raises :class:`~repro.errors.CircuitOpenError` when no shard could
        serve it: every shard is disabled, or the breaker gate refuses
        every enabled one.  The gate is asked shard by shard until one
        allows, so a batch consumes at most one half-open probe.  There is
        no refusal for queue space: the service's pending budget bounds
        the queue.
        """
        gate = self.breaker_gate
        allowed = any(
            gate is None or gate(self.model, shard.name)
            for shard in self.shards
            if not shard.disabled
        )
        if not (allowed and self.ready.put(batch)):
            total = len(self.shards)
            raise CircuitOpenError(self.model, open_shards=total, total_shards=total)

    @property
    def idle(self) -> bool:
        """No batch waiting in the ready queue or in flight on a shard."""
        return not len(self.ready) and all(shard.idle for shard in self.shards)
