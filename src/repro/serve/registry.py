"""The sharded model registry: named classifier snapshots behind shards.

The paper's deployment flow trains the map off-line and ships the frozen
weights to the FPGA; :class:`~repro.core.snapshot.ModelSnapshot` (and its
``.npz`` form, :mod:`repro.core.serialization`) reproduces that unit.  The
registry is the serving-side half of the story: it accepts named snapshots
(or already-fitted classifiers), stands up a
:class:`~repro.serve.shard.ShardGroup` of worker threads for each, and
routes micro-batches to them.  Several cameras can thus be served by
different map generations side by side -- e.g. ``"hall-v1"`` still serving
while ``"hall-v2"`` warms up.

Two lifecycle operations keep futures honest:

* :meth:`ModelRegistry.swap` hot-reloads a name in place -- the software
  "reflash": shards flip to the new (operand-pre-warmed) classifier at a
  micro-batch boundary, so a swap under load drops and fails nothing, and
* :meth:`ModelRegistry.evict` tears a name down, failing any still-queued
  batches with :class:`~repro.errors.ModelEvictedError` instead of leaving
  their futures to hang.

The registry works standalone (every finished batch is settled by
:func:`~repro.serve.request.resolve_requests` on the registry's clock) or
bound to a :class:`~repro.serve.service.StreamingInferenceService`, whose
settle step replaces that completion callback to add caching, telemetry
and the pending-budget accounting.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Mapping, Optional, Union

from repro.core.classifier import SomClassifier
from repro.core.serialization import PathLike, load_model
from repro.core.snapshot import ModelSnapshot
from repro.errors import (
    ConfigurationError,
    DataError,
    ModelEvictedError,
    UnknownModelError,
)
from repro.obs.events import EventLog
from repro.serve.batching import MicroBatch
from repro.serve.request import Outcome, resolve_requests
from repro.serve.resilience import SWAP_FAILURE, FaultInjector
from repro.serve.shard import BreakerGate, CompletionCallback, ShardGroup, WorkerShard

#: What the registration/swap entry points accept as a model.
ModelSource = Union[SomClassifier, ModelSnapshot]


class TrafficRoute:
    """One logical name's weighted split across registered versions.

    Draws come from a ``random.Random`` seeded with ``f"{seed}:{name}"``,
    so the Kth resolution of a route is a pure function of
    ``(seed, name, K)`` -- a canary test that replays the same submission
    sequence sees the same version assignment, independent of thread
    interleaving across *other* routes and of ``PYTHONHASHSEED``.
    """

    __slots__ = ("name", "targets", "weights", "seed", "_cumulative", "_rng")

    def __init__(self, name: str, weights: Mapping[str, float], seed: int):
        total = float(sum(weights.values()))
        if total <= 0:
            raise ConfigurationError(
                f"route for {name!r} needs a positive total weight, got {total}"
            )
        self.name = name
        self.targets = tuple(weights)
        self.weights = tuple(float(w) / total for w in weights.values())
        self.seed = int(seed)
        cumulative: list[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w
            cumulative.append(acc)
        cumulative[-1] = 1.0  # guard against float drift on the last bucket
        self._cumulative = tuple(cumulative)
        self._rng = random.Random(f"{seed}:{name}")

    def draw(self) -> str:
        """Pick one target version (caller holds the registry lock)."""
        r = self._rng.random()
        for target, edge in zip(self.targets, self._cumulative):
            if r < edge:
                return target
        return self.targets[-1]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.targets, self.weights))


class ModelRegistry:
    """Named, sharded classifier snapshots with batch routing.

    Parameters
    ----------
    n_shards:
        Worker shards (threads) per registered model.
    policy:
        Shard routing policy: ``"round_robin"`` or ``"least_loaded"``.
    queue_capacity:
        Per-shard bounded queue size (the backpressure knob).
    clock:
        Monotonic time source forwarded to the shards for trace
        timestamps, and the latency clock of a standalone registry's
        responses; a binding service passes its own clock.
    fault_injector:
        Optional :class:`~repro.serve.resilience.FaultInjector`; forwarded
        to every shard (kernel/death sites) and consulted by :meth:`swap`
        (the ``swap_failure`` site).
    """

    def __init__(
        self,
        *,
        n_shards: int = 2,
        policy: str = "round_robin",
        queue_capacity: int = 8,
        clock: Callable[[], float] = time.monotonic,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = int(n_shards)
        self.policy = policy
        self.queue_capacity = int(queue_capacity)
        self._clock = clock
        self._injector = fault_injector
        self._breaker_gate: Optional[BreakerGate] = None
        self._events: Optional[EventLog] = None
        self._lock = threading.Lock()
        self._groups: dict[str, ShardGroup] = {}
        self._classifiers: dict[str, SomClassifier] = {}
        self._routes: dict[str, TrafficRoute] = {}
        self._started = False
        self._completion: CompletionCallback = self._default_completion
        self._retired: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------ #
    # Completion binding
    # ------------------------------------------------------------------ #
    def _default_completion(
        self, shard: WorkerShard, batch: MicroBatch, outcome: Outcome
    ) -> None:
        resolve_requests(batch.requests, outcome, clock=self._clock)

    def bind_completion(
        self,
        completion: CompletionCallback,
        retired: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Replace the completion and retired paths (the service's settle
        step adds cache, metrics and pending-budget accounting).

        ``completion(shard, batch, outcome)`` receives every batch a shard
        finishes with, ``outcome`` being its prediction or its error.

        ``retired(name)`` fires after :meth:`swap` or :meth:`evict` has
        displaced a model's classifier, so a bound service can invalidate
        its memoised outcomes even when the lifecycle call went straight to
        the registry rather than through the service's own entry points.
        """
        self._completion = completion
        self._retired = retired

    def bind_breakers(self, gate: BreakerGate) -> None:
        """Install a circuit-breaker routing gate on every shard group.

        ``gate(model, shard_name)`` is consulted by each group's router
        before offering a batch to a shard (typically
        :meth:`repro.serve.resilience.BreakerBoard.allow`).  Applied to
        already-registered groups and to every future registration.
        """
        with self._lock:
            self._breaker_gate = gate
            groups = list(self._groups.values())
        for group in groups:
            group.breaker_gate = gate

    def bind_events(self, events: EventLog) -> None:
        """Attach a structured event log for lifecycle transitions.

        Once bound, :meth:`register`, :meth:`swap` and :meth:`evict` emit
        ``model_registered`` / ``model_swap`` / ``evict`` events with
        monotonic sequence numbers -- including lifecycle calls issued on
        the registry directly rather than through a bound service.
        """
        self._events = events

    def _emit(self, kind: str, **fields) -> None:
        if self._events is not None:
            self._events.emit(kind, **fields)

    def _dispatch_retired(self, name: str) -> None:
        if self._retired is not None:
            self._retired(name)

    def _dispatch_completion(
        self, shard: WorkerShard, batch: MicroBatch, outcome: Outcome
    ) -> None:
        # Late-bound indirection so shards created before bind_completion()
        # still route through the service once it attaches.
        self._completion(shard, batch, outcome)

    # ------------------------------------------------------------------ #
    # Registration and loading
    # ------------------------------------------------------------------ #
    @staticmethod
    def _materialise(name: str, model: ModelSource) -> SomClassifier:
        """Coerce a snapshot (or classifier) into a serveable classifier."""
        if isinstance(model, ModelSnapshot):
            model = model.to_classifier()
        if not isinstance(model, SomClassifier):
            raise DataError(
                f"model {name!r} must be a SomClassifier or ModelSnapshot, got "
                f"{type(model).__name__}"
            )
        if model.labelling is None:
            raise DataError(
                f"model {name!r} must be fitted (or labelled) before it can serve"
            )
        return model

    def _prepare_for_serving(self, classifier: SomClassifier) -> SomClassifier:
        """Pre-warm the operands of the model's own distance backend.

        Shared by :meth:`register` and :meth:`swap` so neither path pays
        the operand-preparation cost inside a worker's critical path: the
        first micro-batch of a fresh registration and the first post-swap
        batch both score against already-prepared kernels.
        """
        if hasattr(classifier.som, "warm_operands"):
            classifier.som.warm_operands()
        return classifier

    def register(self, name: str, model: ModelSource) -> ShardGroup:
        """Register a model under ``name`` and build its shards.

        Accepts a fitted :class:`SomClassifier` or a fitted
        :class:`~repro.core.snapshot.ModelSnapshot` (the lifecycle
        currency; materialised into a fresh classifier here).
        """
        if not name:
            raise ConfigurationError("model name must be a non-empty string")
        classifier = self._prepare_for_serving(self._materialise(name, model))
        with self._lock:
            if name in self._groups:
                raise ConfigurationError(f"a model named {name!r} is already registered")
            group = ShardGroup(
                name,
                classifier,
                self._dispatch_completion,
                n_shards=self.n_shards,
                policy=self.policy,
                queue_capacity=self.queue_capacity,
                clock=self._clock,
                fault_injector=self._injector,
            )
            group.breaker_gate = self._breaker_gate
            self._groups[name] = group
            self._classifiers[name] = classifier
            if self._started:
                group.start()
        self._emit(
            "model_registered",
            model=name,
            n_shards=self.n_shards,
            weights_version=getattr(classifier.som, "weights_version", None),
        )
        return group

    def load(self, name: str, path: PathLike) -> SomClassifier:
        """Load a classifier snapshot saved by ``save_model`` and register it."""
        model = load_model(path)
        if not isinstance(model, SomClassifier):
            raise DataError(
                f"snapshot {path} holds a bare {type(model).__name__}, not a "
                "SomClassifier; save the fitted classifier, not just the map"
            )
        self.register(name, model)
        return model

    def swap(self, name: str, model: ModelSource) -> SomClassifier:
        """Hot-reload ``name`` with a new model; return the previous classifier.

        The software equivalent of reflashing the FPGA without power-cycling
        the camera: the shard group stays up, its queues are untouched, and
        every shard flips to the new classifier at a micro-batch boundary --
        a swap issued while requests are queued completes with zero dropped
        or failed futures.  The new model's distance operands are prepared
        *before* the flip, so the first post-swap batch pays no warm-up.

        Accepts a fitted classifier or :class:`ModelSnapshot`.  The new
        model must consume the same signature width as the old one
        (queued requests were packed for that width); the neuron count may
        change freely.

        A failure anywhere before the flip -- validation, operand
        preparation, or the injected ``swap_failure`` site -- leaves the
        old classifier serving untouched: the swap is atomic from the
        queues' point of view.
        """
        classifier = self._materialise(name, model)
        current = self.classifier(name)  # raises UnknownModelError
        if classifier.som.n_bits != current.som.n_bits:
            raise ConfigurationError(
                f"cannot swap model {name!r}: queued requests carry "
                f"{current.som.n_bits}-bit signatures but the new model expects "
                f"{classifier.som.n_bits} bits"
            )
        if self._injector is not None:
            self._injector.raise_if(SWAP_FAILURE, model=name)
        self._prepare_for_serving(classifier)
        with self._lock:
            group = self._groups.get(name)
            if group is None:
                raise UnknownModelError(name, tuple(self._groups))
            previous = self._classifiers[name]
            self._classifiers[name] = classifier
            group.swap_classifier(classifier)
        self._emit(
            "model_swap",
            model=name,
            weights_version=getattr(classifier.som, "weights_version", None),
            previous_weights_version=getattr(previous.som, "weights_version", None),
        )
        self._dispatch_retired(name)
        return previous

    def evict(self, name: str) -> SomClassifier:
        """Unregister ``name``, stop its shards, and return its classifier.

        Batches still queued behind the evicted model are failed promptly
        with :class:`~repro.errors.ModelEvictedError` (an
        :class:`~repro.errors.UnknownModelError`), so every submitted
        future completes -- either with the classification the worker had
        already pulled, or with the eviction error.  Nothing is left to
        hang until a caller's timeout.
        """
        with self._lock:
            group = self._groups.pop(name, None)
            if group is None:
                raise UnknownModelError(name, tuple(self._groups))
            classifier = self._classifiers.pop(name)
            remaining = tuple(self._groups)
            # Routes pointing at (or keyed by) the evicted name would
            # resolve requests into a void; drop them with the model.
            dropped_routes = [
                key
                for key, route in self._routes.items()
                if key == name or name in route.targets
            ]
            for key in dropped_routes:
                del self._routes[key]
        error = ModelEvictedError(name, remaining)
        # First pass: fail what is queued right now (covers never-started
        # shards, whose queues would otherwise strand their futures).
        cancelled = group.cancel_queued(error)
        group.stop()
        # Second pass: anything that raced in between the cancel and the
        # worker shutdown (the name is already unrouteable, but a caller
        # holding a direct group reference could still have submitted).
        cancelled += group.cancel_queued(error)
        self._emit("evict", model=name, cancelled_requests=cancelled)
        for key in dropped_routes:
            self._emit("route_cleared", model=key)
        self._dispatch_retired(name)
        return classifier

    # ------------------------------------------------------------------ #
    # Versioned traffic routing
    # ------------------------------------------------------------------ #
    def set_route(
        self, name: str, weights: Mapping[str, float], *, seed: int = 0
    ) -> None:
        """Split traffic submitted under ``name`` across registered versions.

        ``weights`` maps registered model names (e.g. ``"hall"`` and
        ``"hall@v3"``) to positive weights; they are normalised to a
        distribution, and every subsequent :meth:`resolve` of ``name``
        draws one version from it.  Draws come from a stream seeded with
        ``f"{seed}:{name}"``, so the assignment sequence is reproducible.
        Setting a route replaces any previous route for the name
        atomically; in-flight requests keep the version they were already
        resolved to.
        """
        if not weights:
            raise ConfigurationError(f"route for {name!r} needs at least one target")
        route = TrafficRoute(name, weights, seed)
        with self._lock:
            missing = [t for t in route.targets if t not in self._groups]
            if missing:
                raise UnknownModelError(missing[0], tuple(self._groups))
            self._routes[name] = route
        self._emit("route_set", model=name, targets=route.as_dict(), seed=route.seed)

    def clear_route(self, name: str) -> bool:
        """Remove ``name``'s traffic split (back to direct lookup)."""
        with self._lock:
            removed = self._routes.pop(name, None) is not None
        if removed:
            self._emit("route_cleared", model=name)
        return removed

    def route(self, name: str) -> Optional[dict[str, float]]:
        """The normalised weights of ``name``'s split, or ``None``."""
        with self._lock:
            route = self._routes.get(name)
            return route.as_dict() if route is not None else None

    def resolve(self, name: str) -> str:
        """Map a logical model name to the concrete version serving it now.

        Unrouted names resolve to themselves, so the call is a cheap
        pass-through for the common no-canary case.  The returned name is
        what batches, cache keys and responses carry -- a request, once
        resolved, sticks to its version for its whole lifetime.
        """
        with self._lock:
            route = self._routes.get(name)
            if route is None:
                return name
            return route.draw()

    # ------------------------------------------------------------------ #
    # Lookup and routing
    # ------------------------------------------------------------------ #
    def group(self, name: str) -> ShardGroup:
        with self._lock:
            group = self._groups.get(name)
            if group is None:
                raise UnknownModelError(name, tuple(self._groups))
            return group

    def classifier(self, name: str) -> SomClassifier:
        with self._lock:
            classifier = self._classifiers.get(name)
            if classifier is None:
                raise UnknownModelError(name, tuple(self._classifiers))
            return classifier

    def submit(self, batch: MicroBatch) -> WorkerShard:
        """Route a micro-batch to a shard of its model."""
        return self.group(batch.model).submit(batch)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._groups)

    def iter_shards(self) -> list[tuple[str, WorkerShard]]:
        """Snapshot of ``(model, shard)`` pairs across every registered
        model (the supervisor's scan surface)."""
        with self._lock:
            groups = list(self._groups.items())
        return [(model, shard) for model, group in groups for shard in group.shards]

    def shard_names(self, model: str) -> tuple[str, ...]:
        """Shard names of one model (the breaker board's key space)."""
        return tuple(shard.name for shard in self.group(model).shards)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._groups

    def __len__(self) -> int:
        with self._lock:
            return len(self._groups)

    # ------------------------------------------------------------------ #
    # Lifecycle and telemetry
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            self._started = True
            groups = list(self._groups.values())
        for group in groups:
            group.start()

    def stop(self, timeout: float = 5.0) -> list[str]:
        """Stop every shard of every model; returns leaked worker names.

        A leaked worker -- one that failed to join within ``timeout``
        (wedged kernel, starved host) -- is reported per shard by
        :meth:`WorkerShard.stop`; the registry aggregates the names and
        emits one ``shard_leak`` event each, so a shutdown that strands a
        thread is visible in telemetry instead of silent.
        """
        with self._lock:
            self._started = False
            groups = list(self._groups.values())
        leaked: list[str] = []
        for group in groups:
            leaked.extend(group.stop(timeout))
        for name in leaked:
            self._emit("shard_leak", shard=name)
        return leaked

    def queue_depths(self) -> dict[str, int]:
        """Queued batches per shard across every registered model."""
        with self._lock:
            groups = list(self._groups.values())
        depths: dict[str, int] = {}
        for group in groups:
            depths.update(group.queue_depths())
        return depths
