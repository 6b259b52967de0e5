"""Guarded model rollouts: shadow evaluation, canary routing, rollback.

The paper's system retrains itself from on-line labelling while serving
live traffic, which makes the *model-update path* the biggest unguarded
failure source left after the request path was hardened: a bad retrain or
a regressed candidate swapped straight into production has no safety net.
This module turns every model update into a guarded, observable,
reversible deployment:

* **Shadow evaluation** -- :class:`ShadowEvaluator` mirrors live requests
  to a candidate classifier on a dedicated thread, out of the request
  path: primary responses are never altered or delayed, and the candidate
  accumulates agreement / rejection / latency statistics
  (:class:`ShadowStats`) against what the active version actually served.
* **Canary routing** -- once the candidate looks healthy, it is registered
  as ``name@vN`` beside the active version and
  :meth:`~repro.serve.registry.ModelRegistry.set_route` gives it a seeded,
  deterministic slice of live traffic while shadow accounting continues on
  the remaining primary share.
* **Automatic promotion / demotion** -- a :class:`RolloutPolicy` decides
  after every mirrored batch: promote when agreement clears the threshold
  over a minimum sample count, demote on regression (or on an inconclusive
  candidate that exhausts ``max_samples`` -- fail closed).  Promotion
  rides the registry's zero-drop ``swap``; demotion drains the canary's
  queues before evicting it, so every in-flight future stays terminal.
* **Rollback ring** -- the last ``ring_size`` swapped-out snapshots per
  model are retained; :meth:`RolloutManager.rollback` (manual) or an
  opening circuit breaker (``rollback_on_breaker``) swaps the previous
  version back in one zero-drop transition.

Every transition emits events (``rollout_begin`` / ``rollout_canary`` /
``rollout_promoted`` / ``rollout_demoted`` / ``rollout_rolled_back`` /
``rollout_promote_failed``) and moves the ``serve_rollout_stage{model}``
gauge; shadow traffic is counted under ``serve_shadow_*`` metrics.  The
chaos gate drives the promotion path's ``promote_failure`` injection site
to prove a failed promotion leaves the active version serving untouched.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.serialization import snapshot_model
from repro.core.snapshot import ModelSnapshot
from repro.errors import (
    ConfigurationError,
    DataError,
    InjectedFaultError,
    UnknownModelError,
)
from repro.serve.resilience import PROMOTE_FAILURE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.serve.service import StreamingInferenceService

#: Gauge encoding of rollout stages (``serve_rollout_stage{model}``).
ROLLOUT_STAGE_CODES = {
    "idle": 0,
    "shadow": 1,
    "canary": 2,
    "promoted": 3,
    "demoted": 4,
    "rolled_back": 5,
}


@dataclass(frozen=True)
class RolloutPolicy:
    """When a shadowed candidate is promoted, demoted, or kept waiting.

    Attributes
    ----------
    min_samples:
        Mirrored requests the candidate must score before any decision is
        taken -- no promotion (or demotion) off a handful of frames.
    promote_agreement:
        Minimum fraction of mirrored requests on which the candidate's
        outcome (label *and* rejection status) matches what the active
        version served.
    demote_agreement:
        Agreement below this is a regression: the candidate is demoted as
        soon as ``min_samples`` have been scored.
    max_shadow_latency_ms:
        Optional cap on the candidate's mean per-signature scoring time;
        a candidate that clears agreement but is too slow is held, not
        promoted.
    max_samples:
        Optional verdict deadline: a candidate still inconclusive (between
        the two agreement thresholds) after this many samples is demoted
        -- an update that cannot prove itself fails closed.
    """

    min_samples: int = 200
    promote_agreement: float = 0.98
    demote_agreement: float = 0.90
    max_shadow_latency_ms: Optional[float] = None
    max_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if not 0.0 < self.promote_agreement <= 1.0:
            raise ConfigurationError(
                f"promote_agreement must lie in (0, 1], got {self.promote_agreement}"
            )
        if not 0.0 <= self.demote_agreement <= self.promote_agreement:
            raise ConfigurationError(
                "demote_agreement must lie in [0, promote_agreement], got "
                f"{self.demote_agreement}"
            )
        if self.max_shadow_latency_ms is not None and self.max_shadow_latency_ms <= 0:
            raise ConfigurationError(
                f"max_shadow_latency_ms must be positive or None, "
                f"got {self.max_shadow_latency_ms}"
            )
        if self.max_samples is not None and self.max_samples < self.min_samples:
            raise ConfigurationError(
                f"max_samples ({self.max_samples}) must be >= min_samples "
                f"({self.min_samples})"
            )

    def decide(self, stats: "ShadowStats") -> str:
        """``"promote"``, ``"demote"`` or ``"hold"`` for the given stats."""
        if stats.samples < self.min_samples:
            return "hold"
        agreement = stats.agreement
        if agreement < self.demote_agreement:
            return "demote"
        if agreement >= self.promote_agreement and (
            self.max_shadow_latency_ms is None
            or stats.shadow_mean_latency_ms <= self.max_shadow_latency_ms
        ):
            return "promote"
        if self.max_samples is not None and stats.samples >= self.max_samples:
            return "demote"
        return "hold"


@dataclass(frozen=True)
class ShadowStats:
    """Immutable snapshot of a candidate's mirrored-traffic scorecard."""

    samples: int = 0
    agreements: int = 0
    disagreements: int = 0
    primary_rejections: int = 0
    shadow_rejections: int = 0
    shadow_seconds: float = 0.0
    primary_latency_seconds: float = 0.0
    dropped: int = 0

    @property
    def agreement(self) -> float:
        """Fraction of mirrored requests with matching outcomes (1.0 when
        nothing has been mirrored yet, so a fresh candidate is not demoted
        for lack of data)."""
        return self.agreements / self.samples if self.samples else 1.0

    @property
    def shadow_mean_latency_ms(self) -> float:
        """Mean candidate scoring time per mirrored signature."""
        return (self.shadow_seconds / self.samples) * 1e3 if self.samples else 0.0

    @property
    def primary_mean_latency_ms(self) -> float:
        """Mean end-to-end latency the active version actually served."""
        return (
            (self.primary_latency_seconds / self.samples) * 1e3
            if self.samples
            else 0.0
        )


@dataclass(frozen=True)
class RolloutConfig:
    """Knobs of the guarded-rollout machinery.

    Attributes
    ----------
    policy:
        The promotion/demotion thresholds (:class:`RolloutPolicy`).
    canary_fraction:
        Share of live traffic routed to the candidate once it clears the
        shadow phase (0 skips the canary stage and promotes directly).
        Capped at 0.5: the active version keeps the majority until the
        candidate is promoted.
    split_seed:
        Seed of the deterministic canary traffic split
        (:meth:`~repro.serve.registry.ModelRegistry.set_route`).
    ring_size:
        Swapped-out snapshots retained per model for rollback.
    auto:
        Apply the policy's verdicts automatically after every mirrored
        batch; ``False`` only accumulates stats (manual
        :meth:`RolloutManager.promote` / :meth:`~RolloutManager.demote`).
    rollback_on_breaker:
        Arm one automatic rollback per promotion: if a circuit breaker of
        the promoted model opens while armed, the previous snapshot is
        swapped back in.
    shadow_queue_capacity:
        Bounded mirror queue (batches, not requests); overflow is counted
        as ``dropped``, never blocking the request path.
    drain_timeout_s:
        How long demotion waits for the canary's queued batches to finish
        before evicting its shard group.
    """

    policy: RolloutPolicy = field(default_factory=RolloutPolicy)
    canary_fraction: float = 0.0
    split_seed: int = 0
    ring_size: int = 4
    auto: bool = True
    rollback_on_breaker: bool = True
    shadow_queue_capacity: int = 256
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.canary_fraction <= 0.5:
            raise ConfigurationError(
                f"canary_fraction must lie in [0, 0.5], got {self.canary_fraction}"
            )
        if self.ring_size < 1:
            raise ConfigurationError(
                f"ring_size must be >= 1, got {self.ring_size}"
            )
        if self.shadow_queue_capacity < 1:
            raise ConfigurationError(
                f"shadow_queue_capacity must be >= 1, got {self.shadow_queue_capacity}"
            )
        if self.drain_timeout_s <= 0:
            raise ConfigurationError(
                f"drain_timeout_s must be positive, got {self.drain_timeout_s}"
            )


class ShadowEvaluator:
    """Scores mirrored batches against the candidate, out of band.

    One daemon thread per rollout pulls ``(packed rows, primary outcomes)``
    items off a bounded queue and runs the candidate's packed batch kernel
    on them.  The request path only ever pays a non-blocking ``put``; when
    the queue is full the batch is dropped and counted, never waited for.
    After every scored batch ``on_scored`` (the manager's policy hook) is
    invoked with fresh stats.  Each item carries the scorecard's epoch
    when it was mirrored; :meth:`reset_stats` starts a new epoch, and the
    worker drops items of an older one unscored, so a reset scorecard
    counts only traffic mirrored after it.
    """

    def __init__(
        self,
        name: str,
        candidate,
        *,
        capacity: int,
        on_scored,
    ):
        self.name = name
        self.candidate = candidate
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._on_scored = on_scored
        self._lock = threading.Lock()
        self._samples = 0
        self._agreements = 0
        self._disagreements = 0
        self._primary_rejections = 0
        self._shadow_rejections = 0
        self._shadow_seconds = 0.0
        self._primary_latency_seconds = 0.0
        self._dropped = 0
        self._epoch = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"shadow-{name}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker; safe to call from the worker thread itself
        (a policy transition runs *in* the worker, which then must not
        try to join itself)."""
        self._stop.set()
        self._queue.put(None)  # wake the worker; None is the sentinel
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def mirror(self, packed_rows, labels, rejected, latency_s: float) -> bool:
        """Enqueue one primary batch's outcomes for shadow scoring.

        Non-blocking: returns ``False`` (and counts the drop) when the
        queue is full, so a slow candidate can never backpressure the
        live request path.
        """
        if self._stop.is_set():
            return False
        with self._lock:
            epoch = self._epoch
        try:
            self._queue.put_nowait((epoch, packed_rows, labels, rejected, latency_s))
            return True
        except queue.Full:
            with self._lock:
                self._dropped += len(labels)
            return False

    def stats(self) -> ShadowStats:
        with self._lock:
            return ShadowStats(
                samples=self._samples,
                agreements=self._agreements,
                disagreements=self._disagreements,
                primary_rejections=self._primary_rejections,
                shadow_rejections=self._shadow_rejections,
                shadow_seconds=self._shadow_seconds,
                primary_latency_seconds=self._primary_latency_seconds,
                dropped=self._dropped,
            )

    def reset_stats(self) -> None:
        """Zero the scorecard and drop what is still queued unscored
        (entering the canary phase starts fresh)."""
        with self._lock:
            self._epoch += 1
            self._samples = 0
            self._agreements = 0
            self._disagreements = 0
            self._primary_rejections = 0
            self._shadow_rejections = 0
            self._shadow_seconds = 0.0
            self._primary_latency_seconds = 0.0

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None or self._stop.is_set():
                return
            epoch, packed_rows, labels, rejected, latency_s = item
            with self._lock:
                if epoch != self._epoch:
                    continue
            try:
                self._score(packed_rows, labels, rejected, latency_s)
            except Exception:
                # A candidate that cannot even score its mirror traffic
                # counts every mirrored request as a disagreement -- the
                # policy will demote it; it must never kill the worker.
                with self._lock:
                    self._samples += len(labels)
                    self._disagreements += len(labels)
            if self._on_scored is not None:
                self._on_scored(self.name)

    def _score(self, packed_rows, labels, rejected, latency_s: float) -> None:
        words = np.vstack(packed_rows)
        started = time.perf_counter()
        prediction = self.candidate.predict_batch_packed(words)
        elapsed = time.perf_counter() - started
        primary_labels = np.asarray(labels)
        primary_rejected = np.asarray(rejected, dtype=bool)
        shadow_rejected = np.asarray(prediction.rejected, dtype=bool)
        # Outcome agreement: same rejection verdict, and the same label
        # whenever both sides accepted the signature.
        agree = (primary_rejected == shadow_rejected) & (
            primary_rejected | (prediction.labels == primary_labels)
        )
        with self._lock:
            self._samples += len(primary_labels)
            self._agreements += int(np.count_nonzero(agree))
            self._disagreements += int(np.count_nonzero(~agree))
            self._primary_rejections += int(np.count_nonzero(primary_rejected))
            self._shadow_rejections += int(np.count_nonzero(shadow_rejected))
            self._shadow_seconds += elapsed
            self._primary_latency_seconds += latency_s


@dataclass
class RolloutStatus:
    """One rollout's externally visible state."""

    model: str
    stage: str
    version: Optional[str]
    stats: ShadowStats
    candidate_weights_version: Optional[int]


class _Rollout:
    """Internal per-model rollout state (owned by the manager)."""

    def __init__(
        self,
        name: str,
        candidate: ModelSnapshot,
        version: str,
        evaluator: ShadowEvaluator,
    ):
        self.name = name
        self.candidate = candidate
        self.version = version
        self.evaluator = evaluator
        self.stage = "shadow"
        self.routed = False  # candidate registered + route set (canary)
        self.reported_disagreements = 0  # high-water mark for the counter
        self.lock = threading.Lock()  # serialises stage transitions


class RolloutManager:
    """Drives guarded rollouts for a :class:`StreamingInferenceService`.

    One manager per service (``service.enable_rollouts()``); one active
    rollout per logical model name.  All transitions funnel through this
    class so the state machine -- shadow -> canary -> promoted / demoted,
    plus breaker- or operator-triggered rollback -- is serialised per
    model and every step lands in the service's metrics and event log.
    """

    def __init__(
        self,
        service: "StreamingInferenceService",
        config: Optional[RolloutConfig] = None,
    ):
        self.service = service
        self.config = config or RolloutConfig()
        self._active: dict[str, _Rollout] = {}
        self._rings: dict[str, deque] = {}
        self._armed: dict[str, bool] = {}
        self._versions: dict[str, int] = {}
        self._lock = threading.Lock()
        registry = service.obs.registry
        self._promotions = registry.counter(
            "serve_rollout_promotions_total",
            help="Candidates promoted to active",
        )
        self._demotions = registry.counter(
            "serve_rollout_demotions_total",
            help="Candidates demoted (regression, inconclusive, or manual)",
        )
        self._rollbacks = registry.counter(
            "serve_rollout_rollbacks_total",
            help="Promoted models rolled back from the ring",
        )
        self._promote_failures = registry.counter(
            "serve_rollout_promote_failures_total",
            help="Promotions that failed mid-transition and were rolled off",
        )

    # ------------------------------------------------------------------ #
    # Telemetry helpers
    # ------------------------------------------------------------------ #
    def _stage_gauge(self, model: str, stage: str) -> None:
        self.service.obs.registry.gauge(
            "serve_rollout_stage",
            labels={"model": model},
            help="Rollout stage (0 idle, 1 shadow, 2 canary, 3 promoted, "
            "4 demoted, 5 rolled-back)",
        ).set(ROLLOUT_STAGE_CODES[stage])

    def _shadow_counter(self, name: str, model: str, help_text: str):
        return self.service.obs.registry.counter(
            name, labels={"model": model}, help=help_text
        )

    def _emit(self, kind: str, **fields) -> None:
        self.service.obs.events.emit(kind, **fields)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def status(self, model: str) -> Optional[RolloutStatus]:
        """The active rollout of ``model``, or ``None``."""
        rollout = self._active.get(model)
        if rollout is None:
            return None
        return RolloutStatus(
            model=model,
            stage=rollout.stage,
            version=rollout.version if rollout.routed else None,
            stats=rollout.evaluator.stats(),
            candidate_weights_version=rollout.candidate.weights_version,
        )

    def stats(self, model: str) -> Optional[ShadowStats]:
        rollout = self._active.get(model)
        return rollout.evaluator.stats() if rollout is not None else None

    def ring(self, model: str) -> tuple[ModelSnapshot, ...]:
        """The rollback ring of ``model``, newest last."""
        with self._lock:
            return tuple(self._rings.get(model, ()))

    # ------------------------------------------------------------------ #
    # The state machine
    # ------------------------------------------------------------------ #
    def begin(self, model: str, candidate) -> RolloutStatus:
        """Start shadow-evaluating ``candidate`` against active ``model``.

        ``candidate`` is a fitted classifier or
        :class:`~repro.core.snapshot.ModelSnapshot`.  It must consume the
        same signature width as the active version (mirrored requests are
        already packed for that width).  Only one rollout per model can be
        active at a time.
        """
        snapshot = snapshot_model(candidate)
        if not snapshot.is_fitted:
            raise DataError(
                f"rollout candidate for {model!r} must be a fitted classifier"
            )
        active = self.service.registry.classifier(model)  # UnknownModelError
        if snapshot.n_bits != active.som.n_bits:
            raise ConfigurationError(
                f"candidate for {model!r} expects {snapshot.n_bits}-bit "
                f"signatures but live traffic carries {active.som.n_bits} bits"
            )
        with self._lock:
            if model in self._active:
                raise ConfigurationError(
                    f"a rollout for {model!r} is already in progress "
                    f"(stage {self._active[model].stage!r})"
                )
            n = self._versions.get(model, 0) + 1
            self._versions[model] = n
            version = f"{model}@v{n}"
            evaluator = ShadowEvaluator(
                model,
                snapshot.to_classifier(),
                capacity=self.config.shadow_queue_capacity,
                on_scored=self._on_scored,
            )
            rollout = _Rollout(model, snapshot, version, evaluator)
            self._active[model] = rollout
        evaluator.start()
        self._stage_gauge(model, "shadow")
        self._emit(
            "rollout_begin",
            model=model,
            version=version,
            candidate_weights_version=snapshot.weights_version,
        )
        return self.status(model)

    def mirror_batch(self, batch, responses) -> None:
        """Service completion hook: feed one resolved batch to the shadow.

        Called with the primary's already-resolved responses, *after* every
        future has its answer -- mirroring can neither delay nor alter what
        callers see.  Batches of the canary version itself (``name@vN``)
        do not hit this path: they are keyed by the version name, which is
        never a rollout key.
        """
        rollout = self._active.get(batch.model)
        if rollout is None or rollout.stage not in ("shadow", "canary"):
            return
        packed = [request.packed for request in batch.requests]
        labels = [response.label for response in responses]
        rejected = [response.rejected for response in responses]
        latency = sum(response.latency_s for response in responses)
        mirrored = rollout.evaluator.mirror(packed, labels, rejected, latency)
        self._shadow_counter(
            "serve_shadow_requests_total",
            batch.model,
            "Live requests mirrored to a shadow candidate",
        ).inc(len(labels))
        if not mirrored:
            self._shadow_counter(
                "serve_shadow_dropped_total",
                batch.model,
                "Mirrored requests dropped on shadow-queue overflow",
            ).inc(len(labels))

    def _on_scored(self, model: str) -> None:
        """Evaluator hook (runs on the shadow thread): metrics + policy."""
        rollout = self._active.get(model)
        if rollout is None:
            return
        stats = rollout.evaluator.stats()
        # Counters only move forward: publish the delta since last report.
        delta = stats.disagreements - rollout.reported_disagreements
        if delta > 0:
            rollout.reported_disagreements = stats.disagreements
            self._shadow_counter(
                "serve_shadow_disagreements_total",
                model,
                "Mirrored requests where the candidate disagreed with the "
                "active version",
            ).inc(delta)
        if not self.config.auto:
            return
        decision = self.config.policy.decide(stats)
        if decision == "hold":
            return
        if decision == "demote":
            self.demote(model, reason="regression")
            return
        # decision == "promote"
        if rollout.stage == "shadow" and self.config.canary_fraction > 0:
            self._enter_canary(rollout)
        else:
            self.promote(model)

    def _enter_canary(self, rollout: _Rollout) -> None:
        """Shadow -> canary: register ``name@vN`` and split live traffic."""
        with rollout.lock:
            if rollout.stage != "shadow":
                return
            registry = self.service.registry
            registry.register(rollout.version, rollout.candidate)
            fraction = self.config.canary_fraction
            registry.set_route(
                rollout.name,
                {rollout.name: 1.0 - fraction, rollout.version: fraction},
                seed=self.config.split_seed,
            )
            rollout.routed = True
            rollout.stage = "canary"
            # The canary verdict is earned on canary-phase traffic, not
            # inherited from the shadow phase that admitted it.
            rollout.evaluator.reset_stats()
            rollout.reported_disagreements = 0
        self._stage_gauge(rollout.name, "canary")
        self._emit(
            "rollout_canary",
            model=rollout.name,
            version=rollout.version,
            fraction=fraction,
        )

    def promote(self, model: str) -> bool:
        """Swap the candidate in as the active version (zero-drop).

        Returns ``True`` on success.  A failure mid-promotion (validation,
        operand preparation, or the injected ``promote_failure`` site)
        leaves the active version serving untouched and demotes the
        candidate -- the transition fails closed, never half-applied.
        """
        rollout = self._active.get(model)
        if rollout is None:
            raise UnknownModelError(model, tuple(self._active))
        with rollout.lock:
            if rollout.stage not in ("shadow", "canary"):
                return False
            injector = self.service.config.fault_injector
            try:
                if injector is not None:
                    injector.raise_if(PROMOTE_FAILURE, model=model)
                previous = self.service.swap_model(model, rollout.candidate)
            except Exception as error:
                self._promote_failures.inc()
                self._emit(
                    "rollout_promote_failed",
                    model=model,
                    version=rollout.version,
                    error=type(error).__name__,
                )
                self._teardown(rollout, stage="demoted", reason="promote_failed")
                if not isinstance(error, InjectedFaultError):
                    raise
                return False
            with self._lock:
                ring = self._rings.setdefault(
                    model, deque(maxlen=self.config.ring_size)
                )
                ring.append(snapshot_model(previous))
                self._armed[model] = self.config.rollback_on_breaker
            stats = rollout.evaluator.stats()
            self._teardown(rollout, stage="promoted", reason=None, stats=stats)
        self._promotions.inc()
        self._emit(
            "rollout_promoted",
            model=model,
            version=rollout.version,
            samples=stats.samples,
            agreement=round(stats.agreement, 4),
        )
        return True

    def demote(self, model: str, *, reason: str = "manual") -> bool:
        """Retire the candidate; the active version keeps serving.

        During a canary, the route is cleared first and the canary's
        queued batches are drained to completion before its shard group is
        evicted -- demotion mid-load leaves every already-admitted future
        terminal with a real classification.
        """
        rollout = self._active.get(model)
        if rollout is None:
            return False
        with rollout.lock:
            if rollout.stage not in ("shadow", "canary"):
                return False
            stats = rollout.evaluator.stats()
            self._teardown(rollout, stage="demoted", reason=reason, stats=stats)
        self._demotions.inc()
        self._emit(
            "rollout_demoted",
            model=model,
            version=rollout.version,
            reason=reason,
            samples=stats.samples,
            agreement=round(stats.agreement, 4),
        )
        return True

    def _teardown(
        self,
        rollout: _Rollout,
        *,
        stage: str,
        reason: Optional[str],
        stats: Optional[ShadowStats] = None,
    ) -> None:
        """Common tail of promote/demote (caller holds ``rollout.lock``)."""
        registry = self.service.registry
        if rollout.routed:
            registry.clear_route(rollout.name)
            self._drain_version(rollout.version)
            try:
                self.service.evict_model(rollout.version)
            except UnknownModelError:  # pragma: no cover - already gone
                pass
            rollout.routed = False
        rollout.stage = stage
        rollout.evaluator.stop()
        self._active.pop(rollout.name, None)
        self._stage_gauge(rollout.name, stage)

    def _drain_version(self, version: str) -> None:
        """Wait for the canary's routed work to finish before eviction.

        The route is already cleared, so no new request can resolve to the
        version; what remains is every request already resolved to it: on
        its way from the route to the lane, in the lane, or in a shard
        queue.  The deadline dispatcher cuts the lane within
        ``max_delay_ms``, so polling :meth:`StreamingInferenceService.drained`
        (bounded by ``drain_timeout_s``) guarantees eviction fails nothing
        that was routed to the version: each such request is answered by
        it.
        """
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline and not self.service.drained(version):
            time.sleep(0.002)

    # ------------------------------------------------------------------ #
    # Rollback
    # ------------------------------------------------------------------ #
    def rollback(self, model: str, *, reason: str = "manual") -> bool:
        """Swap the newest ring snapshot back in (zero-drop); ``True`` on
        success, ``False`` when the ring is empty."""
        with self._lock:
            ring = self._rings.get(model)
            if not ring:
                return False
            snapshot = ring.pop()
            self._armed[model] = False
        self.service.swap_model(model, snapshot)
        self._rollbacks.inc()
        self._stage_gauge(model, "rolled_back")
        self._emit(
            "rollout_rolled_back",
            model=model,
            reason=reason,
            restored_weights_version=snapshot.weights_version,
        )
        return True

    def on_breaker_open(self, model: str, shard: str) -> None:
        """Breaker-board hook: roll a freshly promoted model back.

        Armed once per promotion (``rollback_on_breaker``); the swap runs
        on a short-lived thread so the settle step that fed the breaker is never
        blocked behind a model transition.
        """
        with self._lock:
            if not self._armed.get(model):
                return
            self._armed[model] = False
        threading.Thread(
            target=lambda: self.rollback(model, reason=f"breaker_open:{shard}"),
            name=f"rollback-{model}",
            daemon=True,
        ).start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Demote every in-flight rollout and stop the shadow workers."""
        for model in list(self._active):
            self.demote(model, reason="service_stop")
