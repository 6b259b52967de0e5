"""Resilience primitives for the serve stack.

A surveillance deployment is always-on: cameras never stop, so the serving
system has to survive misbehaving shards, hung kernels and mid-swap
failures without dropping or hanging requests.  This module holds the four
mechanisms the :class:`~repro.serve.service.StreamingInferenceService`
threads through its stack, plus the deterministic fault injector CI uses
to prove they work (``scripts/check_resilience.py``):

* :class:`FaultInjector` -- seed-driven, named injection sites (kernel
  raise, kernel hang, shard-thread death, swap failure, cache codec
  error).  Off unless explicitly armed; the same seed replays the same
  fault pattern, so a CI failure reproduces locally.
* :class:`RetryPolicy` -- jittered exponential backoff for transient
  :class:`~repro.errors.ServiceOverloadedError` refusals at submit time.
  Deterministic given its seed, budget-capped by ``max_attempts`` and by
  the request's own deadline.
* :class:`CircuitBreaker` / :class:`BreakerBoard` -- per-(model, shard)
  breakers that open after N consecutive batch failures, let one probe
  through per reset-timeout once half-open, and close again on success.
  A cut batch is queued only while some shard's breaker allows it; when
  every shard of a model is open the service degrades to stale cache
  answers (``stale=True``).
* :class:`ShardSupervisor` -- a watchdog thread that detects dead or
  wedged worker shards via per-shard heartbeats, fails the abandoned
  in-flight batch (terminal futures, never hangs), and restarts the worker
  on the model's ready queue under a bounded restart budget; the model's
  queued batches stay in place for whichever worker pulls them.

Everything reports through the :mod:`repro.obs` layer: breaker-state
gauges (``serve_breaker_state{model,shard}``), ``serve_retries_total``,
``serve_deadline_exceeded_total``, ``serve_shard_restarts_total`` and
``shard_restart`` / ``breaker_open`` / ``breaker_close`` events.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.core.serialization import SNAPSHOT_CORRUPT_SITE
from repro.errors import ConfigurationError, InjectedFaultError, ShardFailedError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricRegistry
    from repro.serve.registry import ModelRegistry

# --------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------- #

#: Named injection sites wired into the serve stack.  Arming a spec for a
#: site makes the corresponding layer misbehave deterministically:
KERNEL_RAISE = "kernel_raise"  # shard kernel raises before scoring
KERNEL_HANG = "kernel_hang"  # shard kernel sleeps `hang_s` (wedged worker)
SHARD_DEATH = "shard_death"  # worker thread dies with a batch in hand
SWAP_FAILURE = "swap_failure"  # ModelRegistry.swap raises before the flip
CACHE_CODEC = "cache_codec"  # signature-cache get/put raises
PROMOTE_FAILURE = "promote_failure"  # rollout promotion raises mid-transition
# Archive loads fail closed as corrupt; the site name itself is owned by the
# core layer (repro.core.serialization) so load_snapshot never imports serve.
SNAPSHOT_CORRUPT = SNAPSHOT_CORRUPT_SITE

FAULT_SITES = (
    KERNEL_RAISE,
    KERNEL_HANG,
    SHARD_DEATH,
    SWAP_FAILURE,
    CACHE_CODEC,
    PROMOTE_FAILURE,
    SNAPSHOT_CORRUPT,
)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where, how often, how many times, and how.

    Attributes
    ----------
    site:
        Injection-site name (one of :data:`FAULT_SITES`, or any custom
        site a test registers itself).
    probability:
        Chance that one pass through the site fires, drawn from the
        injector's per-site seeded RNG (1.0 = every eligible pass).
    max_fires:
        Stop firing after this many injections (``None`` = unbounded).
    start_after:
        Skip the first N passes through the site, so a load test can
        establish a healthy baseline before the chaos starts.
    hang_s:
        When positive the site *sleeps* this long instead of raising --
        the "hung kernel" fault class.
    """

    site: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    start_after: int = 0
    hang_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigurationError("fault site must be a non-empty string")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must lie in (0, 1], got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires <= 0:
            raise ConfigurationError(
                f"max_fires must be positive or None, got {self.max_fires}"
            )
        if self.start_after < 0 or self.hang_s < 0:
            raise ConfigurationError("start_after and hang_s must be non-negative")


class FaultInjector:
    """Deterministic, seed-replayable fault injection.

    Each site draws from its own ``random.Random`` stream seeded with
    ``f"{seed}:{site}"``, so whether the Kth pass through a site fires is a
    pure function of ``(seed, site, K)`` -- independent of thread
    interleaving across sites and of ``PYTHONHASHSEED``.  A CI failure
    under seed S replays exactly with seed S.

    The injector is inert until specs are armed; production code paths pay
    one ``None`` check when no injector is configured at all.
    """

    def __init__(self, seed: int = 0, specs: Iterable[FaultSpec] = ()):
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._specs: dict[str, FaultSpec] = {}
        self._rngs: dict[str, random.Random] = {}
        self._passes: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        for spec in specs:
            self.arm(spec)

    def arm(self, spec: FaultSpec) -> None:
        """Arm (or replace) the spec for one site; counters keep running."""
        with self._lock:
            self._specs[spec.site] = spec
            self._rngs.setdefault(spec.site, random.Random(f"{self.seed}:{spec.site}"))

    def disarm(self, site: Optional[str] = None) -> None:
        """Stop injecting at ``site`` (or everywhere when ``None``)."""
        with self._lock:
            if site is None:
                self._specs.clear()
            else:
                self._specs.pop(site, None)

    def fires(self, site: str) -> Optional[FaultSpec]:
        """Count one pass through ``site``; return its spec iff it fires."""
        with self._lock:
            spec = self._specs.get(site)
            if spec is None:
                return None
            n = self._passes.get(site, 0)
            self._passes[site] = n + 1
            if n < spec.start_after:
                return None
            if spec.max_fires is not None and self._fired.get(site, 0) >= spec.max_fires:
                return None
            if spec.probability < 1.0 and self._rngs[site].random() >= spec.probability:
                return None
            self._fired[site] = self._fired.get(site, 0) + 1
            return spec

    def raise_if(self, site: str, **context) -> None:
        """Raise :class:`~repro.errors.InjectedFaultError` when the site fires.

        A spec with ``hang_s > 0`` sleeps instead -- the hung-kernel fault.
        """
        spec = self.fires(site)
        if spec is None:
            return
        if spec.hang_s > 0:
            time.sleep(spec.hang_s)
            return
        raise InjectedFaultError(site, **context)

    def fired(self, site: str) -> int:
        """How many times ``site`` has fired so far."""
        with self._lock:
            return self._fired.get(site, 0)

    def passes(self, site: str) -> int:
        """How many times execution has passed through ``site``."""
        with self._lock:
            return self._passes.get(site, 0)

    def counts(self) -> dict[str, int]:
        """Fired counts for every site that has fired at least once."""
        with self._lock:
            return dict(self._fired)


# --------------------------------------------------------------------- #
# Retry with jittered exponential backoff
# --------------------------------------------------------------------- #
class RetryPolicy:
    """Jittered exponential backoff for transient submit refusals.

    ``delay_s(attempt)`` for attempt 1, 2, ... is
    ``min(base * multiplier**(attempt-1), max_delay)`` scaled by a random
    factor in ``[1 - jitter, 1]`` drawn from a seeded RNG -- deterministic
    given the seed, so a replayed chaos run sleeps the same schedule.

    The budget is capped twice over: ``max_attempts`` bounds how many times
    a submit is re-tried, and the service additionally refuses to sleep
    past the request's own deadline -- a retried request can therefore
    never outlive its deadline or stack an orphaned admission (a refused
    submit leaves no state behind to orphan).
    """

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        base_delay_s: float = 0.002,
        multiplier: float = 2.0,
        max_delay_s: float = 0.1,
        jitter: float = 0.5,
        seed: int = 0,
    ):
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {max_attempts}"
            )
        if base_delay_s <= 0 or max_delay_s <= 0 or multiplier < 1.0:
            raise ConfigurationError(
                "need base_delay_s > 0, max_delay_s > 0, multiplier >= 1; got "
                f"{base_delay_s}, {max_delay_s}, {multiplier}"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(f"jitter must lie in [0, 1], got {jitter}")
        self.max_attempts = int(max_attempts)
        self.base_delay_s = float(base_delay_s)
        self.multiplier = float(multiplier)
        self.max_delay_s = float(max_delay_s)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self._rng = random.Random(f"retry:{seed}")
        self._rng_lock = threading.Lock()

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s
        )
        if self.jitter:
            with self._rng_lock:
                delay *= 1.0 - self.jitter * self._rng.random()
        return delay


# --------------------------------------------------------------------- #
# Circuit breakers
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BreakerConfig:
    """Knobs of the per-(model, shard) circuit breakers.

    Attributes
    ----------
    failure_threshold:
        Consecutive batch failures that trip the breaker open.
    reset_timeout_s:
        How long an open breaker blocks before going half-open; also the
        minimum spacing between half-open probes.
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout_s <= 0:
            raise ConfigurationError(
                f"reset_timeout_s must be positive, got {self.reset_timeout_s}"
            )


#: Gauge encoding of breaker states (``serve_breaker_state{model,shard}``).
BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


class CircuitBreaker:
    """One breaker: closed -> open after N consecutive failures -> half-open
    probe after the reset timeout -> closed again on success.

    ``allow`` is the consuming check (a half-open breaker admits at most
    one probe per reset-timeout); ``would_allow`` is the side-effect-free
    variant the service uses to decide whether a model is degraded.
    """

    def __init__(self, config: BreakerConfig):
        self.config = config
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._last_probe_at = -float("inf")

    def _state_unlocked(self, now: float) -> str:
        if self._opened_at is None:
            return "closed"
        if now - self._opened_at < self.config.reset_timeout_s:
            return "open"
        return "half_open"

    def state(self, now: float) -> str:
        with self._lock:
            return self._state_unlocked(now)

    def allow(self, now: float) -> bool:
        """May a batch be routed to this shard right now?  (Consumes the
        half-open probe slot: the next probe waits another reset timeout.)"""
        with self._lock:
            state = self._state_unlocked(now)
            if state == "closed":
                return True
            if state == "open":
                return False
            if now - self._last_probe_at >= self.config.reset_timeout_s:
                self._last_probe_at = now
                return True
            return False

    def would_allow(self, now: float) -> bool:
        """Like :meth:`allow` but without consuming the probe slot."""
        with self._lock:
            state = self._state_unlocked(now)
            if state == "closed":
                return True
            if state == "open":
                return False
            return now - self._last_probe_at >= self.config.reset_timeout_s

    def record_success(self, now: float) -> str:
        """A batch completed on this shard; returns the new state."""
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._last_probe_at = -float("inf")
            return "closed"

    def record_failure(self, now: float) -> str:
        """A batch failed on this shard; returns the new state."""
        with self._lock:
            state = self._state_unlocked(now)
            self._failures += 1
            if state == "half_open" or self._failures >= self.config.failure_threshold:
                self._opened_at = now
            return self._state_unlocked(now)

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures


class BreakerBoard:
    """The per-(model, shard) breaker table the service and groups consult.

    Breakers are created lazily on first reference (an unreferenced shard
    is implicitly closed).  Transitions are pushed to the observability
    layer: a ``serve_breaker_state{model,shard}`` gauge per breaker and
    ``breaker_open`` / ``breaker_close`` events on state changes.
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional["MetricRegistry"] = None,
        events: Optional["EventLog"] = None,
    ):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._registry = registry
        self._events = events
        self._lock = threading.Lock()
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self._last_state: dict[tuple[str, str], str] = {}
        #: Optional ``(model, shard)`` callback invoked when a breaker
        #: transitions to open.  The rollout manager hooks this to trigger
        #: breaker-driven rollback of a freshly promoted model; exceptions
        #: are swallowed so a misbehaving hook cannot poison the breaker.
        self.on_open: Optional[Callable[[str, str], None]] = None

    def breaker(self, model: str, shard: str) -> CircuitBreaker:
        key = (model, shard)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.config)
                self._breakers[key] = breaker
                self._last_state[key] = "closed"
            return breaker

    def _publish(self, model: str, shard: str, state: str) -> None:
        if self._registry is not None:
            self._registry.gauge(
                "serve_breaker_state",
                labels={"model": model, "shard": shard},
                help="Circuit-breaker state (0 closed, 1 half-open, 2 open)",
            ).set(BREAKER_STATE_CODES[state])
        with self._lock:
            previous = self._last_state.get((model, shard), "closed")
            self._last_state[(model, shard)] = state
        if previous == state:
            return
        if state == "open" and self.on_open is not None:
            try:
                self.on_open(model, shard)
            except Exception:  # pragma: no cover - hooks must not poison
                pass
        if self._events is None:
            return
        if state == "open":
            self._events.emit("breaker_open", model=model, shard=shard)
        elif previous == "open" and state == "closed":
            self._events.emit("breaker_close", model=model, shard=shard)

    def forget(self, model: str) -> None:
        """Drop every breaker of ``model``, and its state gauge: the model
        was evicted, so one registered again under the name starts with
        closed breakers."""
        with self._lock:
            keys = [key for key in self._breakers if key[0] == model]
            for key in keys:
                del self._breakers[key]
                self._last_state.pop(key, None)
        if self._registry is not None:
            for _, shard in keys:
                self._registry.remove("serve_breaker_state", {"model": model, "shard": shard})

    def allow(self, model: str, shard: str) -> bool:
        """Dispatch gate: may a batch be queued for this shard?  Consumes probes."""
        return self.breaker(model, shard).allow(self._clock())

    def would_allow_any(self, model: str, shards: Sequence[str]) -> bool:
        """Degradation check: could *any* shard of the model take a batch?

        Side-effect free (no probe is consumed), so the service can use it
        per-submit without starving dispatch of half-open probes.
        """
        now = self._clock()
        return any(self.breaker(model, shard).would_allow(now) for shard in shards)

    def record(self, model: str, shard: str, *, ok: bool) -> str:
        """Feed one batch outcome into the breaker; returns the new state."""
        breaker = self.breaker(model, shard)
        now = self._clock()
        state = breaker.record_success(now) if ok else breaker.record_failure(now)
        self._publish(model, shard, state)
        return state

    def state(self, model: str, shard: str) -> str:
        return self.breaker(model, shard).state(self._clock())

    def states(self) -> dict[str, str]:
        """Current state per ``"model/shard"`` key (for snapshots/tests)."""
        with self._lock:
            keys = list(self._breakers)
        now = self._clock()
        return {f"{m}/{s}": self._breakers[(m, s)].state(now) for m, s in keys}


# --------------------------------------------------------------------- #
# Shard supervision
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the shard watchdog.

    Attributes
    ----------
    interval_s:
        Wall-clock pause between watchdog scans.
    hang_timeout_s:
        A worker busy on one batch longer than this is declared wedged:
        its batch is failed (terminal futures) and the worker is replaced.
        Must comfortably exceed the worst-case legitimate kernel time.
    max_restarts:
        Per-shard restart budget; a shard exceeding it is disabled (it
        never pulls a batch again) instead of being restarted forever.
    """

    interval_s: float = 0.25
    hang_timeout_s: float = 30.0
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.interval_s <= 0 or self.hang_timeout_s <= 0:
            raise ConfigurationError(
                "interval_s and hang_timeout_s must be positive, got "
                f"{self.interval_s}, {self.hang_timeout_s}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )


class ShardSupervisor:
    """Watchdog thread: detect dead/wedged worker shards and restart them.

    Per scan, every supervisable shard (started, not stopped, not
    disabled) is checked against two conditions:

    * **dead** -- the worker thread is no longer alive (e.g. an injected
      ``shard_death``, or a bug that escaped the per-batch catch), or
    * **wedged** -- the worker has been busy on one batch longer than
      ``hang_timeout_s`` (a hung kernel; Python threads cannot be killed,
      so the wedged thread is *abandoned*: its epoch is invalidated and any
      late delivery it attempts is discarded).

    Either way the in-flight batch is failed with
    :class:`~repro.errors.ShardFailedError` (every future reaches a
    terminal state) and a replacement worker thread is started on the same
    ready queue, which the model's other shards kept pulling.  A shard that
    exhausts ``max_restarts`` is disabled instead: it never pulls again,
    and with no enabled shard left the ready queue is failed terminally.
    """

    def __init__(
        self,
        registry: "ModelRegistry",
        *,
        config: Optional[SupervisorConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        on_restart: Optional[Callable[[str, str, str], None]] = None,
        on_disabled: Optional[Callable[[str, str, str], None]] = None,
    ):
        self.registry = registry
        self.config = config or SupervisorConfig()
        self._clock = clock
        self._on_restart = on_restart
        self._on_disabled = on_disabled
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.restarts_performed = 0

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="shard-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.config.interval_s):
            try:
                self.scan()
            except Exception:  # pragma: no cover - the watchdog must survive
                pass

    def scan(self) -> int:
        """One supervision pass; returns the number of restarts performed.

        Public so tests and the chaos gate can drive supervision
        synchronously with an injected clock.
        """
        restarted = 0
        now = self._clock()
        for model, shard in self.registry.iter_shards():
            if not shard.supervisable:
                continue
            busy_s = shard.busy_seconds(now)
            if not shard.thread_alive:
                reason = "died"
            elif busy_s is not None and busy_s > self.config.hang_timeout_s:
                reason = "wedged"
            else:
                continue
            error = ShardFailedError(shard.name, reason)
            if shard.restarts >= self.config.max_restarts:
                shard.disable(error)
                if self._on_disabled is not None:
                    self._on_disabled(model, shard.name, reason)
                continue
            shard.abandon_current(error)
            # Reported once the restart is decided and before the
            # replacement can answer anything, so no answer from the new
            # worker precedes its record.  A shard whose stop() has begun
            # (an evict racing this scan) is neither restarted nor reported.
            announce = None
            if self._on_restart is not None:
                announce = functools.partial(self._on_restart, model, shard.name, reason)
            if not shard.restart(announce):
                continue
            restarted += 1
            self.restarts_performed += 1
        return restarted
