"""Streaming inference service for multi-camera deployments.

The paper deploys one bSOM behind one camera; this subpackage scales the
reproduction toward the ROADMAP's many-camera, heavy-traffic goal.  The
moving parts, front to back:

* :mod:`repro.serve.request` -- request/response values and the small
  future (:class:`PendingResult`) a caller waits on,
* :mod:`repro.serve.batching` -- the micro-batching scheduler: size- and
  deadline-bounded batches per model, so many single-signature requests
  are scored in one vectorised ``predict_batch`` call,
* :mod:`repro.serve.cache` -- an LRU cache keyed on packed signatures;
  repeated silhouettes skip the SOM entirely,
* :mod:`repro.serve.shard` -- thread-backed worker shards that pull cut
  batches from one ready queue per model,
* :mod:`repro.serve.registry` -- named model snapshots
  (:class:`~repro.core.snapshot.ModelSnapshot` or fitted classifiers),
  each behind its own shard group, with zero-drop hot-reload
  (:meth:`ModelRegistry.swap`) and fail-fast eviction,
* :mod:`repro.serve.metrics` -- the ``serve_*`` metric vocabulary and
  :class:`MetricsSnapshot`, read straight from the service's
  :class:`repro.obs.MetricRegistry` (latency percentiles, batch fill,
  cache hit-rate, dedup fan-out, swap and queue-depth telemetry) -- the
  exporters in :mod:`repro.obs.export` scrape the same registry
  (per-request traces and lifecycle events live in :mod:`repro.obs` too),
* :mod:`repro.serve.service` -- the front-end wiring it all together with
  backpressure and cross-request deduplication of identical in-flight
  signatures,
* :mod:`repro.serve.resilience` -- the always-on safety net: per-request
  deadlines, retry with jittered backoff, per-(model, shard) circuit
  breakers with stale-cache degradation, a shard supervisor that restarts
  dead/wedged workers, and the deterministic :class:`FaultInjector` the
  chaos gate (``scripts/check_resilience.py``) drives them with,
* :mod:`repro.serve.rollout` -- guarded model rollouts: candidates shadow
  live traffic (:class:`ShadowEvaluator`), optionally take a seeded canary
  split (:meth:`ModelRegistry.set_route`), and are promoted or demoted by
  a :class:`RolloutPolicy`, with a bounded rollback ring of replaced
  versions (``scripts/check_rollout.py`` is the gate).

The package ships no load generator: the repository benchmark
(``perfbench/``) drives and times load, and the stateful property test
``ServeMachine`` (``tests/test_settle.py``) checks the serve invariants
over seeded sequences of submits, swaps, evictions, rollouts and faults.

Quick start (see :mod:`repro.api` for the full lifecycle facade)
----------------------------------------------------------------
>>> from repro.serve import ServiceConfig, StreamingInferenceService
>>> service = StreamingInferenceService(config=ServiceConfig(batch_size=16))
>>> service.register_model("hall", fitted_classifier)       # doctest: +SKIP
>>> with service:                                           # doctest: +SKIP
...     future = service.submit(signature, model="hall", stream_id="cam-0")
...     response = future.result()
...     service.swap_model("hall", new_snapshot)  # zero-drop hot-reload
"""

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    ModelEvictedError,
    ResultTimeoutError,
    ShardFailedError,
    SnapshotCorruptionError,
    UnknownModelError,
)
from repro.serve.batching import MicroBatch, MicroBatchScheduler
from repro.serve.cache import CachedOutcome, SignatureLruCache
from repro.serve.metrics import MetricsSnapshot
from repro.serve.registry import ModelRegistry, ModelSource, TrafficRoute
from repro.serve.request import (
    ClassificationRequest,
    ClassificationResponse,
    PendingResult,
)
from repro.serve.resilience import (
    CACHE_CODEC,
    FAULT_SITES,
    KERNEL_HANG,
    KERNEL_RAISE,
    PROMOTE_FAILURE,
    SHARD_DEATH,
    SNAPSHOT_CORRUPT,
    SWAP_FAILURE,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.serve.rollout import (
    ROLLOUT_STAGE_CODES,
    RolloutConfig,
    RolloutManager,
    RolloutPolicy,
    RolloutStatus,
    ShadowEvaluator,
    ShadowStats,
)
from repro.serve.service import ServiceConfig, StreamingInferenceService
from repro.serve.shard import ReadyQueue, ShardGroup, WorkerShard

__all__ = [
    "MicroBatch",
    "MicroBatchScheduler",
    "CachedOutcome",
    "SignatureLruCache",
    "MetricsSnapshot",
    "ModelRegistry",
    "ModelSource",
    "TrafficRoute",
    "ModelEvictedError",
    "UnknownModelError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "InjectedFaultError",
    "ResultTimeoutError",
    "ShardFailedError",
    "SnapshotCorruptionError",
    "ClassificationRequest",
    "ClassificationResponse",
    "PendingResult",
    "CACHE_CODEC",
    "FAULT_SITES",
    "KERNEL_HANG",
    "KERNEL_RAISE",
    "PROMOTE_FAILURE",
    "SHARD_DEATH",
    "SNAPSHOT_CORRUPT",
    "SWAP_FAILURE",
    "BreakerBoard",
    "BreakerConfig",
    "CircuitBreaker",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "ShardSupervisor",
    "SupervisorConfig",
    "ROLLOUT_STAGE_CODES",
    "RolloutConfig",
    "RolloutManager",
    "RolloutPolicy",
    "RolloutStatus",
    "ShadowEvaluator",
    "ShadowStats",
    "ServiceConfig",
    "StreamingInferenceService",
    "ReadyQueue",
    "ShardGroup",
    "WorkerShard",
]
