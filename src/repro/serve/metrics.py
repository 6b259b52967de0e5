"""Service telemetry: latency percentiles, batch fill, cache and queues.

Production serving lives and dies by a handful of signals, and the paper's
throughput story (Table IV / figure 6) is exactly such a signal for the
FPGA.  This module keeps the software service honest the same way:

* request latency (submit-to-resolve) with p50/p95/p99/p999 percentiles
  estimated from a fixed-bucket histogram (no raw samples stored),
* batch fill -- how close the micro-batcher gets to its configured batch
  size, the lever that trades latency for throughput,
* cache hit rate, mirrored from the signature LRU cache, and
* per-model ready-queue depth plus a count of backpressure rejections.

Every counter and the latency histogram live in the service's
:class:`repro.obs.MetricRegistry` under stable ``serve_*`` names (in
seconds -- milliseconds appear only in rendered snapshots): the service
registers them once and increments them directly, and
:meth:`MetricsSnapshot.read` reads them back through
:meth:`~repro.obs.MetricRegistry.get`.  The ready-queue depth gauges are
callbacks the model registry registers per model
(:meth:`~repro.serve.registry.ModelRegistry.bind_metrics`), read live at
collection.  The JSONL and Prometheus
exporters in :mod:`repro.obs.export` therefore see the service's telemetry
without any serve-specific glue.

Registry metric names (the vocabulary every exporter writes):

==========================================  =========  =======================
``serve_requests_total``                    counter    requests accepted
``serve_responses_total``                   counter    requests resolved
``serve_cache_hits_total``                  counter    signature-cache hits
``serve_cache_misses_total``                counter    signature-cache misses
``serve_dedup_hits_total``                  counter    in-flight coalesces
``serve_model_swaps_total``                 counter    zero-drop hot-swaps
``serve_backpressure_rejections_total``     counter    requests shed by load
``serve_batches_total``                     counter    batches dispatched to shards
``serve_batch_fill_fraction_sum``           counter    summed fill fractions
``serve_batch_size_sum``                    counter    summed batch sizes
``serve_request_latency_seconds``           histogram  submit-to-resolve
``serve_shard_queue_depth{model=...}``      gauge      ready-queue batches
``serve_retries_total``                     counter    submit retries (backoff)
``serve_deadline_exceeded_total``           counter    requests shed past deadline
``serve_stale_hits_total``                  counter    stale-cache degradations
``serve_shard_restarts_total``              counter    supervisor restarts
``serve_cache_errors_total``                counter    cache faults -> miss
``serve_shard_leaks_total``                 counter    wedged threads at stop
``serve_breaker_state{model,shard}``        gauge      0 closed/1 half/2 open
``serve_shadow_requests_total{model}``      counter    requests mirrored to shadow
``serve_shadow_disagreements_total{model}`` counter    shadow/primary disagreements
``serve_shadow_dropped_total{model}``       counter    mirrors shed (queue full)
``serve_rollout_promotions_total``          counter    candidates promoted
``serve_rollout_demotions_total``           counter    candidates demoted
``serve_rollout_rollbacks_total``           counter    ring rollbacks applied
``serve_rollout_promote_failures_total``    counter    promote swaps that failed
``serve_rollout_stage{model}``              gauge      rollout stage code
==========================================  =========  =======================

(The breaker-state gauge is owned by
:class:`repro.serve.resilience.BreakerBoard`, the shadow/rollout series by
:class:`repro.serve.rollout.RolloutManager` -- stage codes are
:data:`repro.serve.rollout.ROLLOUT_STAGE_CODES`; they live in the same
registry so exporters see them alongside the counters above.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricRegistry, read_consistent


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time view of the service's health.

    Attributes
    ----------
    requests_total:
        Requests accepted (cache hits included).
    responses_total:
        Requests resolved with a classification.
    cache_hits, cache_misses, cache_hit_rate:
        Signature-cache effectiveness.
    dedup_hits:
        Requests answered by fanning out another identical in-flight
        request's kernel execution (cross-request deduplication).  Counted
        separately from cache hits: the cache answers *completed*
        signatures, dedup coalesces *concurrent* ones.
    model_swaps:
        Hot-swaps (:meth:`StreamingInferenceService.swap_model`) performed.
    backpressure_rejections:
        Requests shed by load: refused at the pending budget, or failed
        because every circuit of their model was open.
    batches_total:
        Micro-batches dispatched to shards: taken by a model's ready queue.
    mean_batch_fill:
        Average fill fraction of dispatched batches (1.0 = always full).
    mean_batch_size:
        Average number of requests per dispatched batch.
    latency_p50_ms, latency_p95_ms, latency_p99_ms, latency_p999_ms:
        Percentile estimates from the latency histogram, rendered in
        milliseconds (stored in seconds internally).
    retries:
        Submit attempts re-tried under the backoff policy after a
        transient :class:`~repro.errors.ServiceOverloadedError`.
    deadline_exceeded:
        Requests shed because their ``deadline_s`` budget expired before a
        kernel could score them.
    stale_hits:
        Requests answered from the stale cache tier while every shard
        breaker of their model was open (graceful degradation).
    shard_restarts:
        Dead/wedged workers replaced by the shard supervisor.
    cache_errors:
        Cache get/put faults degraded to misses (request still served).
    shard_leaks:
        Worker threads that failed to join at stop (wedged past timeout).
    queue_depths:
        Batches waiting in each model's ready queue at snapshot time.
    """

    requests_total: int
    responses_total: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    dedup_hits: int
    model_swaps: int
    backpressure_rejections: int
    batches_total: int
    mean_batch_fill: float
    mean_batch_size: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_p999_ms: float = 0.0
    retries: int = 0
    deadline_exceeded: int = 0
    stale_hits: int = 0
    shard_restarts: int = 0
    cache_errors: int = 0
    shard_leaks: int = 0
    queue_depths: dict[str, int] = field(default_factory=dict)

    @classmethod
    def read(
        cls, registry: MetricRegistry, queue_depths: dict[str, int]
    ) -> "MetricsSnapshot":
        """Read a service's ``serve_*`` metrics from ``registry``, with
        ``queue_depths`` (batches waiting per model, sampled by the caller).
        """
        def count(name: str) -> int:
            return int(registry.get(name).value)

        hits, misses = (
            int(value)
            for value in read_consistent(
                registry.get("serve_cache_hits_total"),
                registry.get("serve_cache_misses_total"),
            )
        )
        batches = count("serve_batches_total")
        fill_sum = registry.get("serve_batch_fill_fraction_sum").value
        size_sum = registry.get("serve_batch_size_sum").value
        latency = registry.get("serve_request_latency_seconds")
        return cls(
            requests_total=count("serve_requests_total"),
            responses_total=count("serve_responses_total"),
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            dedup_hits=count("serve_dedup_hits_total"),
            model_swaps=count("serve_model_swaps_total"),
            backpressure_rejections=count("serve_backpressure_rejections_total"),
            batches_total=batches,
            mean_batch_fill=fill_sum / batches if batches else 0.0,
            mean_batch_size=size_sum / batches if batches else 0.0,
            latency_p50_ms=latency.quantile(0.50) * 1e3,
            latency_p95_ms=latency.quantile(0.95) * 1e3,
            latency_p99_ms=latency.quantile(0.99) * 1e3,
            latency_p999_ms=latency.quantile(0.999) * 1e3,
            retries=count("serve_retries_total"),
            deadline_exceeded=count("serve_deadline_exceeded_total"),
            stale_hits=count("serve_stale_hits_total"),
            shard_restarts=count("serve_shard_restarts_total"),
            cache_errors=count("serve_cache_errors_total"),
            shard_leaks=count("serve_shard_leaks_total"),
            queue_depths=dict(queue_depths),
        )
