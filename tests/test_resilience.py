"""Tests of the resilience layer: injection, retry, breakers, deadlines,
supervision.

Covers the acceptance surface of the robustness PR:

* :class:`FaultInjector` -- seed-replayable fire patterns, ``max_fires`` /
  ``start_after`` budgets, disarm, and the hang-instead-of-raise mode,
* :class:`RetryPolicy` -- deterministic jittered exponential backoff and
  submit-time retries of transient overload refusals,
* :class:`CircuitBreaker` / :class:`BreakerBoard` -- open after N
  consecutive failures, one half-open probe per reset timeout, close on
  success, state gauge + open/close events,
* deadline propagation -- expired requests shed at dispatch and again
  pre-kernel with :class:`DeadlineExceededError`, pending budget released,
* stale-cache degradation -- all breakers open + demoted entry answers
  with ``stale=True``; no entry sheds with :class:`CircuitOpenError`,
* shard supervision (``chaos`` marker) -- injected worker death and hung
  kernels detected, in-flight batches failed terminally, workers restarted
  under the budget, queued work re-dispatched, and
* leak-aware shard shutdown -- ``WorkerShard.stop`` reports a worker that
  outlives its join timeout instead of silently forgetting it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.serve import (
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    ReadyQueue,
    RetryPolicy,
    ServiceConfig,
    ShardSupervisor,
    SupervisorConfig,
    StreamingInferenceService,
    WorkerShard,
)
from repro.serve.cache import CachedOutcome, SignatureLruCache
from repro.serve.resilience import (
    CACHE_CODEC,
    KERNEL_HANG,
    KERNEL_RAISE,
    SHARD_DEATH,
    SWAP_FAILURE,
)
from tests.test_lifecycle import _fit


def _service(classifier, *, injector=None, **config_kwargs):
    """A started one-model service with manual batching control."""
    config_kwargs.setdefault("batch_size", 256)
    config_kwargs.setdefault("max_delay_ms", 60_000.0)
    config_kwargs.setdefault("n_shards", 1)
    config = ServiceConfig(fault_injector=injector, **config_kwargs)
    service = StreamingInferenceService(config=config)
    service.register_model("m", classifier)
    service.start()
    return service


# --------------------------------------------------------------------- #
# Fault injector
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def test_inert_until_armed(self):
        injector = FaultInjector(seed=1)
        assert injector.fires(KERNEL_RAISE) is None
        injector.raise_if(KERNEL_RAISE)  # no spec -> no raise
        assert injector.fired(KERNEL_RAISE) == 0

    def test_same_seed_replays_same_pattern(self):
        def pattern(seed):
            injector = FaultInjector(
                seed=seed, specs=[FaultSpec(KERNEL_RAISE, probability=0.4)]
            )
            return [injector.fires(KERNEL_RAISE) is not None for _ in range(64)]

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # astronomically unlikely to collide

    def test_sites_draw_independent_streams(self):
        injector = FaultInjector(
            seed=3,
            specs=[
                FaultSpec(KERNEL_RAISE, probability=0.5),
                FaultSpec(CACHE_CODEC, probability=0.5),
            ],
        )
        a = [injector.fires(KERNEL_RAISE) is not None for _ in range(64)]
        b = [injector.fires(CACHE_CODEC) is not None for _ in range(64)]
        assert a != b

    def test_max_fires_budget(self):
        injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE, max_fires=2)])
        fired = sum(injector.fires(KERNEL_RAISE) is not None for _ in range(10))
        assert fired == 2
        assert injector.fired(KERNEL_RAISE) == 2
        assert injector.passes(KERNEL_RAISE) == 10

    def test_start_after_skips_warmup(self):
        injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE, start_after=3)])
        fires = [injector.fires(KERNEL_RAISE) is not None for _ in range(6)]
        assert fires == [False, False, False, True, True, True]

    def test_disarm_one_site_and_all(self):
        injector = FaultInjector(
            specs=[FaultSpec(KERNEL_RAISE), FaultSpec(CACHE_CODEC)]
        )
        injector.disarm(KERNEL_RAISE)
        assert injector.fires(KERNEL_RAISE) is None
        assert injector.fires(CACHE_CODEC) is not None
        injector.disarm()
        assert injector.fires(CACHE_CODEC) is None

    def test_raise_if_carries_context(self):
        injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE)])
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.raise_if(KERNEL_RAISE, shard="m/0", model="m")
        assert "kernel_raise" in str(excinfo.value)
        assert "m/0" in str(excinfo.value)

    def test_hang_spec_sleeps_instead_of_raising(self):
        injector = FaultInjector(specs=[FaultSpec(KERNEL_HANG, hang_s=0.05)])
        t0 = time.monotonic()
        injector.raise_if(KERNEL_HANG)  # must not raise
        assert time.monotonic() - t0 >= 0.04

    def test_counts_reports_fired_sites(self):
        injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE, max_fires=3)])
        for _ in range(5):
            injector.fires(KERNEL_RAISE)
        injector.fires(SWAP_FAILURE)  # unarmed: never fires
        assert injector.counts() == {KERNEL_RAISE: 3}

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("")
        with pytest.raises(ConfigurationError):
            FaultSpec(KERNEL_RAISE, probability=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(KERNEL_RAISE, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(KERNEL_RAISE, max_fires=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(KERNEL_RAISE, start_after=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec(KERNEL_RAISE, hang_s=-0.1)


# --------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(3, base_delay_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(3, multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(3, jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(3).delay_s(0)

    def test_deterministic_given_seed(self):
        a = RetryPolicy(5, seed=11)
        b = RetryPolicy(5, seed=11)
        assert [a.delay_s(i) for i in range(1, 6)] == [
            b.delay_s(i) for i in range(1, 6)
        ]

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            6, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.05, jitter=0.0
        )
        delays = [policy.delay_s(i) for i in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(3, base_delay_s=0.01, jitter=0.5, seed=0)
        for _ in range(100):
            delay = policy.delay_s(1)
            assert 0.005 <= delay <= 0.01

    def test_service_retries_transient_overload(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        # max_pending=1: the first admitted request saturates the budget.
        service = _service(
            classifier,
            max_pending=1,
            cache_capacity=0,
            retry=RetryPolicy(8, base_delay_s=0.005, max_delay_s=0.02, jitter=0.0),
        )
        try:
            blocker = service.submit(X[0], model="m")
            releaser = threading.Timer(0.02, service.flush)
            releaser.start()
            # Refused at first (budget full), then admitted once the timer
            # flushes the blocker through the shard.
            second = service.submit(X[1], model="m")
            releaser.join()
            service.flush()
            labels = set(int(v) for v in y)
            assert blocker.result(10.0).label in labels
            assert second.result(10.0).label in labels
            assert service.metrics_snapshot().retries >= 1
            snapshot = service.metrics_snapshot()
            assert snapshot.retries == service.obs.registry.get("serve_retries_total").value
        finally:
            service.stop()

    def test_retry_budget_exhaustion_reraises(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        service = _service(
            classifier,
            max_pending=1,
            cache_capacity=0,
            retry=RetryPolicy(2, base_delay_s=0.001, jitter=0.0),
        )
        try:
            service.submit(X[0], model="m")  # saturates the budget for good
            with pytest.raises(ServiceOverloadedError):
                service.submit(X[1], model="m")
            assert service.metrics_snapshot().retries == 1  # attempt 2 of 2 not retried
        finally:
            service.stop()

    def test_retry_never_sleeps_past_deadline(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        service = _service(
            classifier,
            max_pending=1,
            cache_capacity=0,
            retry=RetryPolicy(50, base_delay_s=0.05, jitter=0.0),
        )
        try:
            service.submit(X[0], model="m")
            t0 = time.monotonic()
            with pytest.raises(ServiceOverloadedError):
                service.submit(X[1], model="m", deadline_s=0.02)
            # A 50-attempt budget at 50ms per backoff would sleep seconds;
            # the deadline must cut it off almost immediately.
            assert time.monotonic() - t0 < 1.0
        finally:
            service.stop()


# --------------------------------------------------------------------- #
# Circuit breakers
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3, reset_timeout_s=1.0))
        assert breaker.state(0.0) == "closed"
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "closed"
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "open"
        assert not breaker.allow(0.5)

    def test_half_open_admits_one_probe_per_timeout(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, reset_timeout_s=1.0))
        breaker.record_failure(0.0)
        assert breaker.state(1.5) == "half_open"
        assert breaker.allow(1.5)  # the probe
        assert not breaker.allow(1.6)  # probe slot consumed
        assert breaker.allow(2.6)  # next probe a full timeout later

    def test_would_allow_does_not_consume_probe(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, reset_timeout_s=1.0))
        breaker.record_failure(0.0)
        assert breaker.would_allow(1.5)
        assert breaker.would_allow(1.5)  # still available
        assert breaker.allow(1.5)  # consuming check still works

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=5, reset_timeout_s=1.0))
        for _ in range(5):
            breaker.record_failure(0.0)
        assert breaker.state(1.5) == "half_open"
        # One failed probe re-opens immediately, well under the threshold.
        assert breaker.record_failure(1.5) == "open"
        assert not breaker.allow(2.0)

    def test_success_closes_and_resets(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2, reset_timeout_s=1.0))
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "open"
        assert breaker.record_success(1.5) == "closed"
        assert breaker.consecutive_failures == 0
        assert breaker.allow(1.6)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(reset_timeout_s=0.0)


class TestBreakerBoard:
    def _board(self, **config_kwargs):
        from repro.obs import Observability

        obs = Observability(sample_every=0)
        clock = {"now": 0.0}
        board = BreakerBoard(
            BreakerConfig(**config_kwargs),
            clock=lambda: clock["now"],
            registry=obs.registry,
            events=obs.events,
        )
        return board, obs, clock

    def test_transitions_emit_events_and_gauge(self):
        board, obs, clock = self._board(failure_threshold=2, reset_timeout_s=1.0)
        board.record("m", "m/0", ok=False)
        board.record("m", "m/0", ok=False)
        assert board.state("m", "m/0") == "open"
        opens = obs.events.events(kind="breaker_open")
        assert len(opens) == 1 and opens[0].fields["shard"] == "m/0"
        gauge = next(
            m
            for m in obs.registry.collect()
            if m.name == "serve_breaker_state" and m.labels_dict.get("shard") == "m/0"
        )
        assert gauge.value == 2.0
        clock["now"] = 1.5
        board.record("m", "m/0", ok=True)
        assert len(obs.events.events(kind="breaker_close")) == 1
        assert board.states() == {"m/m/0": "closed"}

    def test_allow_routes_around_open_breaker(self):
        board, _, clock = self._board(failure_threshold=1, reset_timeout_s=1.0)
        board.record("m", "m/0", ok=False)
        assert not board.allow("m", "m/0")
        assert board.allow("m", "m/1")  # untouched shard implicitly closed
        assert board.would_allow_any("m", ["m/0", "m/1"])
        board.record("m", "m/1", ok=False)
        assert not board.would_allow_any("m", ["m/0", "m/1"])
        clock["now"] = 1.5  # half-open: a probe is available again
        assert board.would_allow_any("m", ["m/0", "m/1"])


class TestBreakerIntegration:
    def test_kernel_failures_open_breaker_then_circuit_error(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE)])  # every batch
        service = _service(
            classifier,
            injector=injector,
            cache_capacity=0,
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=60.0),
            supervisor=None,
        )
        try:
            for i in range(2):
                future = service.submit(X[i], model="m")
                service.flush()
                with pytest.raises(InjectedFaultError):
                    future.result(10.0)
            assert service._board.state("m", "m/0") == "open"
            # Every shard breaker open + nothing cached -> shed at submit.
            with pytest.raises(CircuitOpenError):
                service.submit(X[2], model="m")
            assert service.pending_requests == 0
        finally:
            service.stop()

    def test_stale_cache_degradation_when_all_breakers_open(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(
            specs=[FaultSpec(KERNEL_RAISE, start_after=1)]  # first batch succeeds
        )
        service = _service(
            classifier,
            injector=injector,
            breaker=BreakerConfig(failure_threshold=1, reset_timeout_s=60.0),
            supervisor=None,
        )
        try:
            # Seed the cache with a healthy answer...
            future = service.submit(X[0], model="m")
            service.flush()
            fresh = future.result(10.0)
            # ...then demote it to the stale tier (as a swap would) and trip
            # the only shard's breaker with an injected kernel failure.
            service.cache.invalidate_model("m")
            failing = service.submit(X[1], model="m")
            service.flush()
            with pytest.raises(InjectedFaultError):
                failing.result(10.0)
            assert service._board.state("m", "m/0") == "open"
            degraded = service.submit(X[0], model="m").result(10.0)
            assert degraded.stale and degraded.cached
            assert degraded.label == fresh.label
            assert service.metrics_snapshot().stale_hits == 1
            # A signature with no stale entry still sheds.
            with pytest.raises(CircuitOpenError):
                service.submit(X[2], model="m")
        finally:
            service.stop()


# --------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_expired_requests_shed_at_dispatch(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        service = _service(classifier, cache_capacity=0)
        try:
            doomed = service.submit(X[0], model="m", deadline_s=0.005)
            alive = service.submit(X[1], model="m")  # no deadline
            time.sleep(0.03)
            service.flush()
            with pytest.raises(DeadlineExceededError):
                doomed.result(10.0)
            assert alive.result(10.0).label in set(int(v) for v in y)
            assert service.metrics_snapshot().deadline_exceeded == 1
            assert service.pending_requests == 0  # budget fully released
        finally:
            service.stop()

    def test_default_deadline_from_config(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        service = _service(classifier, cache_capacity=0, default_deadline_s=0.005)
        try:
            doomed = service.submit(X[0], model="m")
            time.sleep(0.03)
            service.flush()
            with pytest.raises(DeadlineExceededError):
                doomed.result(10.0)
        finally:
            service.stop()

    def test_pre_kernel_shed_in_shard(self, cluster_data):
        """A request that expires while queued behind a hung kernel is shed
        by the shard just before launch, not scored pointlessly."""
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(
            specs=[FaultSpec(KERNEL_HANG, hang_s=0.08, max_fires=1)]
        )
        service = _service(classifier, injector=injector, cache_capacity=0)
        try:
            hung = service.submit(X[0], model="m")  # hangs 80ms in the kernel
            service.flush()
            doomed = service.submit(X[1], model="m", deadline_s=0.02)
            service.flush()  # queued behind the hung batch; expires waiting
            assert hung.result(10.0).label in set(int(v) for v in y)
            with pytest.raises(DeadlineExceededError):
                doomed.result(10.0)
            assert service.metrics_snapshot().deadline_exceeded == 1
            assert service.pending_requests == 0
        finally:
            service.stop()

    def test_deadline_error_fans_out_to_followers(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        service = _service(classifier, cache_capacity=0)
        try:
            primary = service.submit(X[0], model="m", deadline_s=0.005)
            follower = service.submit(X[0], model="m")  # dedups onto primary
            assert service.metrics_snapshot().dedup_hits == 1
            time.sleep(0.03)
            service.flush()
            with pytest.raises(DeadlineExceededError):
                primary.result(10.0)
            with pytest.raises(DeadlineExceededError):
                follower.result(10.0)
        finally:
            service.stop()


# --------------------------------------------------------------------- #
# Cache fault tolerance + stale tier
# --------------------------------------------------------------------- #
class TestCacheResilience:
    def test_cache_get_fault_degrades_to_miss(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(specs=[FaultSpec(CACHE_CODEC)])
        service = _service(classifier, injector=injector)
        try:
            future = service.submit(X[0], model="m")
            service.flush()
            assert future.result(10.0).label in set(int(v) for v in y)
            assert service.metrics_snapshot().cache_errors >= 1
        finally:
            service.stop()

    def test_cache_write_fault_loses_only_the_memoisation(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector()
        service = _service(classifier, injector=injector)
        try:
            futures = service.submit_many(X[:6], model="m")
            injector.arm(FaultSpec(CACHE_CODEC, max_fires=1))  # the batch's one write
            service.flush()
            labels = [future.result(10.0).label for future in futures]
            assert labels == classifier.predict(X[:6]).tolist()
            assert injector.fired(CACHE_CODEC) == 1
            assert service.metrics_snapshot().cache_errors == 1
            assert len(service.cache) == 0 and service.pending_requests == 0
            again = service.submit_many(X[:6], model="m")
            service.flush()  # the kernel answers again, and the answers are memoised
            assert [future.result(10.0).cached for future in again] == [False] * 6
            assert len(service.cache) == 6
        finally:
            service.stop()

    @pytest.mark.parametrize("with_breakers", [False, True], ids=["no_breakers", "breakers"])
    def test_only_a_service_with_breakers_keeps_a_stale_tier(self, cluster_data, with_breakers):
        # Only breakers read the stale tier (get_stale), so without them an
        # eviction or a swap's invalidation drops the entry instead.
        X, y = cluster_data
        classifier = _fit(X, y)
        breaker = BreakerConfig(failure_threshold=3, reset_timeout_s=60.0)
        service = _service(
            classifier, cache_capacity=4, breaker=breaker if with_breakers else None
        )
        try:
            futures = service.submit_many(X[:10], model="m")
            service.flush()
            assert [f.result(10.0).label for f in futures] == classifier.predict(X[:10]).tolist()
            assert service.cache.evictions == 6  # ten rows through four slots
            service.swap_model("m", classifier)
            assert len(service.cache) == 0
            # With breakers the tier holds its capacity: the last demotions.
            assert len(service.cache._stale) == (4 if with_breakers else 0)
        finally:
            service.stop()

    def test_lru_eviction_demotes_to_stale_tier(self):
        cache = SignatureLruCache(capacity=1, stale_capacity=4)
        outcome = CachedOutcome(1, 2, 3.0, False, 0.9)
        cache.put("m", b"a", outcome)
        cache.put("m", b"b", CachedOutcome(2, 3, 4.0, False, 0.8))
        assert cache.get("m", b"a") is None  # evicted from the live tier
        assert cache.get_stale("m", b"a") == outcome
        assert cache.stale_hits == 1

    def test_stale_tier_bounded(self):
        cache = SignatureLruCache(capacity=1, stale_capacity=2)
        for i in range(5):
            cache.put("m", bytes([i]), CachedOutcome(i, i, 0.0, False, 1.0))
        assert cache.get_stale("m", bytes([0])) is None  # aged out
        assert cache.get_stale("m", bytes([3])) is not None

    def test_get_stale_prefers_live_entry(self):
        cache = SignatureLruCache(capacity=4)
        live = CachedOutcome(1, 1, 1.0, False, 1.0)
        cache.put("m", b"k", live)
        assert cache.get_stale("m", b"k") == live
        assert cache.stale_hits == 0  # a live answer is not a stale hit


# --------------------------------------------------------------------- #
# Swap failure injection
# --------------------------------------------------------------------- #
class TestSwapFailure:
    def test_failed_swap_keeps_old_model_serving(self, cluster_data):
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9)
        injector = FaultInjector(specs=[FaultSpec(SWAP_FAILURE, max_fires=1)])
        service = _service(old, injector=injector)
        try:
            with pytest.raises(InjectedFaultError):
                service.swap_model("m", new)
            assert service.registry.classifier("m") is old
            future = service.submit(X[0], model="m")
            service.flush()
            assert future.result(10.0).label in set(int(v) for v in y)
            # The injected failure is spent: the retried swap succeeds.
            assert service.swap_model("m", new) is old
            assert service.registry.classifier("m") is new
        finally:
            service.stop()


# --------------------------------------------------------------------- #
# Shard supervision (chaos)
# --------------------------------------------------------------------- #
@pytest.mark.chaos
class TestShardSupervision:
    def test_injected_death_restarts_worker_and_fails_batch(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(specs=[FaultSpec(SHARD_DEATH, max_fires=1)])
        service = _service(
            classifier,
            injector=injector,
            cache_capacity=0,
            supervisor=SupervisorConfig(
                interval_s=0.01, hang_timeout_s=5.0, max_restarts=3
            ),
        )
        try:
            doomed = service.submit(X[0], model="m")
            service.flush()  # the worker dies with this batch in hand
            with pytest.raises(ShardFailedError):
                doomed.result(10.0)
            # The replacement worker serves the next request normally.
            survivor = service.submit(X[1], model="m")
            service.flush()
            assert survivor.result(10.0).label in set(int(v) for v in y)
            assert service.metrics_snapshot().shard_restarts == 1
            restarts = service.obs.events.events(kind="shard_restart")
            assert len(restarts) == 1 and restarts[0].fields["reason"] == "died"
            assert service.pending_requests == 0
        finally:
            service.stop()

    def test_wedged_worker_abandoned_and_replaced(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(
            specs=[FaultSpec(KERNEL_HANG, hang_s=0.5, max_fires=1)]
        )
        service = _service(
            classifier,
            injector=injector,
            cache_capacity=0,
            supervisor=SupervisorConfig(
                interval_s=0.01, hang_timeout_s=0.05, max_restarts=3
            ),
        )
        try:
            wedged = service.submit(X[0], model="m")
            service.flush()
            # The watchdog must declare the worker wedged long before the
            # 500ms sleep finishes, fail the batch and start a replacement.
            with pytest.raises(ShardFailedError) as excinfo:
                wedged.result(5.0)
            assert "wedged" in str(excinfo.value)
            survivor = service.submit(X[1], model="m")
            service.flush()
            assert survivor.result(10.0).label in set(int(v) for v in y)
            assert service.metrics_snapshot().shard_restarts == 1
            assert service.pending_requests == 0
        finally:
            service.stop()

    def test_restart_budget_exhaustion_disables_shard(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        # Every dequeued batch kills the worker: the shard burns through its
        # restart budget and must be disabled, not restarted forever.
        injector = FaultInjector(specs=[FaultSpec(SHARD_DEATH)])
        service = _service(
            classifier,
            injector=injector,
            cache_capacity=0,
            supervisor=SupervisorConfig(
                interval_s=0.01, hang_timeout_s=5.0, max_restarts=2
            ),
        )
        try:
            _, shard = service.registry.iter_shards()[0]
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not shard.disabled:
                future = service.submit(X[0], model="m")
                service.flush()
                # ShardFailedError while the worker keeps dying; once the
                # shard is disabled the dispatch path sheds the batch with
                # CircuitOpenError (a ServiceOverloadedError subclass).
                with pytest.raises((ShardFailedError, ServiceOverloadedError)):
                    future.result(10.0)
            assert shard.disabled, "shard was never disabled"
            assert service.metrics_snapshot().shard_restarts == 2
            assert len(service.obs.events.events(kind="shard_disabled")) == 1
            assert service.pending_requests == 0
        finally:
            service.stop()

    def test_supervisor_scan_is_drivable_synchronously(self, cluster_data):
        """The watchdog logic is testable without its thread: a dead worker
        plus one scan() call equals one restart."""
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(specs=[FaultSpec(SHARD_DEATH, max_fires=1)])
        service = _service(classifier, injector=injector, supervisor=None)
        try:
            supervisor = ShardSupervisor(
                service.registry,
                config=SupervisorConfig(interval_s=1.0, hang_timeout_s=5.0),
            )
            future = service.submit(X[0], model="m")
            service.flush()
            _, shard = service.registry.iter_shards()[0]
            deadline = time.monotonic() + 5.0
            while shard.thread_alive and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not shard.thread_alive
            assert supervisor.scan() == 1
            assert supervisor.restarts_performed == 1
            with pytest.raises(ShardFailedError):
                future.result(1.0)
            assert shard.thread_alive  # replacement running
        finally:
            service.stop()


# --------------------------------------------------------------------- #
# Leak-aware shutdown (satellite: stop() must report a wedged worker)
# --------------------------------------------------------------------- #
class TestLeakAwareStop:
    def test_stop_reports_wedged_worker_as_leak(self, cluster_data, caplog):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(
            specs=[FaultSpec(KERNEL_HANG, hang_s=0.4, max_fires=1)]
        )
        done = threading.Event()
        ready = ReadyQueue()
        shard = WorkerShard(
            "m/0",
            classifier,
            lambda s, b, p: done.set(),
            ready,
            fault_injector=injector,
        )
        shard.start()
        from tests.test_lifecycle import _direct_batch

        _, batch = _direct_batch("m", X[0])
        assert ready.put(batch)
        time.sleep(0.05)  # let the worker enter the hung kernel
        with caplog.at_level("WARNING", logger="repro.serve.shard"):
            assert shard.stop(timeout=0.05) is False
        assert shard.leaked
        assert any("leaked" in r.getMessage() for r in caplog.records)
        done.wait(2.0)  # the sleep ends; let the thread finish cleanly

    def test_clean_stop_reports_no_leak(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        shard = WorkerShard("m/0", classifier, lambda s, b, p: None, ReadyQueue())
        shard.start()
        assert shard.stop(timeout=5.0) is True
        assert not shard.leaked
