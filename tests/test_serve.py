"""Tests of the streaming inference service subsystem (:mod:`repro.serve`).

Covers the acceptance surface named in the issue: scheduler deadline/size
flush behaviour, registry load/route/evict, LRU cache correctness under
eviction, backpressure rejection paths, and the end-to-end service with
concurrent simulated camera streams (including the pipeline attachment).
"""

from __future__ import annotations

import collections
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import BinarySom, SomClassifier, save_model
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DataError,
    ResultTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
    UnknownModelError,
)
from repro.obs.export import metrics_record
from repro.obs.metrics import MetricRegistry
from repro.serve import (
    KERNEL_HANG,
    CachedOutcome,
    FaultInjector,
    FaultSpec,
    MicroBatch,
    MicroBatchScheduler,
    ModelRegistry,
    ServiceConfig,
    SignatureLruCache,
    StreamingInferenceService,
)
from repro.serve.request import (
    ClassificationRequest,
    ClassificationResponse,
    PendingResult,
)
from repro.serve.shard import ShardGroup
from repro.signatures import packed_signature_words, signature_key


class FakeClock:
    """Manually stepped monotonic clock for deterministic deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _request(
    model: str = "m", fill: int = 0, signature: np.ndarray | None = None
) -> ClassificationRequest:
    if signature is None:
        signature = np.full(16, fill % 2, dtype=np.uint8)
    return ClassificationRequest(
        packed=packed_signature_words(signature),
        model=model,
        stream_id="cam",
        request_id=fill,
        cache_key=bytes([fill % 256]),
        enqueued_at=0.0,
    )


def _batch(signature: np.ndarray, index: int, model: str = "m") -> MicroBatch:
    """A one-request batch, cut as if by size."""
    request = _request(model, fill=index, signature=signature)
    return MicroBatch(model, (request,), capacity=1, flushed_by="size")


# --------------------------------------------------------------------- #
# Micro-batch scheduler
# --------------------------------------------------------------------- #
class TestMicroBatchScheduler:
    def test_size_triggered_flush(self):
        scheduler = MicroBatchScheduler(batch_size=3, max_delay_s=10.0, clock=FakeClock())
        assert scheduler.submit([_request(fill=0)])[0] == []
        assert scheduler.submit([_request(fill=1)])[0] == []
        (batch,), _ = scheduler.submit([_request(fill=2)])
        assert len(batch) == 3 and batch.flushed_by == "size"
        assert batch.fill_fraction == 1.0
        assert scheduler.pending_count() == 0

    def test_deadline_triggered_flush(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(batch_size=8, max_delay_s=0.5, clock=clock)
        scheduler.submit([_request(fill=0)])
        assert scheduler.due() == []  # not yet due
        clock.advance(0.4)
        assert scheduler.due() == []
        clock.advance(0.2)
        (batch,) = scheduler.due()
        assert batch.flushed_by == "deadline" and len(batch) == 1
        assert batch.fill_fraction == pytest.approx(1 / 8)

    def test_deadline_measured_from_oldest_request(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(batch_size=8, max_delay_s=0.5, clock=clock)
        scheduler.submit([_request(fill=0)])
        clock.advance(0.4)
        scheduler.submit([_request(fill=1)])  # newer request must not reset the clock
        assert scheduler.next_deadline() == pytest.approx(0.5)
        clock.advance(0.1)
        (batch,) = scheduler.due()
        assert len(batch) == 2

    def test_per_model_lanes_are_independent(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(batch_size=2, max_delay_s=1.0, clock=clock)
        scheduler.submit([_request(model="a", fill=0)])
        batches, _ = scheduler.submit([_request(model="b", fill=1)])
        assert batches == []  # two lanes, neither full
        (full,), _ = scheduler.submit([_request(model="a", fill=2)])
        assert full.model == "a"
        assert scheduler.pending_count("b") == 1

    def test_drain_cuts_everything(self):
        scheduler = MicroBatchScheduler(batch_size=8, max_delay_s=1.0, clock=FakeClock())
        scheduler.submit([_request(model="a")])
        scheduler.submit([_request(model="b")])
        batches = scheduler.drain()
        assert {batch.model for batch in batches} == {"a", "b"}
        assert all(batch.flushed_by == "drain" for batch in batches)
        assert scheduler.next_deadline() is None

    def test_block_cuts_full_batches_in_order(self):
        scheduler = MicroBatchScheduler(batch_size=3, max_delay_s=1.0, clock=FakeClock())
        block = [_request(fill=index) for index in range(7)]
        batches, opened = scheduler.submit(block)
        assert [[r.request_id for r in b.requests] for b in batches] == [
            [0, 1, 2], [3, 4, 5]
        ]
        assert all(batch.flushed_by == "size" for batch in batches)
        assert opened and scheduler.pending_count() == 1

    def test_opened_only_when_the_block_leaves_a_lane_it_opened(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(batch_size=2, max_delay_s=1.0, clock=clock)
        # Filling the lane it opened leaves nothing to wait for.
        assert scheduler.submit([_request(fill=0), _request(fill=1)])[1] is False
        assert scheduler.submit([_request(fill=2)])[1] is True
        # Joining a lane that is already open starts no new deadline.
        clock.advance(0.3)
        batches, opened = scheduler.submit([_request(fill=3)])
        assert len(batches) == 1 and not opened
        # ... unless the block cuts it and opens it again.
        scheduler.submit([_request(fill=4)])
        assert scheduler.submit([_request(fill=5), _request(fill=6)])[1] is True

    def test_deadline_runs_from_the_opening_request_enqueued_at(self):
        clock = FakeClock()
        clock.advance(10.0)
        scheduler = MicroBatchScheduler(batch_size=8, max_delay_s=0.5, clock=clock)
        early = _request(fill=0)
        early.enqueued_at = 9.8  # the block arrived before it reached its lane
        scheduler.submit([early, _request(fill=1)])
        assert scheduler.next_deadline() == pytest.approx(10.3)
        clock.advance(0.3)
        (batch,) = scheduler.due()
        assert len(batch) == 2 and batch.flushed_by == "deadline"

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatchScheduler(batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatchScheduler(max_delay_s=0.0)


# --------------------------------------------------------------------- #
# Signature LRU cache
# --------------------------------------------------------------------- #
class TestSignatureLruCache:
    def _outcome(self, label: int) -> CachedOutcome:
        return CachedOutcome(
            label=label, neuron=0, distance=1.0, rejected=False, confidence=1.0
        )

    def test_hit_miss_accounting(self):
        cache = SignatureLruCache(capacity=4)
        assert cache.get("m", b"a") is None
        cache.put("m", b"a", self._outcome(1))
        assert cache.get("m", b"a").label == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_least_recently_used(self):
        cache = SignatureLruCache(capacity=2)
        cache.put("m", b"a", self._outcome(1))
        cache.put("m", b"b", self._outcome(2))
        assert cache.get("m", b"a") is not None  # refresh "a"
        cache.put("m", b"c", self._outcome(3))  # evicts "b", not "a"
        assert cache.get("m", b"b") is None
        assert cache.get("m", b"a") is not None
        assert cache.get("m", b"c") is not None
        assert cache.evictions == 1 and len(cache) == 2

    def test_models_do_not_share_entries(self):
        cache = SignatureLruCache(capacity=4)
        cache.put("m1", b"a", self._outcome(1))
        assert cache.get("m2", b"a") is None
        cache.put("m2", b"a", self._outcome(2))
        assert cache.get("m1", b"a").label == 1
        assert cache.invalidate_model("m1") == 1
        assert cache.get("m1", b"a") is None
        assert cache.get("m2", b"a").label == 2

    def test_batch_packing_rows_equal_cache_keys(self, cluster_data):
        from repro.signatures import pack_signature_batch

        X, _ = cluster_data
        packed = pack_signature_batch(X[:16])
        for row in range(16):
            assert packed[row].tobytes() == signature_key(X[row])

    @pytest.mark.parametrize("capacity", [0, 16, 3], ids=["disabled", "below", "across"])
    def test_a_batch_write_leaves_what_one_write_per_row_leaves(self, capacity):
        def state(cache):
            with cache._lock:
                return list(cache._entries.items()), list(cache._stale.items()), cache.evictions

        # Rows 0-5, one of them already live and one written twice.
        keys = [bytes([i]) for i in (0, 1, 2, 3, 1, 4, 5)]
        outcomes = [self._outcome(label) for label in range(len(keys))]
        batched, one_by_one = (SignatureLruCache(capacity, stale_capacity=2) for _ in "ab")
        for cache in (batched, one_by_one):
            cache.put("m", b"\x03", self._outcome(90))
            cache.put("other", b"\x00", self._outcome(91))
        batched.put_many("m", keys, outcomes)
        for key, outcome in zip(keys, outcomes):
            one_by_one.put("m", key, outcome)
        assert state(batched) == state(one_by_one)
        entries, stale, evictions = state(batched)
        if capacity == 0:
            assert entries == stale == [] and evictions == 0
        elif capacity == 16:
            assert [key for key, _ in entries] == [
                ("other", b"\x00"), *(("m", bytes([i])) for i in (0, 2, 3, 1, 4, 5))
            ]
            assert stale == [] and evictions == 0
        else:
            assert [key for key, _ in entries] == [("m", bytes([i])) for i in (1, 4, 5)]
            assert len(stale) == 2 and evictions == 5

    def test_zero_capacity_disables(self):
        cache = SignatureLruCache(capacity=0)
        cache.put("m", b"a", self._outcome(1))
        assert cache.get("m", b"a") is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SignatureLruCache(capacity=-1)


# --------------------------------------------------------------------- #
# Registry: load / route / evict
# --------------------------------------------------------------------- #
class TestModelRegistry:
    @pytest.fixture()
    def fitted(self, trained_bsom_classifier):
        return trained_bsom_classifier

    def test_register_and_lookup(self, fitted):
        registry = ModelRegistry(n_shards=2)
        registry.register("hall", fitted)
        assert "hall" in registry and len(registry) == 1
        assert registry.classifier("hall") is fitted
        with pytest.raises(ConfigurationError):
            registry.register("hall", fitted)  # duplicate name

    def test_unfitted_classifier_rejected(self, cluster_data):
        X, _ = cluster_data
        registry = ModelRegistry()
        with pytest.raises(DataError):
            registry.register("raw", SomClassifier(BinarySom(8, X.shape[1], seed=0)))

    def test_unknown_model_error_names_available(self, fitted):
        registry = ModelRegistry()
        registry.register("hall", fitted)
        with pytest.raises(UnknownModelError) as excinfo:
            registry.group("lobby")
        assert excinfo.value.available == ("hall",)

    def test_load_snapshot_roundtrip(self, fitted, cluster_data, tmp_path):
        X, _ = cluster_data
        path = save_model(fitted, tmp_path / "hall.npz")
        registry = ModelRegistry()
        loaded = registry.load("hall", path)
        np.testing.assert_array_equal(loaded.predict(X), fitted.predict(X))

    def test_load_rejects_bare_map(self, fitted, tmp_path):
        path = save_model(fitted.som, tmp_path / "bare.npz")
        with pytest.raises(DataError):
            ModelRegistry().load("bare", path)

    def test_unstarted_group_queues_any_number_of_batches(self, fitted, cluster_data):
        # 40 batches: more than two 8-deep per-shard queues used to hold.
        X, _ = cluster_data
        registry = ModelRegistry(n_shards=2)
        registry.register("m", fitted)
        batches = [_batch(X[index], index) for index in range(40)]
        for batch in batches:
            registry.submit(batch)
        assert registry.queue_depths() == {"m": 40}
        registry.start()
        try:
            labels = [batch.requests[0].pending.result(10.0).label for batch in batches]
        finally:
            registry.stop()
        np.testing.assert_array_equal(labels, fitted.predict(X[:40]))
        assert registry.queue_depths() == {"m": 0}

    def test_the_enabled_shard_answers_every_batch(self, fitted, cluster_data):
        X, _ = cluster_data
        answered = []
        done = threading.Event()

        def completion(shard, batch, outcome):
            answered.append((shard.name, batch.requests[0].request_id, outcome.labels[0]))
            if len(answered) == 12:
                done.set()

        group = ShardGroup("m", fitted, completion, n_shards=2)
        group.start()
        try:
            # Disabled while its worker waits on the ready queue: the stale
            # worker hands back whatever it reads to the enabled one.
            group.shards[0].disable(ShardFailedError("m/0", "disabled"))
            for index in range(12):
                group.submit(_batch(X[index], index))
            assert done.wait(10.0)
        finally:
            group.stop()
        assert [name for name, *_ in answered] == ["m/1"] * 12
        labels = dict(sorted((index, label) for _, index, label in answered))
        assert list(labels.values()) == list(fitted.predict(X[:12]))

    def test_each_batch_is_delivered_once_under_contention(self, fitted, cluster_data):
        # Four workers and two submitters on two cores, a shard disabled
        # mid-stream: a lost or doubled pop shows as a count other than 1.
        X, _ = cluster_data
        delivered = collections.Counter()
        lock = threading.Lock()

        def completion(shard, batch, outcome):
            with lock:
                delivered.update(request.request_id for request in batch.requests)

        group = ShardGroup("m", fitted, completion, n_shards=4)
        batches = [_batch(X[index % len(X)], index) for index in range(400)]
        submitters = [
            threading.Thread(
                target=lambda part: [group.submit(batch) for batch in part],
                args=(batches[offset::2],),
                name=f"submitter-{offset}",
                daemon=True,
            )
            for offset in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            group.start()
            for thread in submitters:
                thread.start()
            group.shards[0].disable(ShardFailedError("m/0", "disabled"))
            for thread in submitters:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in submitters)
            deadline = time.monotonic() + 10.0
            while sum(delivered.values()) < len(batches) and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            sys.setswitchinterval(interval)
            group.stop()
        assert delivered == collections.Counter(range(len(batches)))

    def test_evict_stops_and_forgets(self, fitted):
        registry = ModelRegistry(n_shards=1)
        registry.register("hall", fitted)
        registry.start()
        evicted = registry.evict("hall")
        assert evicted is fitted
        assert "hall" not in registry
        with pytest.raises(UnknownModelError):
            registry.evict("hall")


# --------------------------------------------------------------------- #
# Backpressure rejection paths
# --------------------------------------------------------------------- #
class TestBackpressure:
    def test_disabling_the_last_enabled_shard_fails_the_ready_queue(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        injector = FaultInjector(specs=[FaultSpec(KERNEL_HANG, hang_s=0.3, max_fires=1)])
        config = ServiceConfig(
            batch_size=1, cache_capacity=0, supervisor=None, fault_injector=injector
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        first, last = service.registry.group("m").shards
        first.disable(ShardFailedError(first.name, "disabled"))  # never starts
        with service:
            wedged = service.submit(X[0], model="m")  # the one enabled worker hangs
            deadline = time.monotonic() + 5.0
            while last.busy_seconds(time.monotonic()) is None:
                assert time.monotonic() < deadline, "the worker never took the batch"
                time.sleep(0.005)
            queued = service.submit_many(X[1:4], model="m")
            assert service.registry.queue_depths() == {"m": 3}
            error = ShardFailedError(last.name, "disabled")
            last.disable(error)
            for future in (wedged, *queued):
                with pytest.raises(ShardFailedError) as excinfo:
                    future.result(5.0)
                assert excinfo.value is error
            assert service.registry.queue_depths() == {"m": 0}
            # No enabled shard left: the next cut batch sheds as an open
            # circuit, and a plain ServiceOverloadedError never appears.
            refused = service.submit(X[4], model="m")
            with pytest.raises(CircuitOpenError):
                refused.result(5.0)
            reasons = [e.fields["reason"] for e in service.obs.events.events(kind="shed")]
            assert reasons == ["circuit_open"]
            assert service.pending_requests == 0

    def test_service_pending_budget(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(
            batch_size=64, max_delay_ms=60_000.0, max_pending=4, cache_capacity=0
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            futures = [
                service.submit(X[i], model="m", stream_id="cam") for i in range(4)
            ]
            with pytest.raises(ServiceOverloadedError):
                service.submit(X[4], model="m", stream_id="cam")
            assert service.metrics_snapshot().backpressure_rejections == 1
            # Shedding load and flushing recovers the budget.
            service.flush()
            responses = [future.result(10.0) for future in futures]
            assert len(responses) == 4
            assert service.pending_requests == 0
            assert service.submit(X[5], model="m").done() is False

    def test_shard_failure_releases_pending_budget(self, cluster_data):
        X, y = cluster_data

        class ExplodingClassifier(SomClassifier):
            def predict_batch(self, batch, *, validate=True):
                raise RuntimeError("boom")

            def predict_batch_packed(self, input_words):
                raise RuntimeError("boom")

        exploding = ExplodingClassifier(BinarySom(16, X.shape[1], seed=0))
        fitted = SomClassifier(BinarySom(16, X.shape[1], seed=0)).fit(
            X, y, epochs=4, seed=1
        )
        exploding.labelling = fitted.labelling
        config = ServiceConfig(batch_size=2, max_delay_ms=2.0, cache_capacity=0)
        service = StreamingInferenceService(config=config)
        service.register_model("m", exploding)
        with service:
            futures = [service.submit(X[i], model="m") for i in range(4)]
            for future in futures:
                with pytest.raises(RuntimeError):
                    future.result(5.0)
            # The failed batches must release their pending-budget slots.
            deadline = time.monotonic() + 5.0
            while service.pending_requests and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.pending_requests == 0

    def test_submit_requires_running_service(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        service = StreamingInferenceService()
        service.register_model("m", trained_bsom_classifier)
        with pytest.raises(ServiceError):
            service.submit(X[0], model="m")

    def test_wrong_signature_width_rejected(self, trained_bsom_classifier):
        service = StreamingInferenceService()
        service.register_model("m", trained_bsom_classifier)
        with service:
            with pytest.raises(ConfigurationError):
                service.submit(np.zeros(8, dtype=np.uint8), model="m")


# --------------------------------------------------------------------- #
# Ready-queue depth gauge
# --------------------------------------------------------------------- #
QUEUE_DEPTH = "serve_shard_queue_depth{model=m}"


class TestQueueDepthGauge:
    def test_exporters_read_the_live_depth_without_a_snapshot(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        injector = FaultInjector(specs=[FaultSpec(KERNEL_HANG, hang_s=0.3, max_fires=1)])
        config = ServiceConfig(
            batch_size=1, cache_capacity=0, n_shards=1, supervisor=None,
            fault_injector=injector,
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        (worker,) = service.registry.group("m").shards
        with service:
            wedged = service.submit(X[0], model="m")  # the one worker hangs
            deadline = time.monotonic() + 5.0
            while worker.busy_seconds(time.monotonic()) is None:
                assert time.monotonic() < deadline, "the worker never took the batch"
                time.sleep(0.005)
            queued = service.submit_many(X[1:4], model="m")
            assert metrics_record(service.obs.registry)[QUEUE_DEPTH] == 3.0
            for future in (wedged, *queued):
                future.result(5.0)
            assert metrics_record(service.obs.registry)[QUEUE_DEPTH] == 0.0

    def test_a_model_registered_again_reports_its_new_queue(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        metrics = MetricRegistry()
        registry = ModelRegistry(n_shards=1)  # never started: batches stay queued
        registry.register("m", trained_bsom_classifier)
        registry.bind_metrics(metrics)  # covers models registered before binding
        for index in range(5):
            registry.submit(_batch(X[index], index))
        assert metrics_record(metrics)[QUEUE_DEPTH] == 5.0
        registry.evict("m")
        assert QUEUE_DEPTH not in metrics_record(metrics)  # the eviction dropped it
        registry.register("m", trained_bsom_classifier)
        for index in range(2):
            registry.submit(_batch(X[index], index))
        assert metrics_record(metrics)[QUEUE_DEPTH] == 2.0
        registry.stop()


# --------------------------------------------------------------------- #
# End-to-end service behaviour
# --------------------------------------------------------------------- #
class TestServiceEndToEnd:
    @pytest.fixture()
    def service(self, trained_bsom_classifier):
        config = ServiceConfig(
            batch_size=8, max_delay_ms=2.0, n_shards=2, cache_capacity=512
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            yield service

    def test_matches_direct_prediction(self, service, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        responses = service.classify("m", X[:50], stream_id="cam-0")
        served = np.array([response.label for response in responses])
        np.testing.assert_array_equal(served, trained_bsom_classifier.predict(X[:50]))
        assert all(
            response.stream_id == "cam-0" and response.model == "m"
            for response in responses
        )

    def test_cache_hits_skip_the_som(self, service, cluster_data):
        X, _ = cluster_data
        first = service.classify("m", X[:1])[0]
        again = service.classify("m", X[:1])[0]
        assert not first.cached and again.cached
        assert again.label == first.label and again.neuron == first.neuron
        assert service.cache.hits >= 1

    def test_unknown_model(self, service, cluster_data):
        X, _ = cluster_data
        with pytest.raises(UnknownModelError):
            service.submit(X[0], model="nope")

    def test_concurrent_streams_through_the_service(self, service, cluster_data):
        X, y = cluster_data
        # Pre-warm the cache with the whole pool so the stream traffic hits
        # it deterministically (an in-flight repeat would otherwise race the
        # completion of its first occurrence).  One block: every row the
        # pending budget admits is answered, however many batches it cuts.
        service.classify("m", X)
        warm_hits = service.cache.hits
        frames = [np.random.default_rng(i).integers(0, len(X), 40) for i in range(4)]
        answers: list[list] = [[] for _ in frames]
        failures: list[Exception] = []

        def camera(i):
            # One submitting thread per camera, as one socket per camera.
            try:
                futures = [
                    service.submit(X[index], model="m", stream_id=f"cam-{i}")
                    for index in frames[i]
                ]
                answers[i] = [future.result(30.0) for future in futures]
            except Exception as error:
                failures.append(error)

        threads = [threading.Thread(target=camera, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert all(len(responses) == 40 for responses in answers)
        # The well-separated cluster data should be recognised near-perfectly.
        for responses, indices in zip(answers, frames):
            correct = [r.label == y[index] for r, index in zip(responses, indices)]
            assert np.mean(correct) > 0.9
        snapshot = service.metrics_snapshot()
        assert snapshot.responses_total >= 160
        # Every stream request is a pool signature, already cached.
        assert service.cache.hits - warm_hits == 160
        assert all(response.cached for responses in answers for response in responses)
        assert snapshot.batches_total > 0
        assert 0.0 < snapshot.mean_batch_fill <= 1.0

    def test_metrics_percentiles_monotone(self, service, cluster_data):
        X, _ = cluster_data
        service.classify("m", X[:64])
        snapshot = service.metrics_snapshot()
        assert 0.0 <= snapshot.latency_p50_ms <= snapshot.latency_p95_ms
        assert snapshot.latency_p95_ms <= snapshot.latency_p99_ms

    def test_multi_model_routing(self, service, trained_csom_classifier, cluster_data):
        X, _ = cluster_data
        service.register_model("baseline", trained_csom_classifier)
        bsom = service.classify("m", X[:10])
        csom = service.classify("baseline", X[:10])
        np.testing.assert_array_equal(
            [r.label for r in csom], trained_csom_classifier.predict(X[:10])
        )
        assert [r.label for r in bsom] is not None
        evicted = service.evict_model("baseline")
        assert evicted is trained_csom_classifier
        with pytest.raises(UnknownModelError):
            service.classify("baseline", X[:1])


# --------------------------------------------------------------------- #
# Pipeline integration
# --------------------------------------------------------------------- #
class TestPipelineAttachment:
    def test_recognition_system_served_frames_match_local(self, cluster_data):
        from tests.test_pipeline import _signatures_from_truth, _two_actor_scene
        from repro.pipeline import RecognitionSystem, RecognitionSystemConfig

        scene = _two_actor_scene(seed=1)
        X, y = _signatures_from_truth(scene, 40)
        classifier = SomClassifier(BinarySom(12, 768, seed=0)).fit(
            X, y, epochs=8, seed=1
        )

        def build_system():
            system = RecognitionSystem(
                classifier, RecognitionSystemConfig(min_blob_area=120)
            )
            system.initialise_background(_two_actor_scene(seed=2).background)
            return system

        local = build_system()
        served = build_system()
        service = StreamingInferenceService(
            config=ServiceConfig(batch_size=4, max_delay_ms=2.0)
        )
        service.register_model("hall", classifier)
        with service:
            served.attach_service(service, "hall", stream_id="cam-7")
            assert served.service_attached
            frames = list(_two_actor_scene(seed=2).frames(12))
            local_obs = local.process_sequence(frames)
            served_obs = served.process_sequence(frames)
        assert [o.label for o in served_obs] == [o.label for o in local_obs]
        assert [o.track_id for o in served_obs] == [o.track_id for o in local_obs]
        assert service.metrics_snapshot().responses_total == len(served_obs)
        served.detach_service()
        assert not served.service_attached

    def test_attach_unknown_model_fails_fast(self, trained_bsom_classifier):
        from repro.pipeline import RecognitionSystem

        system = RecognitionSystem(trained_bsom_classifier)
        service = StreamingInferenceService()
        with pytest.raises(UnknownModelError):
            system.attach_service(service, "ghost")


class TestPendingResult:
    RESPONSE = ClassificationResponse(
        label=1, neuron=0, distance=0.0, rejected=False, confidence=1.0,
        model="m", stream_id="cam", request_id=0, cached=False, latency_s=0.0,
    )

    def test_timeout_raises_service_error(self):
        pending = PendingResult()
        with pytest.raises(ServiceError):
            pending.result(timeout=0.01)

    def test_exception_propagates(self):
        pending = PendingResult()
        pending.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            pending.result(0.1)

    @pytest.mark.parametrize("timeouts", [(), (0, 0.01)])
    def test_one_settle_wakes_every_waiter(self, timeouts):
        # Waits that timed out on the unsettled future first must not keep
        # the settle from the waiters after them.
        pending = PendingResult()
        for timeout in timeouts:
            with pytest.raises(ResultTimeoutError):
                pending.result(timeout)
        answers = []
        threads = [  # result() without a timeout: a waiter left behind hangs
            threading.Thread(target=lambda: answers.append(pending.result()), daemon=True)
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let them block on the unsettled future
        pending.set_result(self.RESPONSE)
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [self.RESPONSE] * 8
        assert pending.result(0) is self.RESPONSE


class _CountingEvent(threading.Event):
    def __init__(self) -> None:
        super().__init__()
        self.sets = 0

    def set(self) -> None:
        self.sets += 1
        super().set()


class TestDispatcherWakes:
    def test_only_a_submit_that_opens_a_lane_wakes_the_dispatcher(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        # A frozen clock: no deadline ever comes due, so only flush() cuts.
        config = ServiceConfig(batch_size=64, max_delay_ms=5.0, cache_capacity=0)
        service = StreamingInferenceService(config=config, clock=FakeClock())
        service.register_model("m", trained_bsom_classifier)
        wake = service._wake = _CountingEvent()
        with service:
            futures = [service.submit(X[i], model="m") for i in range(10)]
            assert wake.sets == 1
            service.flush()
            assert len([future.result(10.0) for future in futures]) == 10
            service.submit(X[10], model="m")
            assert wake.sets == 2

    def test_a_lone_request_is_still_cut_by_its_deadline(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        config = ServiceConfig(batch_size=64, max_delay_ms=20.0, cache_capacity=0)
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        cuts = []
        route = service.registry.submit

        def recording_submit(batch):
            cuts.append(batch.flushed_by)
            return route(batch)

        service.registry.submit = recording_submit
        with service:
            for index in range(2):  # the second opens the lane the first left
                service.submit(X[index], model="m").result(5.0)
        assert cuts == ["deadline", "deadline"]


def _answers(responses) -> list[tuple]:
    return [
        (r.label, r.neuron, r.distance, r.rejected, r.confidence) for r in responses
    ]


def _counter(service, name: str) -> float:
    return service.obs.registry.get(name).value


class TestBlockAdmission:
    """``submit_many`` admits a block once: one validation, one reservation,
    one lane hand-off -- with the answers of per-row submits."""

    @staticmethod
    def _service(classifier, **config):
        config.setdefault("batch_size", 32)
        config.setdefault("max_delay_ms", 2.0)
        service = StreamingInferenceService(config=ServiceConfig(**config))
        service.register_model("m", classifier)
        return service

    @pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("size", [1, 31, 32, 33, 65])
    def test_block_answers_equal_row_submits_and_predict_batch(
        self, trained_bsom_classifier, cluster_data, size, cached
    ):
        X, _ = cluster_data
        # Drawn from 20 rows, so every block past 20 rows holds duplicates.
        block = X[np.random.default_rng(size).integers(0, 20, size)]
        batch = trained_bsom_classifier.predict_batch(block)
        expected = list(zip(
            batch.labels.tolist(), batch.neurons.tolist(), batch.distances.tolist(),
            batch.rejected.tolist(), batch.confidences.tolist(),
        ))
        answers = []
        for admit in ("block", "rows"):
            with self._service(trained_bsom_classifier) as service:
                if cached:
                    service.classify("m", block[::3])
                if admit == "block":
                    futures = service.submit_many(block, model="m")
                else:
                    futures = [service.submit(row, model="m") for row in block]
                service.flush()
                answers.append(_answers([future.result(10.0) for future in futures]))
                warmed = len(block[::3]) if cached else 0
                assert _counter(service, "serve_requests_total") == warmed + size
                assert service.pending_requests == 0
        assert answers[0] == answers[1] == expected

    def test_a_refused_block_is_counted_once_per_row_as_shed(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        with self._service(
            trained_bsom_classifier, cache_capacity=0, max_pending=3, max_delay_ms=1e6
        ) as service:
            with pytest.raises(ServiceOverloadedError):
                service.submit_many(X[:5], model="m")
            assert service.pending_requests == 0
            assert _counter(service, "serve_requests_total") == 0
            assert _counter(service, "serve_backpressure_rejections_total") == 5
            events = service.obs.events.events(kind="shed")
            assert [(e.fields["reason"], e.fields["count"]) for e in events] == [
                ("pending_budget", 5)
            ]

    @pytest.mark.parametrize("call", ["submit_many", "classify"])
    @pytest.mark.parametrize("position", [0, 2, 3], ids=["first", "middle", "last"])
    def test_a_non_binary_row_admits_no_row(
        self, trained_bsom_classifier, cluster_data, call, position
    ):
        X, _ = cluster_data
        block = X[:4].copy()
        block[position, 5] = 2
        names = (
            "serve_requests_total",
            "serve_cache_misses_total",
            "serve_responses_total",
        )
        with self._service(
            trained_bsom_classifier, batch_size=256, max_delay_ms=1e6
        ) as service:
            before = [_counter(service, name) for name in names]
            with pytest.raises(DataError):
                if call == "classify":
                    service.classify("m", block, timeout=1.0)
                else:
                    service.submit_many(block, model="m")
            service.flush()
            deadline = time.monotonic() + 5.0
            while service.pending_requests and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.pending_requests == 0
            assert [_counter(service, name) for name in names] == before

    def test_a_nan_row_admits_and_counts_nothing(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        block = X[:4].astype(np.float64)
        block[2] = np.nan
        names = (
            "serve_requests_total",
            "serve_cache_hits_total",
            "serve_cache_misses_total",
            "serve_dedup_hits_total",
            "serve_responses_total",
            "serve_backpressure_rejections_total",
        )
        with self._service(trained_bsom_classifier, max_delay_ms=1e6) as service:
            warm = service.submit(X[0], model="m")
            service.flush()
            warm.result(10.0)  # row 0 is a cache hit, were the block admitted
            before = [_counter(service, name) for name in names]
            with pytest.raises(DataError):
                service.submit_many(block, model="m")
            assert [_counter(service, name) for name in names] == before
            assert service.pending_requests == 0
            assert service.scheduler.pending_count() == 0

    def test_block_rows_draw_the_canary_split_in_order(
        self, trained_bsom_classifier, cluster_data
    ):
        from repro.serve.registry import TrafficRoute

        X, _ = cluster_data
        weights = {"m": 0.5, "m@v2": 0.5}
        with self._service(trained_bsom_classifier, cache_capacity=0) as service:
            service.register_model("m@v2", trained_bsom_classifier)
            service.registry.set_route("m", weights, seed=7)
            versions = [response.model for response in service.classify("m", X[:40])]
            assert service.registry.pinned("m@v2") == 0
        route = TrafficRoute("m", weights, seed=7)
        assert versions == [route.draw() for _ in range(40)]
        assert set(versions) == {"m", "m@v2"}

    def test_a_block_wakes_the_dispatcher_only_when_it_leaves_an_open_lane(
        self, trained_bsom_classifier, cluster_data
    ):
        X, _ = cluster_data
        config = ServiceConfig(batch_size=8, max_delay_ms=5.0, cache_capacity=0)
        service = StreamingInferenceService(config=config, clock=FakeClock())
        service.register_model("m", trained_bsom_classifier)
        wake = service._wake = _CountingEvent()
        with service:
            service.submit_many(X[:8], model="m")  # one full batch, no lane left
            assert wake.sets == 0
            service.submit_many(X[8:11], model="m")  # opens the lane
            assert wake.sets == 1
            service.submit_many(X[11:14], model="m")  # joins it
            assert wake.sets == 1
            service.submit_many(X[14:20], model="m")  # cuts it and opens it again
            assert wake.sets == 2 and service.scheduler.pending_count("m") == 4
