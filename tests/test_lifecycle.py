"""Tests of the unified model lifecycle: api facade, hot-swap, dedup, evict.

Covers the acceptance surface of the lifecycle redesign:

* ``repro.api`` train / snapshot / save / load / serve / swap end to end,
* ``ModelRegistry.swap`` hot-reload with zero dropped requests, including
  a swap issued while >= 100 requests are queued,
* cross-request deduplication of identical in-flight packed signatures
  (one kernel execution fans out to all waiting futures, visible in the
  ``dedup_hits`` counter and per-response ``deduplicated`` flag),
* eviction failing still-queued futures with ``ModelEvictedError`` instead
  of leaving them unresolved, and
* the pipeline layer speaking snapshots (RecognitionSystem construction,
  OnlineLearner.snapshot publishing).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.core import BinarySom, ModelSnapshot, SomClassifier
from repro.errors import (
    ConfigurationError,
    DataError,
    ModelEvictedError,
    ResultTimeoutError,
    ServiceError,
    ServiceOverloadedError,
    UnknownModelError,
)
from repro.serve import (
    ModelRegistry,
    ServiceConfig,
    StreamingInferenceService,
)
from repro.serve.batching import MicroBatch
from repro.serve.request import ClassificationRequest
from repro.signatures import packed_signature_words


def _fit(X, y, *, n_neurons=16, seed=1, epochs=6, **kwargs):
    return SomClassifier(BinarySom(n_neurons, X.shape[1], seed=seed, **kwargs)).fit(
        X, y, epochs=epochs, seed=seed
    )


def _direct_batch(model, signature, request_id=0):
    request = ClassificationRequest(
        packed=packed_signature_words(np.asarray(signature, dtype=np.uint8)),
        model=model,
        stream_id="cam",
        request_id=request_id,
        cache_key=bytes([request_id % 256]),
        enqueued_at=0.0,
    )
    return request, MicroBatch(model, (request,), capacity=1, flushed_by="size")


# --------------------------------------------------------------------- #
# Registry hot-swap
# --------------------------------------------------------------------- #
class TestRegistrySwap:
    def test_swap_returns_previous_and_reroutes(self, cluster_data):
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9, n_neurons=24, epochs=10)
        registry = ModelRegistry(n_shards=1)
        registry.register("m", old)
        previous = registry.swap("m", new)
        assert previous is old
        assert registry.classifier("m") is new

    def test_swap_accepts_snapshots(self, cluster_data):
        X, y = cluster_data
        registry = ModelRegistry(n_shards=1)
        registry.register("m", _fit(X, y, seed=1))
        snapshot = ModelSnapshot.of(_fit(X, y, seed=2))
        registry.swap("m", snapshot)
        served = registry.classifier("m")
        assert isinstance(served, SomClassifier)
        np.testing.assert_array_equal(
            served.predict(X[:8]), snapshot.to_classifier().predict(X[:8])
        )

    def test_register_accepts_snapshots(self, cluster_data):
        X, y = cluster_data
        snapshot = ModelSnapshot.of(_fit(X, y, seed=1))
        registry = ModelRegistry(n_shards=1)
        registry.register("m", snapshot)
        assert isinstance(registry.classifier("m"), SomClassifier)

    def test_swap_unknown_name_raises(self, cluster_data):
        X, y = cluster_data
        with pytest.raises(UnknownModelError):
            ModelRegistry().swap("ghost", _fit(X, y))

    def test_swap_rejects_width_mismatch(self, cluster_data):
        X, y = cluster_data
        registry = ModelRegistry(n_shards=1)
        registry.register("m", _fit(X, y))
        narrow = SomClassifier(BinarySom(8, 32, seed=0))
        rng = np.random.default_rng(0)
        narrow.fit(rng.integers(0, 2, (40, 32)), np.repeat([0, 1], 20), epochs=2, seed=1)
        with pytest.raises(ConfigurationError, match="bit"):
            registry.swap("m", narrow)

    def test_swap_rejects_unfitted(self, cluster_data):
        X, y = cluster_data
        registry = ModelRegistry(n_shards=1)
        registry.register("m", _fit(X, y))
        with pytest.raises(DataError):
            registry.swap("m", SomClassifier(BinarySom(8, X.shape[1], seed=0)))

    def test_queued_batches_resolve_on_the_new_model(self, cluster_data):
        # Batches queued before the swap (shards not yet started) must all
        # resolve -- scored by the new model once the workers run.
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9, n_neurons=24, epochs=10)
        registry = ModelRegistry(n_shards=1)
        registry.register("m", old)
        requests = []
        for index in range(8):
            request, batch = _direct_batch("m", X[index], index)
            requests.append(request)
            registry.submit(batch)
        registry.swap("m", new)
        registry.start()
        try:
            labels = [request.pending.result(10.0).label for request in requests]
        finally:
            registry.stop()
        np.testing.assert_array_equal(labels, new.predict(X[:8]))


# --------------------------------------------------------------------- #
# Service hot-swap under load (the acceptance criterion)
# --------------------------------------------------------------------- #
class TestServiceSwapUnderLoad:
    def test_swap_with_hundred_queued_requests_drops_nothing(self, cluster_data):
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9, n_neurons=24, epochs=10)
        config = ServiceConfig(
            batch_size=256,
            max_delay_ms=60_000.0,
            max_pending=1024,
            cache_capacity=0,
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", old)
        rows = [X[i % X.shape[0]] for i in range(120)]
        with service:
            futures = [service.submit(row, model="m") for row in rows]
            assert service.pending_requests >= 100
            service.swap_model("m", ModelSnapshot.of(new))
            service.flush()
            responses = [future.result(10.0) for future in futures]
        # Zero drops, zero errors, and the queued work was answered by the
        # post-swap map (the batch was cut after the shards flipped).
        assert len(responses) == 120
        np.testing.assert_array_equal(
            [response.label for response in responses], new.predict(np.vstack(rows))
        )
        assert service.metrics_snapshot().model_swaps == 1

    def test_swap_invalidates_cache(self, cluster_data):
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9, n_neurons=24, epochs=10)
        service = StreamingInferenceService(
            config=ServiceConfig(batch_size=4, max_delay_ms=2.0, cache_capacity=512)
        )
        service.register_model("m", old)
        with service:
            first = service.classify("m", X[:1])[0]
            assert service.classify("m", X[:1])[0].cached
            service.swap_model("m", new)
            refreshed = service.classify("m", X[:1])[0]
            assert not refreshed.cached  # cache was invalidated by the swap
            assert refreshed.neuron == new.predict_batch(X[:1]).neurons[0]
        assert first.neuron == old.predict_batch(X[:1]).neurons[0]

    def test_swap_on_bound_registry_still_invalidates_service_cache(self, cluster_data):
        # Going through service.registry.swap (or api.swap on the registry)
        # must not leave the service's cache serving the old map: the
        # registry's retired hook carries the invalidation either way.
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9, n_neurons=24, epochs=10)
        service = StreamingInferenceService(
            config=ServiceConfig(batch_size=4, max_delay_ms=2.0, cache_capacity=512)
        )
        service.register_model("m", old)
        with service:
            service.classify("m", X[:1])
            assert service.classify("m", X[:1])[0].cached
            service.registry.swap("m", new)  # bypasses service.swap_model
            refreshed = service.classify("m", X[:1])[0]
            assert not refreshed.cached
            assert refreshed.neuron == new.predict_batch(X[:1]).neurons[0]

    # 4096 slots never refuse; 16 make the submitters race the pending
    # budget across the swap, retrying each refusal.
    @pytest.mark.parametrize("max_pending", [4096, 16])
    def test_concurrent_submitters_across_swap_see_no_failures(
        self, cluster_data, max_pending
    ):
        X, y = cluster_data
        old = _fit(X, y, seed=1)
        new = _fit(X, y, seed=9, n_neurons=24, epochs=10)
        service = StreamingInferenceService(
            config=ServiceConfig(
                batch_size=8, max_delay_ms=1.0, cache_capacity=0, max_pending=max_pending
            )
        )
        service.register_model("m", old)
        failures: list[BaseException] = []
        answered = []
        refused = [0] * 4

        def submit(worker, row):
            for _ in range(20_000):
                try:
                    return service.submit(row, model="m", stream_id=f"cam-{worker}")
                except ServiceOverloadedError:
                    refused[worker] += 1
                    time.sleep(0.0005)
            raise AssertionError(f"cam-{worker}: one row refused 20,000 times")

        def run(worker):
            rng = np.random.default_rng(worker)
            try:
                futures = [submit(worker, X[int(rng.integers(0, 30))]) for _ in range(60)]
                answered.extend(future.result(30.0) for future in futures)
            except BaseException as error:
                failures.append(error)

        with service:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            service.swap_model("m", new)
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            rejections = service.obs.registry.get("serve_backpressure_rejections_total")
            assert sum(refused) == rejections.value
            assert service.pending_requests == 0
        assert not failures
        assert len(answered) == 240


# --------------------------------------------------------------------- #
# Cross-request dedup of identical in-flight signatures
# --------------------------------------------------------------------- #
class TestInFlightDedup:
    def test_identical_queued_signatures_coalesce(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(
            batch_size=256, max_delay_ms=60_000.0, cache_capacity=0, max_pending=64
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            futures = [service.submit(X[i % 5], model="m") for i in range(50)]
            # Only the 5 distinct signatures occupy pending-budget slots.
            assert service.pending_requests == 5
            service.flush()
            responses = [future.result(10.0) for future in futures]
        expected = trained_bsom_classifier.predict(np.vstack([X[i % 5] for i in range(50)]))
        np.testing.assert_array_equal([r.label for r in responses], expected)
        assert sum(1 for r in responses if r.deduplicated) == 45
        snapshot = service.metrics_snapshot()
        assert snapshot.dedup_hits == 45
        assert snapshot.responses_total == 50

    def test_followers_carry_their_own_identity(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(batch_size=256, max_delay_ms=60_000.0, cache_capacity=0)
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            first = service.submit(X[0], model="m", stream_id="cam-a")
            second = service.submit(X[0], model="m", stream_id="cam-b")
            service.flush()
            a, b = first.result(10.0), second.result(10.0)
        assert not a.deduplicated and b.deduplicated
        assert (a.stream_id, b.stream_id) == ("cam-a", "cam-b")
        assert a.request_id != b.request_id
        assert (a.label, a.neuron) == (b.label, b.neuron)

    def test_dedup_respects_model_boundaries(
        self, trained_bsom_classifier, trained_csom_classifier, cluster_data
    ):
        X, _ = cluster_data
        config = ServiceConfig(batch_size=256, max_delay_ms=60_000.0, cache_capacity=0)
        service = StreamingInferenceService(config=config)
        service.register_model("b", trained_bsom_classifier)
        service.register_model("c", trained_csom_classifier)
        with service:
            one = service.submit(X[0], model="b")
            two = service.submit(X[0], model="c")  # same bits, different model
            service.flush()
            one.result(10.0), two.result(10.0)
        assert service.metrics_snapshot().dedup_hits == 0

    def test_failed_dispatch_fails_followers_too(
        self, trained_bsom_classifier, cluster_data
    ):
        # A batch that cannot be dispatched must deliver its error to the
        # deduplicated followers as well, never leave them unresolved.
        X, _ = cluster_data
        config = ServiceConfig(batch_size=256, max_delay_ms=60_000.0, cache_capacity=0)
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            primary = service.submit(X[0], model="m")
            follower = service.submit(X[0], model="m")
            # Evict behind the service's back: the lane batch is still
            # buffered, so its dispatch at flush() fails with
            # UnknownModelError, which must reach both futures.
            service.registry.evict("m")
            service.flush()
            with pytest.raises(UnknownModelError):
                primary.result(5.0)
            with pytest.raises(UnknownModelError):
                follower.result(5.0)
            assert service.pending_requests == 0

    def test_dedup_vs_cache_accounting(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(batch_size=4, max_delay_ms=2.0, cache_capacity=512)
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            service.classify("m", X[:1])
            repeat = service.classify("m", X[:1])[0]
        assert repeat.cached and not repeat.deduplicated
        snapshot = service.metrics_snapshot()
        assert snapshot.cache_hits == 1 and snapshot.dedup_hits == 0


# --------------------------------------------------------------------- #
# Eviction fails queued futures promptly
# --------------------------------------------------------------------- #
class TestEvictionFailsFutures:
    def test_registry_evict_fails_queued_batches(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        registry = ModelRegistry(n_shards=2)
        registry.register("m", trained_bsom_classifier)
        requests = []
        for index in range(6):
            request, batch = _direct_batch("m", X[index], index)
            requests.append(request)
            registry.submit(batch)
        # Shards never started: without the eviction fix these futures
        # would hang forever.
        registry.evict("m")
        for request in requests:
            with pytest.raises(ModelEvictedError):
                request.pending.result(1.0)

    def test_service_evict_completes_every_future(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(
            batch_size=256, max_delay_ms=60_000.0, cache_capacity=0, max_pending=64
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            futures = [service.submit(X[i % 4], model="m") for i in range(12)]
            service.evict_model("m")
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(5.0))
                except ModelEvictedError as error:
                    outcomes.append(error)
            assert len(outcomes) == 12
            # Everything submitted was still lane-buffered, so all fail.
            assert all(isinstance(o, ModelEvictedError) for o in outcomes)
            assert service.pending_requests == 0

    def test_evicted_error_is_unknown_model_error(self):
        error = ModelEvictedError("hall", ("lobby",))
        assert isinstance(error, UnknownModelError)
        assert "evicted" in str(error) and "lobby" in str(error)


# --------------------------------------------------------------------- #
# The repro.api facade
# --------------------------------------------------------------------- #
class TestApiFacade:
    def test_train_save_load_serve_swap_roundtrip(self, tmp_path, cluster_data):
        X, y = cluster_data
        classifier = api.train(X, y, n_neurons=16, epochs=6, seed=0)
        assert classifier.score(X, y) > 0.9
        path = api.save(classifier, tmp_path / "hall.npz")
        snapshot = api.load(path)
        assert snapshot.weights_version == classifier.som.weights_version

        improved = api.train(X, y, n_neurons=24, epochs=10, seed=0)
        service = api.serve(
            {"hall": snapshot},
            config=ServiceConfig(batch_size=8, max_delay_ms=2.0),
        )
        try:
            before = [r.label for r in service.classify("hall", X[:16])]
            np.testing.assert_array_equal(
                before, snapshot.to_classifier().predict(X[:16])
            )
            previous = api.swap(service, "hall", api.snapshot(improved))
            np.testing.assert_array_equal(previous.predict(X[:16]), before)
            after = [r.label for r in service.classify("hall", X[:16])]
            np.testing.assert_array_equal(after, improved.predict(X[:16]))
        finally:
            service.stop()

    def test_serve_accepts_paths(self, tmp_path, cluster_data):
        X, y = cluster_data
        path = api.save(api.train(X, y, n_neurons=16, epochs=4, seed=0), tmp_path / "m")
        service = api.serve({"m": path}, start=False)
        assert "m" in service.registry
        with service:
            assert service.classify("m", X[:2])

    def test_serve_keeps_a_passed_registry_that_is_still_empty(self, cluster_data):
        # An empty registry has length 0; the service must not mistake it
        # for "no registry" and build its own with the default shard count.
        X, y = cluster_data
        snapshot = api.snapshot(api.train(X, y, n_neurons=16, epochs=4, seed=0))
        registry = ModelRegistry(n_shards=3)
        with api.serve({"m": snapshot}, registry=registry) as service:
            assert service.registry is registry
            assert len(registry.shard_names("m")) == 3
            assert service.classify("m", X[:2])

    def test_swap_works_on_bare_registry(self, cluster_data):
        X, y = cluster_data
        registry = ModelRegistry(n_shards=1)
        registry.register("m", api.train(X, y, n_neurons=16, epochs=4, seed=0))
        replacement = api.train(X, y, n_neurons=16, epochs=6, seed=1)
        api.swap(registry, "m", api.snapshot(replacement))
        np.testing.assert_array_equal(
            registry.classifier("m").predict(X[:8]), replacement.predict(X[:8])
        )

    def test_train_kind_validation(self, cluster_data):
        X, y = cluster_data
        with pytest.raises(ConfigurationError):
            api.train(X, y, som="qsom")
        with pytest.raises(ConfigurationError):
            api.train(X, y, som="csom", update_rule=object())

    def test_train_csom(self, cluster_data):
        X, y = cluster_data
        classifier = api.train(X, y, som="csom", n_neurons=16, epochs=6, seed=0)
        from repro.core import KohonenSom

        assert isinstance(classifier.som, KohonenSom)

    def test_top_level_lazy_exports(self):
        import repro

        assert repro.train is api.train
        assert repro.ModelSnapshot is ModelSnapshot
        assert repro.api is api

    def test_pre_facade_entry_points_are_gone(self):
        import repro

        # repro.api.save/load replace them; repro.core keeps the codec pair.
        for removed in ("save_model", "load_model"):
            assert not hasattr(repro, removed)
            assert removed not in dir(repro)


# --------------------------------------------------------------------- #
# Pipeline layer speaks snapshots
# --------------------------------------------------------------------- #
class TestPipelineSnapshotAdoption:
    def test_recognition_system_accepts_snapshot(self, trained_bsom_classifier):
        from repro.pipeline import RecognitionSystem

        snapshot = ModelSnapshot.of(trained_bsom_classifier)
        system = RecognitionSystem(snapshot)
        assert isinstance(system.classifier, SomClassifier)
        assert system.classifier is not trained_bsom_classifier  # private copy

    def test_recognition_system_rejects_bare_map_snapshot(self):
        from repro.pipeline import RecognitionSystem

        with pytest.raises(DataError):
            RecognitionSystem(ModelSnapshot.of(BinarySom(4, 8, seed=0)))

    def test_online_learner_snapshot_publishes_updates(self, cluster_data):
        from repro.pipeline import OnlineLearner, OnlineLearnerConfig

        X, y = cluster_data
        classifier = _fit(X, y, epochs=8)
        learner = OnlineLearner(
            classifier,
            X,
            y,
            config=OnlineLearnerConfig(min_signatures=5, online_epochs=1),
        )
        snapshot = learner.snapshot(metadata={"site": "hall"})
        assert snapshot.is_fitted
        assert snapshot.metadata["online_updates"] == "0"
        assert snapshot.metadata["site"] == "hall"
        # Snapshot is decoupled: keep training the live map, snapshot fixed.
        frozen = snapshot.weights.copy()
        rng = np.random.default_rng(3)
        novel = rng.integers(0, 2, size=(6, X.shape[1])).astype(np.uint8)
        for row in novel:
            learner.observe(99, row)
        np.testing.assert_array_equal(snapshot.weights, frozen)
        updated = learner.snapshot()
        assert updated.metadata["online_updates"] == str(len(learner.updates))

    def test_online_snapshot_can_hot_swap_into_service(self, cluster_data):
        from repro.pipeline import OnlineLearner

        X, y = cluster_data
        classifier = _fit(X, y, epochs=8)
        learner = OnlineLearner(classifier, X, y)
        service = api.serve(
            {"hall": ModelSnapshot.of(classifier)},
            config=ServiceConfig(batch_size=4, max_delay_ms=2.0),
        )
        try:
            api.swap(service, "hall", learner.snapshot())
            responses = service.classify("hall", X[:8])
            assert len(responses) == 8
        finally:
            service.stop()

    def test_online_learner_publishes_full_then_deltas(self, cluster_data):
        from repro.core import DeltaSnapshot
        from repro.pipeline import OnlineLearner, OnlineLearnerConfig

        X, y = cluster_data
        classifier = _fit(X, y, epochs=8)
        published = []
        learner = OnlineLearner(
            classifier,
            X,
            y,
            config=OnlineLearnerConfig(
                min_signatures=6, online_epochs=1, publish_every=4
            ),
            publisher=published.append,
        )
        rng = np.random.default_rng(7)
        novel = np.where(
            rng.random((12, X.shape[1])) < 0.05, X[0], 1 - X[0]
        ).astype(np.uint8)
        for row in novel:
            learner.observe(500, row)

        assert learner.observed == 12
        assert len(published) == 3  # at observations 4, 8, 12
        assert isinstance(published[0], ModelSnapshot)
        assert all(isinstance(d, DeltaSnapshot) for d in published[1:])
        # The delta chain materialises bit-exactly, and the result swaps
        # into a live service like any full snapshot.
        snapshot = published[0]
        for delta in published[1:]:
            snapshot = delta.apply(snapshot)
        np.testing.assert_array_equal(
            snapshot.weights, learner.published_base.weights
        )
        service = api.serve(
            {"hall": ModelSnapshot.of(classifier)},
            config=ServiceConfig(batch_size=4, max_delay_ms=2.0),
        )
        try:
            api.swap(service, "hall", snapshot)
            assert len(service.classify("hall", X[:4])) == 4
        finally:
            service.stop()


# --------------------------------------------------------------------- #
# Eviction racing live submission: terminate, never hang
# --------------------------------------------------------------------- #
class TestEvictSubmitRace:
    def test_every_request_terminates_under_concurrent_evict(self, cluster_data):
        """Stress the evict/submit race: four threads submit continuously
        while the model is evicted mid-stream.  Every future must reach a
        terminal state -- a result or a service error -- within its
        timeout; a single :class:`ResultTimeoutError` means a request was
        left hanging and fails the test."""
        X, y = cluster_data
        config = ServiceConfig(
            batch_size=8, max_delay_ms=1.0, cache_capacity=0, max_pending=4096
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", _fit(X, y))
        stop_submitting = threading.Event()
        futures: list = []
        futures_lock = threading.Lock()

        def submitter(offset: int) -> None:
            index = offset
            while not stop_submitting.is_set():
                try:
                    future = service.submit(X[index % len(X)], model="m")
                except ServiceError:
                    # Evicted (UnknownModelError) or saturated: a refusal
                    # is itself a prompt, terminal outcome.
                    continue
                with futures_lock:
                    futures.append(future)
                index += 1

        with service:
            threads = [
                threading.Thread(target=submitter, args=(k,), daemon=True)
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.05)  # let the submitters build up steam
            service.evict_model("m")
            time.sleep(0.02)  # keep racing against the evicted name
            stop_submitting.set()
            for thread in threads:
                thread.join(5.0)
            assert not any(thread.is_alive() for thread in threads)
            resolved = failed = 0
            for future in futures:
                try:
                    future.result(10.0)
                    resolved += 1
                except ResultTimeoutError:
                    pytest.fail("a request neither resolved nor failed")
                except ServiceError:
                    failed += 1
            assert resolved + failed == len(futures)
            # The race genuinely exercised both sides of the eviction.
            assert resolved >= 1 and failed >= 1
            assert service.pending_requests == 0


# --------------------------------------------------------------------- #
# submit_many admits a block all or nothing (dedup followers included)
# --------------------------------------------------------------------- #
class TestSubmitManyAllOrNothing:
    def test_refused_block_admits_nothing(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(
            batch_size=256, max_delay_ms=20.0, cache_capacity=0, max_pending=3
        )
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            # Five distinct rows need five slots of a 3-slot budget: the
            # block is refused whole, and nothing is left to drain.
            with pytest.raises(ServiceOverloadedError):
                service.submit_many(X[:5], model="m")
            snapshot = service.metrics_snapshot()
            assert service.pending_requests == 0
            assert snapshot.requests_total == 0 and snapshot.cache_misses == 0
            assert snapshot.backpressure_rejections == 5
            # Rows 0, 0, 1, 2 need three slots: the duplicate follows the
            # first row and takes none.
            rows = np.vstack([X[0], X[0], X[1], X[2]])
            futures = service.submit_many(rows, model="m")
            assert service.pending_requests == 3
            assert service.metrics_snapshot().dedup_hits == 1
            service.flush()
            answers = [future.result(10.0) for future in futures]
            assert answers[1].deduplicated and answers[1].label == answers[0].label
            assert service.pending_requests == 0


# --------------------------------------------------------------------- #
# stop() racing submit: followers of the doomed primary must fail too
# --------------------------------------------------------------------- #
class TestStopRaceFollowers:
    def test_stop_race_fans_error_to_followers(
        self, trained_bsom_classifier, cluster_data
    ):
        """White-box: a follower that coalesces onto a primary inside the
        stop() race window (after the dedup-table insert, before the
        running check) must receive the primary's terminal error, not hang
        until its timeout."""
        X, _ = cluster_data
        config = ServiceConfig(batch_size=256, max_delay_ms=60_000.0, cache_capacity=0)
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        service.start()
        follower_futures: list = []
        real_lock = service._state_lock

        class RaceWindowLock:
            """Proxy for the service's state lock: the first acquisition
            (the doomed primary's) first lets a follower attach and stops
            the service -- the exact interleaving of the race."""

            def __init__(self):
                self.armed = True

            def __enter__(self):
                if self.armed:
                    self.armed = False
                    # The primary is in the dedup table already, so this
                    # coalesces (the follower path never takes this lock).
                    follower_futures.append(service.submit(X[0], model="m"))
                    service.stop()
                return real_lock.__enter__()

            def __exit__(self, *exc_info):
                return real_lock.__exit__(*exc_info)

        service._state_lock = RaceWindowLock()
        with pytest.raises(ServiceError):
            service.submit(X[0], model="m")
        assert len(follower_futures) == 1
        with pytest.raises(ServiceError):
            follower_futures[0].result(1.0)
        assert service.pending_requests == 0
