"""Guarded rollouts: versioned routing, shadow evaluation, rollback ring.

The contract under test, per pillar:

* routing -- seeded traffic splits are deterministic (the Kth resolve is a
  pure function of seed, name and K) and are dropped with the models they
  reference,
* shadow -- mirrored candidates never alter or delay what the primary
  serves, however badly they disagree,
* policy -- regressed candidates are demoted automatically, even mid-load,
  with every already-admitted future terminal; healthy candidates promote
  through the zero-drop swap,
* rollback -- promotion banks the replaced snapshot in a bounded ring, and
  a manual or breaker-triggered rollback restores it.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.core import BinarySom, ModelSnapshot, SomClassifier
from repro.core.backends import pack_bits_to_words
from repro.core.snapshot import SnapshotLabelling
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DataError,
    InjectedFaultError,
    UnknownModelError,
)
from repro.serve import (
    KERNEL_RAISE,
    PROMOTE_FAILURE,
    ROLLOUT_STAGE_CODES,
    BreakerConfig,
    FaultInjector,
    FaultSpec,
    ModelRegistry,
    RolloutConfig,
    RolloutManager,
    RolloutPolicy,
    ServiceConfig,
    ShadowEvaluator,
    ShadowStats,
    StreamingInferenceService,
)
from repro.serve.resilience import BREAKER_STATE_CODES


def _fit(X, y, *, n_neurons=16, seed=1, epochs=6):
    return SomClassifier(BinarySom(n_neurons, X.shape[1], seed=seed)).fit(
        X, y, epochs=epochs, seed=seed
    )


def _snap(service, name):
    """The snapshot currently serving ``name``."""
    return ModelSnapshot.of(service.registry.classifier(name))


def _scrambled(snapshot: ModelSnapshot) -> ModelSnapshot:
    """A behaviourally regressed candidate: same map, labels rotated."""
    labelling = snapshot.labelling
    rotated = np.where(
        labelling.node_labels >= 0,
        (labelling.node_labels + 1) % max(int(labelling.labels.max()) + 1, 1),
        labelling.node_labels,
    )
    return dataclasses.replace(
        snapshot,
        labelling=SnapshotLabelling(
            node_labels=rotated,
            win_frequencies=labelling.win_frequencies,
            labels=labelling.labels,
        ),
    )


def _identical(snapshot: ModelSnapshot) -> ModelSnapshot:
    """A candidate that behaves exactly like the active version."""
    return dataclasses.replace(snapshot, metadata={"candidate": "twin"})


@pytest.fixture()
def service(cluster_data):
    X, y = cluster_data
    classifier = _fit(X, y)
    service = StreamingInferenceService(
        config=ServiceConfig(batch_size=8, max_delay_ms=2.0, cache_capacity=0)
    )
    service.register_model("hall", ModelSnapshot.of(classifier))
    service.start()
    yield service
    service.stop()


# --------------------------------------------------------------------- #
# Versioned routing
# --------------------------------------------------------------------- #
class TestTrafficRouting:
    def _registry(self, classifier, seed):
        registry = ModelRegistry()
        snapshot = ModelSnapshot.of(classifier)
        registry.register("hall", snapshot)
        registry.register("hall@v1", snapshot)
        registry.set_route("hall", {"hall": 0.8, "hall@v1": 0.2}, seed=seed)
        return registry

    def test_resolve_sequence_is_deterministic(self, trained_bsom_classifier):
        a = self._registry(trained_bsom_classifier, seed=7)
        b = self._registry(trained_bsom_classifier, seed=7)
        seq_a = [a.resolve("hall") for _ in range(500)]
        seq_b = [b.resolve("hall") for _ in range(500)]
        assert seq_a == seq_b

    def test_split_fraction_honours_weights(self, trained_bsom_classifier):
        registry = self._registry(trained_bsom_classifier, seed=3)
        draws = [registry.resolve("hall") for _ in range(2000)]
        fraction = draws.count("hall@v1") / len(draws)
        assert 0.15 < fraction < 0.25

    def test_different_seeds_differ(self, trained_bsom_classifier):
        a = self._registry(trained_bsom_classifier, seed=1)
        b = self._registry(trained_bsom_classifier, seed=2)
        assert [a.resolve("hall") for _ in range(200)] != [
            b.resolve("hall") for _ in range(200)
        ]

    def test_unrouted_names_pass_through(self, trained_bsom_classifier):
        registry = ModelRegistry()
        registry.register("hall", ModelSnapshot.of(trained_bsom_classifier))
        assert registry.resolve("hall") == "hall"
        assert registry.route("hall") is None

    def test_route_targets_must_be_registered(self, trained_bsom_classifier):
        registry = ModelRegistry()
        registry.register("hall", ModelSnapshot.of(trained_bsom_classifier))
        with pytest.raises(UnknownModelError):
            registry.set_route("hall", {"hall": 0.5, "ghost": 0.5})

    def test_clear_route_restores_direct_lookup(self, trained_bsom_classifier):
        registry = self._registry(trained_bsom_classifier, seed=0)
        assert registry.clear_route("hall") is True
        assert registry.clear_route("hall") is False
        assert all(registry.resolve("hall") == "hall" for _ in range(50))

    def test_evicting_a_target_drops_the_route(self, trained_bsom_classifier):
        registry = self._registry(trained_bsom_classifier, seed=0)
        registry.evict("hall@v1")
        assert registry.route("hall") is None
        assert registry.resolve("hall") == "hall"


# --------------------------------------------------------------------- #
# Policy decisions
# --------------------------------------------------------------------- #
class TestRolloutPolicy:
    def _stats(self, samples, agreements, shadow_seconds=0.0):
        return ShadowStats(
            samples=samples,
            agreements=agreements,
            disagreements=samples - agreements,
            shadow_seconds=shadow_seconds,
        )

    def test_holds_below_min_samples(self):
        policy = RolloutPolicy(min_samples=100)
        assert policy.decide(self._stats(99, 0)) == "hold"

    def test_promotes_on_agreement(self):
        policy = RolloutPolicy(min_samples=10, promote_agreement=0.9)
        assert policy.decide(self._stats(20, 19)) == "promote"

    def test_demotes_on_regression(self):
        policy = RolloutPolicy(
            min_samples=10, promote_agreement=0.95, demote_agreement=0.8
        )
        assert policy.decide(self._stats(20, 10)) == "demote"

    def test_inconclusive_candidate_fails_closed_at_max_samples(self):
        policy = RolloutPolicy(
            min_samples=10,
            promote_agreement=0.95,
            demote_agreement=0.5,
            max_samples=50,
        )
        assert policy.decide(self._stats(30, 25)) == "hold"
        assert policy.decide(self._stats(50, 42)) == "demote"

    def test_slow_candidate_is_held_not_promoted(self):
        policy = RolloutPolicy(
            min_samples=10, promote_agreement=0.9, max_shadow_latency_ms=1.0
        )
        slow = self._stats(20, 20, shadow_seconds=1.0)  # 50 ms / sample
        assert policy.decide(slow) == "hold"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RolloutPolicy(min_samples=0)
        with pytest.raises(ConfigurationError):
            RolloutPolicy(promote_agreement=1.5)
        with pytest.raises(ConfigurationError):
            RolloutPolicy(promote_agreement=0.8, demote_agreement=0.9)
        with pytest.raises(ConfigurationError):
            RolloutPolicy(min_samples=100, max_samples=50)
        with pytest.raises(ConfigurationError):
            RolloutConfig(canary_fraction=0.9)
        with pytest.raises(ConfigurationError):
            RolloutConfig(ring_size=0)

    def test_a_canary_entered_with_a_shadow_backlog_needs_its_own_samples(
        self, trained_bsom_classifier, cluster_data
    ):
        """Shadow batches still queued when the scorecard is reset (what
        entering the canary does) are dropped unscored: the canary still
        needs ``min_samples`` rows mirrored after it began."""
        X, _ = cluster_data
        classifier = trained_bsom_classifier
        words = pack_bits_to_words(X[:8])
        primary = classifier.predict_batch_packed(words)
        policy = RolloutPolicy(min_samples=64, promote_agreement=0.9)
        evaluator = ShadowEvaluator("hall", classifier, capacity=32, on_scored=None)

        def mirror_and_score(batches):
            for _ in range(batches):
                assert evaluator.mirror(words, primary.labels, primary.rejected, 0.0)
            evaluator._queue.put(None)  # the worker loop, run here, stops on it
            evaluator._run()
            return evaluator.stats()

        for _ in range(8):  # a full verdict's worth of shadow-stage rows
            assert evaluator.mirror(words, primary.labels, primary.rejected, 0.0)
        evaluator.reset_stats()
        stats = mirror_and_score(7)
        assert stats.samples == 56 and policy.decide(stats) == "hold"
        stats = mirror_and_score(1)
        assert stats.samples == 64 and policy.decide(stats) == "promote"


# --------------------------------------------------------------------- #
# Shadow evaluation never touches the primary
# --------------------------------------------------------------------- #
class TestShadowNonInterference:
    def test_primary_responses_unchanged_by_disagreeing_shadow(
        self, service, cluster_data
    ):
        X, y = cluster_data
        active = service.registry.classifier("hall")
        expected = active.predict_batch(X[:64])

        manager = service.enable_rollouts(
            RolloutConfig(policy=RolloutPolicy(min_samples=10_000), auto=False)
        )
        manager.begin("hall", _scrambled(_snap(service, "hall")))

        responses = service.classify("hall", X[:64])
        np.testing.assert_array_equal(
            [r.label for r in responses], expected.labels
        )
        assert all(r.model == "hall" for r in responses)

        # The shadow really scored traffic, and really disagreed.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            stats = manager.stats("hall")
            if stats is not None and stats.samples >= 64:
                break
            time.sleep(0.01)
        stats = manager.stats("hall")
        assert stats.samples >= 64
        assert stats.disagreements > 0
        assert manager.status("hall").stage == "shadow"
        manager.demote("hall")

    def test_begin_rejects_unfitted_and_mismatched_candidates(self, service):
        with pytest.raises(DataError):
            service.enable_rollouts().begin(
                "hall", ModelSnapshot.of(BinarySom(4, 128, seed=0))
            )
        wrong_width = SomClassifier(BinarySom(8, 16, seed=0)).fit(
            np.random.default_rng(0).integers(0, 2, (40, 16)).astype(np.uint8),
            np.arange(40) % 2,
            epochs=2,
        )
        with pytest.raises(ConfigurationError):
            service.enable_rollouts().begin("hall", wrong_width)

    def test_one_rollout_per_model(self, service):
        manager = service.enable_rollouts(
            RolloutConfig(policy=RolloutPolicy(min_samples=10_000), auto=False)
        )
        snapshot = _snap(service, "hall")
        manager.begin("hall", snapshot)
        with pytest.raises(ConfigurationError):
            manager.begin("hall", snapshot)
        manager.demote("hall")
        assert manager.status("hall") is None


# --------------------------------------------------------------------- #
# Automatic demotion under load: every future terminal
# --------------------------------------------------------------------- #
class TestAutoDemotionMidLoad:
    def test_regressed_candidate_demoted_with_zero_drops(self, service, cluster_data):
        X, y = cluster_data
        manager = service.enable_rollouts(
            RolloutConfig(
                policy=RolloutPolicy(
                    min_samples=40, promote_agreement=0.99, demote_agreement=0.9
                ),
                canary_fraction=0.25,
            )
        )
        manager.begin("hall", _scrambled(_snap(service, "hall")))

        failures: list[BaseException] = []
        demoted = threading.Event()
        stop = threading.Event()

        def pump(worker: int) -> None:
            rng = np.random.default_rng(worker)
            while not stop.is_set():
                rows = X[rng.integers(0, len(X), size=8)]
                try:
                    futures = [
                        service.submit(row, model="hall", stream_id=f"cam-{worker}")
                        for row in rows
                    ]
                    for future in futures:
                        future.result(timeout=10.0)
                except BaseException as error:  # noqa: BLE001 - recorded
                    failures.append(error)
                    return

        threads = [threading.Thread(target=pump, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if manager.status("hall") is None:
                demoted.set()
                break
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

        assert demoted.is_set(), "regressed candidate was never demoted"
        assert not failures, f"request failed during demotion: {failures[:3]}"
        # The canary's version and route are gone; the primary still serves.
        assert service.registry.route("hall") is None
        with pytest.raises(UnknownModelError):
            service.registry.group("hall@v1")
        response = service.classify("hall", X[:4])
        assert len(response) == 4
        gauge = service.obs.registry.get(
            "serve_rollout_stage", {"model": "hall"}
        )
        assert gauge is not None and gauge.value == ROLLOUT_STAGE_CODES["demoted"]


# --------------------------------------------------------------------- #
# An evicted version leaves no series and no breakers behind
# --------------------------------------------------------------------- #
class TestEvictedVersionsLeaveNoSeries:
    def test_canary_cycles_keep_only_the_live_models_series_and_breakers(self, cluster_data):
        X, y = cluster_data
        service = StreamingInferenceService(
            config=ServiceConfig(batch_size=8, max_delay_ms=2.0, cache_capacity=0,
                                 breaker=BreakerConfig())
        )
        service.register_model("hall", ModelSnapshot.of(_fit(X, y)))
        manager = service.enable_rollouts(RolloutConfig(
            policy=RolloutPolicy(min_samples=64, promote_agreement=0.9), canary_fraction=0.2,
        ))
        canary_series = set()
        with service:
            for cycle in range(1, 6):
                manager.begin("hall", _identical(_snap(service, "hall")))
                deadline = time.monotonic() + 30.0
                while manager.status("hall") is not None:  # shadow, canary, promoted
                    assert time.monotonic() < deadline, f"rollout {cycle} never finished"
                    service.classify("hall", X[:16])
                    canary_series.update(
                        key for key in service.obs.metrics_record() if f"hall@v{cycle}" in key
                    )
            record = service.obs.metrics_record()
            states = service._board.states()
        kinds = [event.kind for event in service.obs.events.events()]
        assert kinds.count("rollout_canary") == kinds.count("rollout_promoted") == 5
        # Every canary took traffic: its breakers and queue depth were exported.
        for cycle in range(1, 6):
            assert any(f"serve_breaker_state{{model=hall@v{cycle}," in key
                       for key in canary_series), cycle
            assert f"serve_shard_queue_depth{{model=hall@v{cycle}}}" in canary_series
        assert service.registry.names() == ("hall",)
        assert not [key for key in record if "hall@v" in key]
        assert [key for key in record if key.startswith("serve_shard_queue_depth")] == [
            "serve_shard_queue_depth{model=hall}"
        ]
        assert len([key for key in record if key.startswith("serve_breaker_state")]) == 2
        assert sorted(states) == ["hall/hall/0", "hall/hall/1"]

    def test_a_model_evicted_and_registered_again_starts_closed(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(specs=[FaultSpec(KERNEL_RAISE, max_fires=1)])
        service = StreamingInferenceService(config=ServiceConfig(
            batch_size=1, cache_capacity=0, n_shards=1, fault_injector=injector,
            breaker=BreakerConfig(failure_threshold=1, reset_timeout_s=600.0),
        ))
        service.register_model("cam", classifier)
        state = "serve_breaker_state{model=cam,shard=cam/0}"
        with service:
            with pytest.raises(InjectedFaultError):
                service.submit(X[0], model="cam").result(5.0)
            assert service.obs.metrics_record()[state] == BREAKER_STATE_CODES["open"]
            with pytest.raises(CircuitOpenError):
                service.submit(X[1], model="cam")
            service.swap_model("cam", classifier)  # a swap drops nothing
            assert service.obs.metrics_record()[state] == BREAKER_STATE_CODES["open"]
            service.evict_model("cam")
            record = service.obs.metrics_record()
            assert not [key for key in record if "model=cam" in key]
            assert service._board.states() == {}
            service.register_model("cam", classifier)
            assert service.classify("cam", X[1:3]) is not None
            record = service.obs.metrics_record()
            assert record[state] == BREAKER_STATE_CODES["closed"]
            assert record["serve_shard_queue_depth{model=cam}"] == 0.0


# --------------------------------------------------------------------- #
# Canary teardown: a request keeps the version it resolved to
# --------------------------------------------------------------------- #
class TestCanaryTeardown:
    """A request resolved to the canary before its route was cleared is
    answered by the canary, never failed by the teardown's eviction.

    Each test holds one such request in a window the teardown's drain used
    to miss, demotes the rollout, gives an unguarded teardown time to evict
    the version, then lets the request go on.
    """

    @staticmethod
    def _canary(service, X) -> RolloutManager:
        manager = service.enable_rollouts(
            RolloutConfig(
                policy=RolloutPolicy(
                    min_samples=8, promote_agreement=0.5, demote_agreement=0.0
                ),
                canary_fraction=0.5,
                split_seed=4,  # the split's first draw is the canary
                rollback_on_breaker=False,
            )
        )
        manager.begin("hall", _identical(_snap(service, "hall")))
        service.classify("hall", X[:8])  # one mirrored batch: shadow -> canary
        deadline = time.monotonic() + 10.0
        while manager.status("hall").stage != "canary":
            assert time.monotonic() < deadline, "the candidate never reached canary"
            time.sleep(0.005)
        return manager

    @staticmethod
    def _demote_while_held(manager, service, resume: threading.Event) -> None:
        demoter = threading.Thread(target=manager.demote, args=("hall",))
        demoter.start()
        demoter.join(0.3)  # time for an unguarded teardown to evict the version
        resume.set()
        demoter.join(10.0)
        assert not demoter.is_alive()
        assert manager.status("hall") is None
        assert "hall@v1" not in service.registry

    def test_a_submit_between_route_and_lane_is_answered_by_the_canary(
        self, service, cluster_data
    ):
        X, _ = cluster_data
        manager = self._canary(service, X)
        resolved, resume = threading.Event(), threading.Event()
        lookup = service.cache.get

        def held_lookup(model, key):
            if model == "hall@v1":
                resolved.set()
                resume.wait(5.0)
            return lookup(model, key)

        service.cache.get = held_lookup
        futures = []
        submitter = threading.Thread(
            target=lambda: futures.append(service.submit(X[8], model="hall"))
        )
        submitter.start()
        assert resolved.wait(5.0), "the submit did not resolve to the canary"
        self._demote_while_held(manager, service, resume)
        submitter.join(5.0)
        assert futures[0].result(5.0).model == "hall@v1"

    def test_a_batch_between_lane_and_shard_is_answered_by_the_canary(
        self, service, cluster_data
    ):
        X, _ = cluster_data
        manager = self._canary(service, X)
        cut, resume = threading.Event(), threading.Event()
        route = service.registry.submit

        def held_route(batch):
            if batch.model == "hall@v1":
                cut.set()
                resume.wait(5.0)
            return route(batch)

        service.registry.submit = held_route
        future = service.submit(X[8], model="hall")
        assert cut.wait(5.0), "the canary lane was never cut"
        self._demote_while_held(manager, service, resume)
        assert future.result(5.0).model == "hall@v1"


# --------------------------------------------------------------------- #
# Promotion, the ring, and rollback
# --------------------------------------------------------------------- #
class TestPromotionAndRollback:
    def _promote_twin(self, service, X, fraction=0.0):
        manager = service.enable_rollouts(
            RolloutConfig(
                policy=RolloutPolicy(min_samples=30, promote_agreement=0.95),
                canary_fraction=fraction,
                rollback_on_breaker=False,
            )
        )
        manager.begin("hall", _identical(_snap(service, "hall")))
        rng = np.random.default_rng(0)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            service.classify("hall", X[rng.integers(0, len(X), size=8)])
            status = manager.status("hall")
            if status is None:
                return manager
        raise AssertionError(f"candidate never promoted: {manager.status('hall')}")

    def test_identical_candidate_promotes_and_banks_previous(
        self, service, cluster_data
    ):
        X, y = cluster_data
        before = _snap(service, "hall")
        manager = self._promote_twin(service, X)
        ring = manager.ring("hall")
        assert len(ring) == 1
        assert ring[-1].weights_version == before.weights_version
        counter = service.obs.registry.get("serve_rollout_promotions_total")
        assert counter is not None and counter.value == 1

    def test_rollback_restores_previous_version(self, service, cluster_data):
        X, y = cluster_data
        before = _snap(service, "hall")
        manager = self._promote_twin(service, X)
        assert manager.rollback("hall") is True
        restored = _snap(service, "hall")
        assert restored.weights_version == before.weights_version
        np.testing.assert_array_equal(restored.weights, before.weights)
        # The ring entry was consumed; a second rollback has nothing left.
        assert manager.rollback("hall") is False
        # The service still answers after two zero-drop transitions.
        assert len(service.classify("hall", X[:8])) == 8

    def test_canary_path_promotes_through_routed_stage(self, service, cluster_data):
        X, y = cluster_data
        manager = self._promote_twin(service, X, fraction=0.2)
        # Promotion cleared the split and evicted the version.
        assert service.registry.route("hall") is None
        with pytest.raises(UnknownModelError):
            service.registry.group("hall@v1")

    def test_breaker_hook_rolls_back_once(self, service, cluster_data):
        X, y = cluster_data
        before = _snap(service, "hall")
        manager = service.enable_rollouts(
            RolloutConfig(
                policy=RolloutPolicy(min_samples=30, promote_agreement=0.95),
                rollback_on_breaker=True,
            )
        )
        manager.begin("hall", _identical(before))
        rng = np.random.default_rng(1)
        deadline = time.monotonic() + 30.0
        while manager.status("hall") is not None and time.monotonic() < deadline:
            service.classify("hall", X[rng.integers(0, len(X), size=8)])
        assert manager.status("hall") is None

        manager.on_breaker_open("hall", "hall:0")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not manager.ring("hall"):
                break
            time.sleep(0.01)
        restored = _snap(service, "hall")
        assert restored.weights_version == before.weights_version
        # Disarmed: a second breaker event does not fire another rollback.
        manager.on_breaker_open("hall", "hall:0")
        time.sleep(0.1)
        assert _snap(service, "hall").weights_version == before.weights_version


# --------------------------------------------------------------------- #
# Promote-failure injection: fail closed
# --------------------------------------------------------------------- #
class TestPromoteFailureInjection:
    def test_failed_promotion_leaves_active_serving(self, cluster_data):
        X, y = cluster_data
        classifier = _fit(X, y)
        injector = FaultInjector(
            seed=5, specs=[FaultSpec(site=PROMOTE_FAILURE, probability=1.0)]
        )
        service = StreamingInferenceService(
            config=ServiceConfig(
                batch_size=8, max_delay_ms=2.0, cache_capacity=0,
                fault_injector=injector,
            )
        )
        service.register_model("hall", ModelSnapshot.of(classifier))
        service.start()
        try:
            before = _snap(service, "hall")
            manager = service.enable_rollouts(
                RolloutConfig(policy=RolloutPolicy(min_samples=10_000), auto=False)
            )
            manager.begin("hall", _identical(before))
            assert manager.promote("hall") is False
            # Candidate demoted, active untouched, nothing banked.
            assert manager.status("hall") is None
            assert manager.ring("hall") == ()
            assert (
                _snap(service, "hall").weights_version
                == before.weights_version
            )
            assert len(service.classify("hall", X[:8])) == 8
        finally:
            service.stop()
