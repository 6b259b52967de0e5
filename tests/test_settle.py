"""The serve layer's one settle path.

Regression tests for outcomes that used to end requests inconsistently
(a leaked pending budget, a mislabelled shed, a refused submit counted as
accepted, batches stranded behind a dead worker, a restarted service
whose worker exited on a stale stop sentinel, answers counted only after
their callers saw them), then a hypothesis state machine that drives the
service through submits, dedup, deadlines, swaps, evictions, rollouts,
faults and stops, and checks the serve invariants after every step:

* no future is settled twice,
* the pending budget stays within ``[0, max_pending]``,
* no live cache entry disagrees with the current model,
* every dedup follower gets its primary's outcome,

and, once the service is quiet, that every accepted future is settled
and the request/response counters match what the callers saw.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.serve.service as service_module
from repro.core import BinarySom, SomClassifier
from repro.core.snapshot import ModelSnapshot
from repro.datasets import make_signature_clusters
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
    UnknownModelError,
)
from repro.serve import (
    CACHE_CODEC,
    KERNEL_HANG,
    KERNEL_RAISE,
    SHARD_DEATH,
    BreakerConfig,
    ClassificationRequest,
    FaultInjector,
    FaultSpec,
    MicroBatch,
    ModelRegistry,
    PendingResult,
    RolloutConfig,
    ServiceConfig,
    StreamingInferenceService,
    SupervisorConfig,
)

N_BITS = 128


def signature(index: int) -> np.ndarray:
    """Distinct bit patterns, so distinct indices never share a cache key."""
    bits = np.zeros(N_BITS, dtype=np.uint8)
    bits[index % N_BITS] = 1
    bits[(index * 7 + 3) % N_BITS] = 1
    return bits


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _service(classifier, *, clock=time.monotonic, injector=None, **config_kwargs):
    """A one-model service that batches only when told to (flush or size)."""
    config_kwargs.setdefault("batch_size", 256)
    config_kwargs.setdefault("max_delay_ms", 60_000.0)
    config_kwargs.setdefault("n_shards", 1)
    config = ServiceConfig(fault_injector=injector, **config_kwargs)
    service = StreamingInferenceService(config=config, clock=clock)
    service.register_model("m", classifier)
    return service


def _counter(service, name: str) -> float:
    return service.obs.registry.get(name).value


# --------------------------------------------------------------------- #
# Regression tests
# --------------------------------------------------------------------- #
def test_a_future_settles_exactly_once():
    pending = PendingResult()
    first = ValueError("first")
    pending.set_exception(first)
    with pytest.raises(ServiceError):
        pending.set_exception(ValueError("second"))
    with pytest.raises(ServiceError):
        pending.set_result(None)
    with pytest.raises(ValueError) as excinfo:
        pending.result(0.1)
    assert excinfo.value is first


def test_resolve_requests_answers_primaries_then_followers(trained_bsom_classifier):
    def request(index: int, enqueued_at: float) -> ClassificationRequest:
        bits = signature(index)
        return ClassificationRequest(
            signature=bits, model="m", stream_id="cam", request_id=index,
            cache_key=bits.tobytes(), enqueued_at=enqueued_at,
        )

    primaries = [request(0, 1.0), request(1, 2.0)]
    follower = request(2, 3.0)
    primaries[0].followers.append(follower)
    prediction = trained_bsom_classifier.predict_batch(
        np.stack([signature(0), signature(1)])
    )
    responses = service_module.resolve_requests(primaries, prediction, clock=lambda: 5.0)
    assert [r.request_id for r in responses] == [0, 1, 2]
    assert [r.latency_s for r in responses] == [4.0, 3.0, 2.0]
    assert [r.deduplicated for r in responses] == [False, False, True]
    assert responses[2].label == responses[0].label == int(prediction.labels[0])
    assert [each.pending.result(0.0) for each in (*primaries, follower)] == responses


def test_standalone_registry_settles_on_its_own_clock(trained_bsom_classifier):
    clock = ManualClock()
    clock.advance(10.0)
    registry = ModelRegistry(n_shards=1, clock=clock)
    registry.register("m", trained_bsom_classifier)
    bits = signature(0)
    request = ClassificationRequest(
        signature=bits, model="m", stream_id="cam", request_id=0,
        cache_key=bits.tobytes(), enqueued_at=4.0,
    )
    registry.submit(MicroBatch("m", (request,), capacity=1, flushed_by="size"))
    registry.start()
    try:
        assert request.pending.result(10.0).latency_s == 6.0
    finally:
        registry.stop()


def test_racing_settles_have_exactly_one_winner():
    futures = [PendingResult() for _ in range(300)]
    wins = [0] * len(futures)
    refusals = []
    start = threading.Barrier(8)

    def settle_all(worker: int) -> None:
        start.wait(5.0)
        for index, future in enumerate(futures):
            try:
                future.set_exception(ValueError(worker))
            except ServiceError:
                refusals.append(index)
            else:
                wins[index] += 1  # only the winner writes this slot

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=settle_all, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wins == [1] * len(futures)
    assert len(refusals) == 7 * len(futures)


def test_answer_path_fault_fails_the_batch_and_returns_its_budget(
    trained_bsom_classifier, monkeypatch
):
    fault = RuntimeError("answer-path fault")
    real = service_module.resolve_requests
    raised = []

    def raise_once(requests, outcome, **kwargs):
        if not raised and not isinstance(outcome, BaseException):
            raised.append(outcome)
            raise fault
        return real(requests, outcome, **kwargs)

    monkeypatch.setattr(service_module, "resolve_requests", raise_once)
    service = _service(trained_bsom_classifier, batch_size=4, max_pending=64)
    with service:
        # The fourth submit fills the batch and dispatches it.
        futures = [service.submit(signature(i), model="m") for i in range(4)]
        for future in futures:
            with pytest.raises(RuntimeError) as excinfo:
                future.result(10.0)
            assert excinfo.value is fault
        assert raised, "the answer path never ran"
        assert service.pending_requests == 0
        assert not service._inflight
        follow_up = service.submit(signature(4), model="m")
        service.flush()
        assert follow_up.result(10.0).label == trained_bsom_classifier.predict(
            signature(4)[np.newaxis, :]
        )[0]


def test_shed_reason_follows_the_error_type(trained_bsom_classifier):
    def reasons(service):
        return [event.fields["reason"] for event in service.obs.events.events(kind="shed")]

    # Every shard out of service after admission: the dispatch raises
    # CircuitOpenError, and the shed is an open circuit, not full queues.
    service = _service(trained_bsom_classifier, n_shards=2)
    with service:
        future = service.submit(signature(0), model="m")
        for _, shard in service.registry.iter_shards():
            shard.disable(ShardFailedError(shard.name, "disabled"))
        service.flush()
        with pytest.raises(CircuitOpenError):
            future.result(5.0)
        assert reasons(service) == ["circuit_open"]
        assert service.metrics_snapshot().backpressure_rejections == 1

    # A wedged worker plus a one-deep queue: the third batch finds the
    # queue full.
    injector = FaultInjector(specs=[FaultSpec(KERNEL_HANG, hang_s=0.3, max_fires=1)])
    service = _service(
        trained_bsom_classifier, injector=injector, shard_queue_capacity=1, supervisor=None
    )
    with service:
        futures = []
        for index in range(3):
            futures.append(service.submit(signature(index), model="m"))
            service.flush()
            time.sleep(0.05)  # let the worker take the first batch into the hang
        with pytest.raises(ServiceOverloadedError) as excinfo:
            futures[2].result(5.0)
        assert type(excinfo.value) is ServiceOverloadedError
        assert reasons(service) == ["shard_queues"]
        assert [future.result(5.0).cached for future in futures[:2]] == [False, False]

    # An expired deadline, then a full pending budget.
    clock = ManualClock()
    service = _service(trained_bsom_classifier, clock=clock, max_pending=1)
    with service:
        late = service.submit(signature(0), model="m", deadline_s=1.0)
        with pytest.raises(ServiceOverloadedError):
            service.submit(signature(1), model="m")
        clock.advance(2.0)
        service.flush()
        with pytest.raises(DeadlineExceededError):
            late.result(5.0)
        assert reasons(service) == ["pending_budget", "deadline_exceeded"]
        snapshot = service.metrics_snapshot()
        assert snapshot.backpressure_rejections == 1
        assert snapshot.deadline_exceeded == 1


def test_submit_refused_by_a_racing_stop_is_not_counted(trained_bsom_classifier):
    service = _service(trained_bsom_classifier).start()
    lookup = service.cache.get

    def lookup_then_stop(model, key):
        outcome = lookup(model, key)
        service.stop()  # stop() wins the race while the submit is mid-flight
        return outcome

    service.cache.get = lookup_then_stop
    with pytest.raises(ServiceError) as excinfo:
        service.submit(signature(0), model="m")
    assert type(excinfo.value) is ServiceError
    assert _counter(service, "serve_requests_total") == 0
    assert _counter(service, "serve_cache_misses_total") == 0
    assert _counter(service, "serve_responses_total") == 0
    assert service.pending_requests == 0
    assert not service._inflight


def test_stop_fails_the_batches_a_dead_worker_left(trained_bsom_classifier):
    # Nothing supervises the shard: only stop() can end these requests.
    injector = FaultInjector(specs=[FaultSpec(SHARD_DEATH, max_fires=1)])
    service = _service(
        trained_bsom_classifier, injector=injector, batch_size=1, supervisor=None
    )
    with service:
        held = service.submit(signature(0), model="m")  # the worker dies with it
        _, shard = service.registry.iter_shards()[0]
        deadline = time.monotonic() + 5.0
        while shard.thread_alive and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not shard.thread_alive
        queued = service.submit(signature(1), model="m")  # queued behind it
    for future in (held, queued):
        with pytest.raises(ShardFailedError):
            future.result(1.0)
    assert service.pending_requests == 0


def test_a_service_restarted_after_a_worker_died_answers(trained_bsom_classifier):
    # The stop sentinel meant for the dead worker must not be left for
    # the worker a later start() brings up.
    injector = FaultInjector(specs=[FaultSpec(SHARD_DEATH, max_fires=1)])
    service = _service(
        trained_bsom_classifier, injector=injector, batch_size=1, supervisor=None
    )
    service.start()
    held = service.submit(signature(0), model="m")  # the worker dies with it
    _, shard = service.registry.iter_shards()[0]
    deadline = time.monotonic() + 5.0
    while shard.thread_alive and time.monotonic() < deadline:
        time.sleep(0.005)
    assert not shard.thread_alive
    service.stop()
    with pytest.raises(ShardFailedError):
        held.result(1.0)
    with service:
        answer = service.submit(signature(1), model="m").result(2.0)
    assert answer.label == trained_bsom_classifier.predict(signature(1)[np.newaxis, :])[0]


def test_responses_are_counted_before_their_futures_are_set(
    trained_bsom_classifier, monkeypatch
):
    service = _service(trained_bsom_classifier, batch_size=4)
    latency = service.obs.registry.get("serve_request_latency_seconds")
    seen = []
    real = PendingResult.set_result

    def reading_set_result(pending, response):
        seen.append((_counter(service, "serve_responses_total"), latency.count))
        real(pending, response)

    monkeypatch.setattr(PendingResult, "set_result", reading_set_result)
    with service:
        # The fourth submit fills the batch and dispatches it.
        futures = [service.submit(signature(i), model="m") for i in range(4)]
        for future in futures:
            future.result(5.0)
    assert seen == [(4, 4)] * 4


# --------------------------------------------------------------------- #
# Stateful proof of the serve invariants
# --------------------------------------------------------------------- #
POOL = [signature(index) for index in range(5)]
MAX_PENDING = 6


@functools.lru_cache(maxsize=None)
def _snapshots() -> tuple[ModelSnapshot, ModelSnapshot]:
    """Two maps that disagree on some signatures, fitted once."""
    X, y = make_signature_clusters(
        n_identities=3, samples_per_identity=20, n_bits=N_BITS, core_bits=20,
        shared_bits=15, seed=5,
    )
    first = SomClassifier(BinarySom(8, N_BITS, seed=1)).fit(X, y, epochs=4, seed=2)
    second = SomClassifier(BinarySom(12, N_BITS, seed=9)).fit(X, y, epochs=4, seed=3)
    return ModelSnapshot.of(first), ModelSnapshot.of(second)


def _outcome(future: PendingResult):
    """A settled future's outcome, comparable across primary and follower."""
    try:
        response = future.result(0.0)
    except ReproError as error:
        return ("error", error)
    return ("ok", response.label, response.neuron, response.distance,
            response.rejected, response.confidence)


def _answered(future: PendingResult) -> bool:
    return _outcome(future)[0] == "ok"


class ServeMachine(RuleBasedStateMachine):
    """Drives one service at a time; a stop starts a fresh one."""

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()
        self.settles: dict[int, int] = {}
        self.settled: list[PendingResult] = []  # keeps ids from being reused
        self.groups: list[tuple[PendingResult, list[PendingResult]]] = []
        self._real_settle = PendingResult._settle
        self._real_resolve = service_module.resolve_requests
        self._real_kernel = SomClassifier.predict_batch_packed
        # Armed by swap_mid_kernel: shard workers entering the kernel wait
        # at this gate, holding the map they read before the swap.
        self.gated = False
        self.in_kernel = threading.Event()
        self.release = threading.Event()
        machine = self

        def counting_settle(pending, response, error):
            with machine.lock:
                machine.settles[id(pending)] = machine.settles.get(id(pending), 0) + 1
                machine.settled.append(pending)
            machine._real_settle(pending, response, error)

        def recording_resolve(requests, outcome, **kwargs):
            responses = machine._real_resolve(requests, outcome, **kwargs)
            with machine.lock:
                machine.groups.extend(
                    (request.pending, [f.pending for f in request.followers])
                    for request in requests
                    if request.followers
                )
            return responses

        def gated_kernel(classifier, words):
            if machine.gated and threading.current_thread().name.startswith("shard-"):
                machine.in_kernel.set()
                machine.release.wait(10.0)
            return machine._real_kernel(classifier, words)

        PendingResult._settle = counting_settle
        service_module.resolve_requests = recording_resolve
        SomClassifier.predict_batch_packed = gated_kernel
        self._fresh_service()

    def _fresh_service(self) -> None:
        self.clock = ManualClock()
        self.injector = FaultInjector(seed=3)
        self.service = StreamingInferenceService(
            config=ServiceConfig(
                batch_size=3,
                max_delay_ms=1e9,  # only size cuts and flushes form batches
                cache_capacity=3,
                n_shards=2,
                shard_queue_capacity=2,
                max_pending=MAX_PENDING,
                trace_sample_every=1,
                breaker=BreakerConfig(failure_threshold=1, reset_timeout_s=0.5),
                supervisor=SupervisorConfig(
                    interval_s=3600.0, hang_timeout_s=3600.0, max_restarts=2
                ),
                fault_injector=self.injector,
            ),
            clock=self.clock,
        )
        self.service.register_model("m", _snapshots()[0])
        self.rollouts = self.service.enable_rollouts(
            RolloutConfig(auto=False, rollback_on_breaker=False)
        )
        self.accepted: list[PendingResult] = []
        submit = self.service.submit

        def recording_submit(*args, **kwargs):
            future = submit(*args, **kwargs)
            self.accepted.append(future)
            return future

        # submit_many submits through this attribute, so it is counted too.
        self.service.submit = recording_submit
        self.service.start()

    def teardown(self) -> None:
        try:
            self.service.stop()
            assert all(future.done() for future in self.accepted), "stop stranded a future"
        finally:
            PendingResult._settle = self._real_settle
            service_module.resolve_requests = self._real_resolve
            SomClassifier.predict_batch_packed = self._real_kernel

    @property
    def registered(self) -> bool:
        return "m" in self.service.registry

    @property
    def rolling_out(self) -> bool:
        return self.rollouts.status("m") is not None

    # -- traffic --------------------------------------------------------- #
    @rule(index=st.integers(0, len(POOL) - 1), deadline=st.sampled_from([None, 0.2, 1.0]))
    def submit(self, index, deadline):
        try:
            self.service.submit(POOL[index], model="m", deadline_s=deadline)
        except ServiceError:  # refused: budget, circuit, or model gone
            pass

    @rule(
        indices=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6),
        deadline=st.sampled_from([None, 0.2, 1.0]),
    )
    def submit_many(self, indices, deadline):
        rows = np.stack([POOL[index] for index in indices])
        try:
            self.service.submit_many(
                rows, model="m", deadline_s=deadline, drain_timeout_s=0.01
            )
        except ServiceError:
            pass

    @rule(seconds=st.sampled_from([0.1, 0.3, 0.6]))
    def advance_clock(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def flush(self):
        self.service.flush()

    # -- model lifecycle ------------------------------------------------- #
    @precondition(lambda self: self.registered)
    @rule(which=st.integers(0, 1))
    def swap(self, which):
        self.service.swap_model("m", _snapshots()[which])

    @precondition(lambda self: self.registered)
    @rule(which=st.integers(0, 1))
    def swap_mid_kernel(self, which):
        """Swap while a worker scores a batch with the map being replaced."""
        self.in_kernel.clear()
        self.release.clear()
        self.gated = True
        try:
            self.submit_many(list(range(len(POOL))), None)
            self.service.flush()
            self.in_kernel.wait(0.25)
            self.service.swap_model("m", _snapshots()[which])
        finally:
            self.gated = False
            self.release.set()
        self.quiesce()

    @precondition(lambda self: self.registered)
    @rule()
    def evict(self):
        self.service.evict_model("m")

    @precondition(lambda self: not self.registered)
    @rule(which=st.integers(0, 1))
    def register(self, which):
        self.service.register_model("m", _snapshots()[which])

    @precondition(lambda self: self.registered and not self.rolling_out)
    @rule(which=st.integers(0, 1))
    def begin_rollout(self, which):
        self.rollouts.begin("m", _snapshots()[which])

    @precondition(lambda self: self.rolling_out)
    @rule()
    def promote(self):
        try:
            self.rollouts.promote("m")
        except UnknownModelError:  # evicted mid-rollout: demoted instead
            pass

    @precondition(lambda self: self.rolling_out)
    @rule()
    def demote(self):
        self.rollouts.demote("m")

    # -- faults ---------------------------------------------------------- #
    @rule(site=st.sampled_from([KERNEL_RAISE, SHARD_DEATH, CACHE_CODEC]))
    def inject(self, site):
        """Arm one more firing of ``site``."""
        self.injector.arm(FaultSpec(site, max_fires=self.injector.fired(site) + 1))

    @rule()
    def scan(self):
        self.service._supervisor.scan()

    # -- quiet points ---------------------------------------------------- #
    @precondition(lambda self: self.accepted)
    @rule()
    def quiesce(self):
        self.service.flush()
        deadline = time.monotonic() + 10.0
        while not all(future.done() for future in self.accepted):
            assert time.monotonic() < deadline, "a future was never settled"
            self.service._supervisor.scan()  # replace workers that died
            time.sleep(0.002)
        self._check_quiet()

    @precondition(lambda self: len(self.accepted) >= 6)
    @rule()
    def stop(self):
        self.service.stop()
        assert all(future.done() for future in self.accepted), "stop stranded a future"
        self._check_quiet()
        self._fresh_service()

    def _check_quiet(self) -> None:
        assert self.service.pending_requests == 0
        assert _counter(self.service, "serve_requests_total") == len(self.accepted)
        assert _counter(self.service, "serve_responses_total") == sum(
            map(_answered, self.accepted)
        )

    # -- invariants ------------------------------------------------------ #
    @invariant()
    def no_future_settled_twice(self):
        with self.lock:
            assert all(count == 1 for count in self.settles.values())

    @invariant()
    def pending_budget_conserved(self):
        assert 0 <= self.service.pending_requests <= MAX_PENDING

    @invariant()
    def cache_agrees_with_the_current_model(self):
        cache = self.service.cache
        with cache._lock:
            entries = list(cache._entries.items())
        for (model, key), cached in entries:
            assert model in self.service.registry, "cache entry of an evicted model"
            words = np.frombuffer(key, dtype=np.uint64)[np.newaxis, :]
            expected = self.service.registry.classifier(model).predict_batch_packed(words)
            assert (cached.label, cached.neuron, cached.distance, cached.rejected,
                    cached.confidence) == (
                int(expected.labels[0]), int(expected.neurons[0]),
                float(expected.distances[0]), bool(expected.rejected[0]),
                float(expected.confidences[0]),
            )

    @invariant()
    def followers_share_their_primary_outcome(self):
        with self.lock:
            groups = list(self.groups)
        for primary, followers in groups:
            for follower in followers:
                assert _outcome(follower) == _outcome(primary)


ServeMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestServeInvariants = ServeMachine.TestCase
