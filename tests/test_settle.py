"""The serve layer's one settle path.

Regression tests for outcomes that used to end requests inconsistently
(a leaked pending budget, a mislabelled shed, an admitted request shed
for queue space, a refused submit counted as accepted, batches stranded
behind a dead worker, a restarted service whose worker exited on a stale
stop sentinel, a worker restarted on a shard group an eviction was
tearing down, answers counted only after their callers saw them), then a
hypothesis state machine that drives the service through submits, dedup,
deadlines, swaps, evictions, rollouts, faults and stops, and checks the
serve invariants after every step:

* no future is settled twice,
* the pending budget stays within ``[0, max_pending]``,
* no live cache entry disagrees with the current model,
* every dedup follower gets its primary's outcome,
* no accepted future ends in a plain ``ServiceOverloadedError`` (the
  pending budget is the one admission point),

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
from repro.obs import Observability
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
from repro.serve.cache import CachedOutcome
from repro.signatures import packed_signature_words

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


def _service(classifier, *, clock=time.monotonic, injector=None, obs=None, **config_kwargs):
    """A one-model service that batches only when told to (flush or size)."""
    config_kwargs.setdefault("batch_size", 256)
    config_kwargs.setdefault("max_delay_ms", 60_000.0)
    config_kwargs.setdefault("n_shards", 1)
    config = ServiceConfig(fault_injector=injector, **config_kwargs)
    service = StreamingInferenceService(config=config, clock=clock, obs=obs)
    service.register_model("m", classifier)
    return service


def _counter(service, name: str) -> float:
    return service.obs.registry.get(name).value


# --------------------------------------------------------------------- #
# Regression tests
# --------------------------------------------------------------------- #
def test_a_future_settles_exactly_once():
    pending = PendingResult()
    assert not pending.done()
    first = ValueError("first")
    pending.set_exception(first)
    assert pending.done()
    with pytest.raises(ServiceError):
        pending.set_exception(ValueError("second"))
    with pytest.raises(ServiceError):
        pending.set_result(None)
    assert pending.done()
    with pytest.raises(ValueError) as excinfo:
        pending.result(0.1)
    assert excinfo.value is first


def test_resolve_requests_answers_primaries_then_followers(trained_bsom_classifier):
    def request(index: int, enqueued_at: float) -> ClassificationRequest:
        bits = signature(index)
        return ClassificationRequest(
            packed=packed_signature_words(bits), model="m", stream_id="cam",
            request_id=index, cache_key=bits.tobytes(), enqueued_at=enqueued_at,
        )

    primaries = [request(0, 1.0), request(1, 2.0)]
    follower = request(2, 3.0)
    primaries[0].followers = [follower]  # made when the first follower attaches
    prediction = trained_bsom_classifier.predict_batch(
        np.stack([signature(0), signature(1)])
    )
    responses = service_module.resolve_requests(primaries, prediction, clock=lambda: 5.0)
    assert [r.request_id for r in responses] == [0, 1, 2]
    assert [r.latency_s for r in responses] == [4.0, 3.0, 2.0]
    assert [r.deduplicated for r in responses] == [False, False, True]
    assert responses[2].label == responses[0].label == int(prediction.labels[0])
    assert [each.pending.result(0.0) for each in (*primaries, follower)] == responses


def test_a_batch_settles_in_one_pass_with_every_answer_field(
    trained_bsom_classifier, monkeypatch
):
    # A cache answer, three primaries, a follower of an earlier row of the
    # block and a follower of a request in flight; every other request
    # sampled.  The expected fields are those one response per row carried.
    returned = []
    real = service_module.resolve_requests

    def recording(requests, outcome, **kwargs):
        responses = real(requests, outcome, **kwargs)
        returned.append(responses)
        return responses

    monkeypatch.setattr(service_module, "resolve_requests", recording)
    service = _service(trained_bsom_classifier, obs=Observability(sample_every=2))
    with service:
        warm = service.submit(signature(0), model="m")  # request 0, then cached
        service.flush()
        warm.result(5.0)
        indices = [0, 1, 2, 1, 3]  # requests 1-5
        futures = service.submit_many(np.stack([signature(i) for i in indices]),
                                      model="m", stream_id="cam")
        late = service.submit(signature(2), model="m", stream_id="late")  # request 6
        service.flush()
        responses = [future.result(5.0) for future in (*futures, late)]
        traces = {r.request_id: service.obs.trace(r.trace_id) for r in responses if r.trace_id}
    prediction = trained_bsom_classifier.predict_batch(
        np.stack([signature(i) for i in (*indices, 2)])
    )
    for row, response in enumerate(responses):
        assert (response.label, response.neuron, response.distance, response.rejected,
                response.confidence) == (
            int(prediction.labels[row]), int(prediction.neurons[row]),
            float(prediction.distances[row]), bool(prediction.rejected[row]),
            float(prediction.confidences[row]),
        )
        assert list(map(type, response[:5])) == [int, int, float, bool, float]
        assert isinstance(response.latency_s, float) and response.latency_s >= 0.0
    assert [r.request_id for r in responses] == [1, 2, 3, 4, 5, 6]
    assert [r.model for r in responses] == ["m"] * 6
    assert [r.stream_id for r in responses] == ["cam"] * 5 + ["late"]
    assert [r.cached for r in responses] == [True, False, False, False, False, False]
    assert [r.deduplicated for r in responses] == [False, False, False, True, False, True]
    assert not any(r.stale for r in responses)
    # Every other request is sampled: requests 2, 4 and 6 of these.
    assert sorted(traces) == [2, 4, 6]
    assert all(trace.root.attrs["request_id"] == rid for rid, trace in traces.items())
    # The kernel batch's settle answered its primaries first, then followers.
    kernel = returned[-1]
    assert [(r.request_id, r.deduplicated) for r in kernel] == [
        (2, False), (3, False), (5, False), (4, True), (6, True)
    ]
    assert kernel == [responses[i] for i in (1, 2, 4, 3, 5)]


def test_a_kernel_batch_builds_its_outcome_rows_once(trained_bsom_classifier, monkeypatch):
    # The same rows answer the futures and fill the cache.
    built = []
    rows = CachedOutcome.rows.__func__

    def counting(cls, prediction):
        built.append(len(prediction.labels))
        return rows(cls, prediction)

    monkeypatch.setattr(CachedOutcome, "rows", classmethod(counting))
    service = _service(trained_bsom_classifier)
    with service:
        futures = service.submit_many(np.stack([signature(i) for i in range(4)]), model="m")
        service.flush()
        answers = sorted(tuple(future.result(5.0)[:5]) for future in futures)
    assert built == [4]
    assert sorted(service.cache._entries.values()) == answers


def test_standalone_registry_settles_on_its_own_clock(trained_bsom_classifier):
    clock = ManualClock()
    clock.advance(10.0)
    registry = ModelRegistry(n_shards=1, clock=clock)
    registry.register("m", trained_bsom_classifier)
    bits = signature(0)
    request = ClassificationRequest(
        packed=packed_signature_words(bits), model="m", stream_id="cam",
        request_id=0, cache_key=bits.tobytes(), enqueued_at=4.0,
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
    winners = [None] * len(futures)
    refusals = []
    seen: list[list] = [[], []]  # what each of two waiters got, in order
    start = threading.Barrier(8 + len(seen))

    def settle_all(worker: int) -> None:
        start.wait(5.0)
        for index, future in enumerate(futures):
            try:
                future.set_exception(ValueError(worker))
            except ServiceError:
                refusals.append(index)
            else:
                wins[index] += 1  # only the winner writes this slot
                winners[index] = worker

    def wait_all(got: list) -> None:
        start.wait(5.0)
        for future in futures:
            try:
                future.result()  # no timeout: a missed wake-up hangs the waiter
            except ValueError as error:
                got.append(error.args[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=settle_all, args=(w,)) for w in range(8)]
        threads += [
            threading.Thread(target=wait_all, args=(got,), daemon=True) for got in seen
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wins == [1] * len(futures)
    assert len(refusals) == 7 * len(futures)
    assert seen == [winners, winners]  # every waiter saw the winning settle


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
    # CircuitOpenError, the shed is an open circuit, and the batch that
    # reached no shard is not counted as dispatched.
    service = _service(trained_bsom_classifier, n_shards=2)
    with service:
        future = service.submit(signature(0), model="m")
        for _, shard in service.registry.iter_shards():
            shard.disable(ShardFailedError(shard.name, "disabled"))
        service.flush()
        with pytest.raises(CircuitOpenError):
            future.result(5.0)
        assert reasons(service) == ["circuit_open"]
        snapshot = service.metrics_snapshot()
        assert snapshot.backpressure_rejections == 1
        assert snapshot.batches_total == 0

    # A wedged worker holds one batch; the twelve one-row batches flushed
    # behind it -- more than a shard queue used to hold -- wait in the
    # ready queue and are answered once the hang ends, none shed.
    injector = FaultInjector(specs=[FaultSpec(KERNEL_HANG, hang_s=0.3, max_fires=1)])
    service = _service(
        trained_bsom_classifier, injector=injector, batch_size=1, supervisor=None
    )
    with service:
        futures = [service.submit(signature(0), model="m")]
        _, shard = service.registry.iter_shards()[0]
        deadline = time.monotonic() + 5.0
        while shard.busy_seconds(time.monotonic()) is None:
            assert time.monotonic() < deadline, "the worker never took the batch"
            time.sleep(0.005)
        for index in range(1, 13):
            futures.append(service.submit(signature(index), model="m"))
            service.flush()
        answers = [future.result(5.0) for future in futures]
        assert [answer.cached for answer in answers] == [False] * 13
        assert reasons(service) == []
        assert service.metrics_snapshot().backpressure_rejections == 0

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


def test_a_scan_racing_an_evict_restarts_no_worker(trained_bsom_classifier):
    # The supervisor lists a shard whose worker died, then evict_model
    # stops the shard before the scan acts on it: the scan must not start
    # a replacement on the torn-down group, which nothing would ever stop.
    injector = FaultInjector(specs=[FaultSpec(SHARD_DEATH, max_fires=1)])
    service = _service(
        trained_bsom_classifier, injector=injector, batch_size=1,
        supervisor=SupervisorConfig(interval_s=3600.0, hang_timeout_s=3600.0),
    )
    service.start()
    held = service.submit(signature(0), model="m")  # the worker dies with it
    _, shard = service.registry.iter_shards()[0]
    deadline = time.monotonic() + 5.0
    while shard.thread_alive and time.monotonic() < deadline:
        time.sleep(0.005)
    assert not shard.thread_alive
    listed, resume = threading.Event(), threading.Event()
    busy_seconds = shard.busy_seconds

    def held_busy_seconds(now):
        listed.set()  # the scan has passed its supervisable check
        resume.wait(5.0)
        return busy_seconds(now)

    shard.busy_seconds = held_busy_seconds
    restarts = []
    scan = threading.Thread(target=lambda: restarts.append(service._supervisor.scan()))
    scan.start()
    try:
        assert listed.wait(5.0)
        service.evict_model("m")
    finally:
        resume.set()
        scan.join(5.0)
        service.stop()
    assert restarts == [0]
    assert not [t.name for t in threading.enumerate() if t.name.startswith("shard-m/0-r")]
    assert _counter(service, "serve_shard_restarts_total") == 0
    with pytest.raises(ShardFailedError):
        held.result(1.0)


def test_responses_are_counted_before_their_futures_are_set(
    trained_bsom_classifier, monkeypatch
):
    service = _service(trained_bsom_classifier, batch_size=4)
    latency = service.obs.registry.get("serve_request_latency_seconds")
    seen = []
    real = PendingResult._settle

    def reading_settle(pending, response, error):
        # Each future's step inside the batch's one settle section.
        seen.append((_counter(service, "serve_responses_total"), latency.count))
        real(pending, response, error)

    monkeypatch.setattr(PendingResult, "_settle", reading_settle)
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
                max_pending=MAX_PENDING,
                breaker=BreakerConfig(failure_threshold=1, reset_timeout_s=0.5),
                supervisor=SupervisorConfig(
                    interval_s=3600.0, hang_timeout_s=3600.0, max_restarts=2
                ),
                fault_injector=self.injector,
            ),
            clock=self.clock,
            obs=Observability(sample_every=1, clock=self.clock),
        )
        self.service.register_model("m", _snapshots()[0])
        self.rollouts = self.service.enable_rollouts(
            RolloutConfig(auto=False, rollback_on_breaker=False)
        )
        self.accepted: list[PendingResult] = []
        submit, submit_many = self.service.submit, self.service.submit_many

        def recording_submit(*args, **kwargs):
            future = submit(*args, **kwargs)
            self.accepted.append(future)
            return future

        def recording_submit_many(*args, **kwargs):
            futures = submit_many(*args, **kwargs)
            self.accepted.extend(futures)
            return futures

        self.service.submit = recording_submit
        self.service.submit_many = recording_submit_many
        self.service.start()

    def teardown(self) -> None:
        try:
            self.service.stop()
            assert all(future.done() for future in self.accepted), "stop stranded a future"
            self.no_admitted_request_shed_for_queue_space()
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
        requests = _counter(self.service, "serve_requests_total")
        pending = self.service.pending_requests
        try:
            self.service.submit_many(rows, model="m", deadline_s=deadline)
        except ServiceError:
            # Refused whole: no row of the block was admitted.
            assert _counter(self.service, "serve_requests_total") == requests
            assert self.service.pending_requests <= pending

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
        self.no_admitted_request_shed_for_queue_space()
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
    def no_admitted_request_shed_for_queue_space(self):
        # The pending budget is the one admission point: a plain
        # ServiceOverloadedError refuses a submit, never an accepted
        # future.  CircuitOpenError, its subclass, stays legal for a batch
        # cut while every shard is gated off.
        for future in self.accepted:
            if future.done():
                kind, *detail = _outcome(future)
                assert not (kind == "error" and type(detail[0]) is ServiceOverloadedError), (
                    "an admitted request was shed for queue space"
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
