"""Trace propagation through the streaming service (repro.obs x repro.serve).

The edge cases the observability layer exists for: complete span chains
retrievable by ``trace_id``, dedup followers linking to the primary's
kernel span, traces spanning a mid-flight hot-swap, evicted requests
still emitting terminal spans, and the completed-trace ring staying
bounded under load.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import SomClassifier
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    ModelEvictedError,
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.obs import Observability
from repro.obs.export import parse_prometheus
from repro.pipeline.metrics import PipelineMetrics
from repro.serve import (
    KERNEL_RAISE,
    BreakerConfig,
    FaultInjector,
    FaultSpec,
    ServiceConfig,
    StreamingInferenceService,
)


def unique_signature(index: int, n_bits: int = 128) -> np.ndarray:
    """Distinct bit patterns so no two requests cache-hit or dedup."""
    bits = np.zeros(n_bits, dtype=np.uint8)
    bits[index % n_bits] = 1
    bits[(index * 7 + 3) % n_bits] = 1
    return bits


@pytest.fixture()
def traced_service(trained_bsom_classifier):
    """A running service tracing every request (sample_every=1)."""
    config = ServiceConfig(batch_size=8, max_delay_ms=2.0, n_shards=1)
    service = StreamingInferenceService(config=config, obs=Observability(sample_every=1))
    service.register_model("m", trained_bsom_classifier)
    with service:
        yield service


class TestRequestTrace:
    def test_single_request_full_span_chain(self, traced_service, cluster_data):
        X, _ = cluster_data
        future = traced_service.submit(X[0], model="m", stream_id="cam-0")
        traced_service.flush()
        response = future.result(5.0)

        assert response.trace_id is not None
        trace = traced_service.obs.trace(response.trace_id)
        assert trace is not None
        assert trace.status == "ok"
        assert trace.span_names() == ("request", "queue", "batch", "kernel")
        # Stage boundaries are consistent: queue ends where batch starts,
        # batch ends where the kernel starts, all inside the root span.
        queue, batch, kernel = (
            trace.find("queue"), trace.find("batch"), trace.find("kernel")
        )
        assert queue.end_s == batch.start_s
        assert batch.end_s == kernel.start_s
        assert trace.root.start_s <= queue.start_s
        assert kernel.end_s <= trace.root.end_s
        # The kernel span records where and with what the work ran.
        assert kernel.attrs["shard"].startswith("m/")
        assert kernel.attrs["model"] == "m"
        assert kernel.attrs["batch_size"] >= 1
        assert trace.root.attrs["stream_id"] == "cam-0"
        assert trace.root.attrs["label"] == response.label

    def test_cache_hit_trace(self, traced_service, cluster_data):
        X, _ = cluster_data
        first = traced_service.submit(X[0], model="m")
        traced_service.flush()
        first.result(5.0)

        hit = traced_service.submit(X[0], model="m").result(5.0)
        assert hit.cached
        trace = traced_service.obs.trace(hit.trace_id)
        assert trace.span_names() == ("request", "cache")
        assert trace.find("cache").attrs == {"hit": True}
        assert trace.status == "ok"
        assert trace.root.attrs["cached"] is True

    def test_unsampled_requests_have_no_trace_id(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        config = ServiceConfig(batch_size=4)
        service = StreamingInferenceService(config=config, obs=Observability(sample_every=0))
        service.register_model("m", trained_bsom_classifier)
        with service:
            future = service.submit(X[0], model="m")
            service.flush()
            assert future.result(5.0).trace_id is None
        assert service.obs.tracer.completed_count == 0

    def test_sampling_rate_traces_every_nth(self, trained_bsom_classifier):
        config = ServiceConfig(batch_size=64)
        service = StreamingInferenceService(config=config, obs=Observability(sample_every=4))
        service.register_model("m", trained_bsom_classifier)
        with service:
            futures = [
                service.submit(unique_signature(index), model="m")
                for index in range(12)
            ]
            service.flush()
            responses = [future.result(5.0) for future in futures]
        traced = [r.trace_id is not None for r in responses]
        assert traced == [True, False, False, False] * 3


class TestDedupFollowerTrace:
    def test_follower_links_to_primary_kernel_span(self, traced_service, cluster_data):
        X, _ = cluster_data
        # batch_size=8 > 2 pending submissions, so the primary sits in the
        # scheduler lane while the identical signature coalesces onto it.
        primary_future = traced_service.submit(X[3], model="m")
        follower_future = traced_service.submit(X[3], model="m")
        traced_service.flush()
        primary = primary_future.result(5.0)
        follower = follower_future.result(5.0)

        assert follower.deduplicated
        trace = traced_service.obs.trace(follower.trace_id)
        assert trace.status == "ok"
        assert trace.span_names() == ("request", "dedup")
        dedup = trace.find("dedup")
        assert dedup.attrs["primary_request_id"] == primary.request_id
        assert dedup.links == [{"trace_id": primary.trace_id, "span": "kernel"}]
        assert trace.root.attrs["deduplicated"] is True
        # The linked primary trace really does hold the kernel span.
        primary_trace = traced_service.obs.trace(primary.trace_id)
        assert primary_trace.find("kernel") is not None
        # And the coalesce left a structured event behind.
        dedup_events = traced_service.obs.events.events(kind="dedup")
        assert dedup_events and dedup_events[-1].fields["model"] == "m"


class TestLifecycleTraces:
    def test_trace_spans_hot_swap(self, traced_service, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        # The request is buffered in the lane (batch_size=8) when the swap
        # lands; it must ride through and resolve on the *new* classifier,
        # with its one trace covering both sides of the swap.
        future = traced_service.submit(X[5], model="m")
        swapped_version = trained_bsom_classifier.som.weights_version
        traced_service.swap_model("m", trained_bsom_classifier)
        traced_service.flush()
        response = future.result(5.0)

        trace = traced_service.obs.trace(response.trace_id)
        assert trace.status == "ok"
        assert trace.span_names() == ("request", "queue", "batch", "kernel")
        assert trace.find("kernel").attrs["weights_version"] == swapped_version
        kinds = [event.kind for event in traced_service.obs.events.events()]
        assert "model_swap" in kinds and "cache_invalidate" in kinds
        assert kinds.index("model_swap") < kinds.index("cache_invalidate")

    def test_evicted_requests_emit_terminal_spans(self, traced_service, cluster_data):
        X, _ = cluster_data
        future = traced_service.submit(X[7], model="m")
        trace_id = traced_service.obs.tracer.completed() or None
        traced_service.evict_model("m")
        with pytest.raises(ModelEvictedError):
            future.result(5.0)

        # The lane-buffered request still finished its trace: terminal
        # status, error type, and every span closed.
        completed = traced_service.obs.tracer.completed()
        assert completed, trace_id
        trace = completed[-1]
        assert trace.status == "error"
        assert trace.root.attrs["error"] == "ModelEvictedError"
        assert all(not span.open for span in trace.spans)
        kinds = [event.kind for event in traced_service.obs.events.events()]
        assert "evict" in kinds

    def test_pending_budget_shed_finishes_trace(self, trained_bsom_classifier):
        config = ServiceConfig(batch_size=64, max_pending=1)
        service = StreamingInferenceService(config=config, obs=Observability(sample_every=1))
        service.register_model("m", trained_bsom_classifier)
        with service:
            kept = service.submit(unique_signature(0), model="m")
            with pytest.raises(ServiceOverloadedError):
                service.submit(unique_signature(1), model="m")
            shed_traces = [
                trace for trace in service.obs.tracer.completed()
                if trace.status == "shed"
            ]
            assert len(shed_traces) == 1
            assert shed_traces[0].root.attrs["reason"] == "pending_budget"
            shed_events = service.obs.events.events(kind="shed")
            assert shed_events[-1].fields["reason"] == "pending_budget"
            service.flush()
            kept.result(5.0)


class TestRingAndExport:
    def test_completed_ring_bounded_under_load(self, trained_bsom_classifier):
        obs = Observability(sample_every=1, trace_capacity=8)
        # One shard and no deadline cuts: batches finish in submission
        # order, so the newest completed traces are the last responses.
        config = ServiceConfig(batch_size=16, max_delay_ms=60_000.0, n_shards=1)
        service = StreamingInferenceService(config=config, obs=obs)
        service.register_model("m", trained_bsom_classifier)
        with service:
            futures = [
                service.submit(unique_signature(index), model="m")
                for index in range(100)
            ]
            service.flush()
            responses = [future.result(5.0) for future in futures]

        assert obs.tracer.completed_count == 8
        assert obs.tracer.dropped_traces == 100 - 8
        # The ring keeps the newest traces; the oldest ids are gone.
        kept_ids = {trace.trace_id for trace in obs.tracer.completed()}
        assert kept_ids == {response.trace_id for response in responses[-8:]}
        assert obs.trace(responses[0].trace_id) is None

    def test_service_registry_renders_prometheus_with_p999(self, traced_service, cluster_data):
        X, _ = cluster_data
        futures = [traced_service.submit(X[index], model="m") for index in range(20)]
        traced_service.flush()
        for future in futures:  # the snapshot must see answered requests
            future.result(5.0)
        snapshot = traced_service.metrics_snapshot()
        assert snapshot.responses_total >= 1
        assert (
            snapshot.latency_p50_ms
            <= snapshot.latency_p99_ms
            <= snapshot.latency_p999_ms
        )
        samples = parse_prometheus(traced_service.obs.render_prometheus())
        assert samples[("serve_requests_total", ())] >= 20.0
        assert ("serve_request_latency_seconds_count", ()) in samples
        assert ("serve_pending_requests", ()) in samples

    def test_pipeline_metrics_share_service_registry(self, traced_service):
        pipeline = PipelineMetrics(registry=traced_service.obs.registry)
        pipeline.record_stage("background", 0.002)
        pipeline.record_frame(0.01)
        samples = parse_prometheus(traced_service.obs.render_prometheus())
        assert samples[("pipeline_frames_total", ())] == 1.0
        assert samples[
            ("pipeline_stage_seconds_total", (("stage", "background"),))
        ] == pytest.approx(0.002)
        # Both subsystems' metrics come out of one exporter pass.
        assert ("serve_requests_total", ()) in samples


# --------------------------------------------------------------------- #
# Every terminal path's trace
# --------------------------------------------------------------------- #
class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class KernelGate:
    """Holds shard workers inside the kernel until :meth:`open` is called."""

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Event()
        self.opened = threading.Event()
        real = SomClassifier.predict_batch_packed

        def gated(classifier, words):
            if threading.current_thread().name.startswith("shard-"):
                self.entered.set()
                self.opened.wait(10.0)
            return real(classifier, words)

        monkeypatch.setattr(SomClassifier, "predict_batch_packed", gated)

    def hold(self) -> None:
        assert self.entered.wait(5.0), "no worker entered the kernel"

    def open(self) -> None:
        self.opened.set()


def _path_service(classifier, *, clock=time.monotonic, **config_kwargs):
    """One model, one shard, every request traced, no deadline cuts."""
    config_kwargs.setdefault("batch_size", 64)
    config_kwargs.setdefault("max_delay_ms", 60_000.0)
    config_kwargs.setdefault("supervisor", None)
    service = StreamingInferenceService(
        config=ServiceConfig(n_shards=1, **config_kwargs),
        clock=clock,
        obs=Observability(sample_every=1, clock=clock),
    )
    service.register_model("m", classifier)
    return service


def _trace_of(service, request_id: int):
    traces = [trace for trace in service.obs.tracer.completed()
              if trace.root.attrs["request_id"] == request_id]
    assert len(traces) == 1, f"request {request_id} has {len(traces)} traces"
    return traces[0]


def _failed(future) -> BaseException:
    with pytest.raises(Exception) as excinfo:
        future.result(5.0)
    return excinfo.value


def _opened_breaker(classifier):
    """A service whose one breaker a failed kernel batch (request 0) opened."""
    injector = FaultInjector(seed=0)
    service = _path_service(
        classifier,
        breaker=BreakerConfig(failure_threshold=1, reset_timeout_s=600.0),
        fault_injector=injector,
    )
    return service, injector


def _path_kernel(classifier, monkeypatch):
    service = _path_service(classifier)
    with service:
        future = service.submit(unique_signature(0), model="m", stream_id="cam")
        service.flush()
        future.result(5.0)
    yield service, 0


def _path_drain_at_stop(classifier, monkeypatch):
    service = _path_service(classifier)
    service.start()
    future = service.submit(unique_signature(0), model="m", stream_id="cam")
    service.stop()
    future.result(5.0)
    yield service, 0


def _path_cache(classifier, monkeypatch):
    service = _path_service(classifier)
    with service:
        warm = service.submit(unique_signature(0), model="m")
        service.flush()
        warm.result(5.0)
        assert service.submit(unique_signature(0), model="m", stream_id="cam").result(5.0).cached
    yield service, 1


def _path_stale(classifier, monkeypatch):
    service, injector = _opened_breaker(classifier)
    with service:
        warm = service.submit(unique_signature(0), model="m")
        service.flush()
        warm.result(5.0)
        service.swap_model("m", classifier)  # the answer moves to the stale tier
        injector.arm(FaultSpec(KERNEL_RAISE, max_fires=1))
        failing = service.submit(unique_signature(1), model="m")
        service.flush()
        _failed(failing)
        response = service.submit(unique_signature(0), model="m", stream_id="cam").result(5.0)
        assert response.stale
    yield service, 2


def _path_follower(classifier, monkeypatch):
    service = _path_service(classifier)
    with service:
        primary = service.submit(unique_signature(3), model="m")
        follower = service.submit(unique_signature(3), model="m", stream_id="cam")
        service.flush()
        primary.result(5.0)
        assert follower.result(5.0).deduplicated
    yield service, 1


def _path_follower_of_evicted(classifier, monkeypatch):
    service = _path_service(classifier)
    with service:
        primary = service.submit(unique_signature(3), model="m")
        follower = service.submit(unique_signature(3), model="m", stream_id="cam")
        service.evict_model("m")
        assert isinstance(_failed(primary), ModelEvictedError)
        assert isinstance(_failed(follower), ModelEvictedError)
    yield service, 1


def _path_pending_budget(classifier, monkeypatch):
    service = _path_service(classifier, max_pending=1)
    with service:
        kept = service.submit(unique_signature(0), model="m")
        with pytest.raises(ServiceOverloadedError):
            service.submit(unique_signature(1), model="m", stream_id="cam")
        service.flush()
        kept.result(5.0)
    yield service, 1


def _path_circuit_open(classifier, monkeypatch):
    service, injector = _opened_breaker(classifier)
    with service:
        injector.arm(FaultSpec(KERNEL_RAISE, max_fires=1))
        failing = service.submit(unique_signature(0), model="m")
        service.flush()
        _failed(failing)
        with pytest.raises(CircuitOpenError):
            service.submit(unique_signature(1), model="m", stream_id="cam")
    yield service, 1


def _path_stop_race(classifier, monkeypatch):
    service = _path_service(classifier)
    service.start()
    real_get = service.cache.get

    def stop_then_get(model, key):  # stop() lands after the entry check
        service.stop()
        return real_get(model, key)

    monkeypatch.setattr(service.cache, "get", stop_then_get)
    with pytest.raises(ServiceError):
        service.submit(unique_signature(0), model="m", stream_id="cam")
    yield service, 0


def _path_dispatch_deadline(classifier, monkeypatch):
    clock = ManualClock()
    service = _path_service(classifier, clock=clock)
    with service:
        future = service.submit(unique_signature(0), model="m", stream_id="cam",
                                deadline_s=1.0)
        clock.advance(2.0)
        service.flush()
        assert isinstance(_failed(future), DeadlineExceededError)
    yield service, 0


def _path_lane_eviction(classifier, monkeypatch):
    service = _path_service(classifier)
    with service:
        future = service.submit(unique_signature(0), model="m", stream_id="cam")
        service.evict_model("m")
        assert isinstance(_failed(future), ModelEvictedError)
    yield service, 0


def _path_dispatch_refusal(classifier, monkeypatch):
    service = _path_service(classifier)
    with service:
        future = service.submit(unique_signature(0), model="m", stream_id="cam")
        shard = service.registry.group("m").shards[0]
        shard.disable(ShardFailedError(shard.name, "disabled"))  # no shard left
        service.flush()
        assert isinstance(_failed(future), CircuitOpenError)
    yield service, 0


def _path_shard_deadline(classifier, monkeypatch):
    clock = ManualClock()
    gate = KernelGate(monkeypatch)
    service = _path_service(classifier, clock=clock)
    with service:
        held = service.submit(unique_signature(0), model="m")
        service.flush()
        gate.hold()
        future = service.submit(unique_signature(1), model="m", stream_id="cam",
                                deadline_s=1.0)
        service.flush()  # dispatched in time, queued behind the held batch
        clock.advance(2.0)
        gate.open()
        held.result(5.0)
        assert isinstance(_failed(future), DeadlineExceededError)
    yield service, 1


def _path_kernel_error(classifier, monkeypatch):
    injector = FaultInjector(seed=0)
    injector.arm(FaultSpec(KERNEL_RAISE, max_fires=1))
    service = _path_service(classifier, fault_injector=injector)
    with service:
        future = service.submit(unique_signature(0), model="m", stream_id="cam")
        service.flush()
        assert isinstance(_failed(future), InjectedFaultError)
    yield service, 0


def _path_worker_abandoned(classifier, monkeypatch):
    gate = KernelGate(monkeypatch)
    service = _path_service(classifier)
    with service:
        future = service.submit(unique_signature(0), model="m", stream_id="cam")
        service.flush()
        gate.hold()
        shard = service.registry.group("m").shards[0]
        shard.abandon_current(ShardFailedError(shard.name, "wedged"))
        assert isinstance(_failed(future), ShardFailedError)
        yield service, 0
        gate.open()  # the abandoned worker's late answer is discarded


def _path_ready_queue_eviction(classifier, monkeypatch):
    gate = KernelGate(monkeypatch)
    service = _path_service(classifier)
    with service:
        held = service.submit(unique_signature(0), model="m")
        service.flush()
        gate.hold()
        future = service.submit(unique_signature(1), model="m", stream_id="cam")
        service.flush()  # queued behind the held batch
        evicting = threading.Thread(target=service.evict_model, args=("m",))
        evicting.start()
        assert isinstance(_failed(future), ModelEvictedError)
        gate.open()  # the held batch finishes, so the eviction can join its worker
        evicting.join(10.0)
        held.result(5.0)
    yield service, 1


_ROOT = ["model", "stream_id", "request_id"]
_KERNEL = ("request", "queue", "batch", "kernel")
#: path -> (the generator that walks it, span names, status, root attribute
#: names after the identity ones, and their values other than label).  The
#: generator yields the service and the request whose trace is checked,
#: then finishes the path.
TERMINAL_PATHS = {
    "kernel": (_path_kernel, _KERNEL, "ok", ["label"], {}),
    "drain_at_stop": (_path_drain_at_stop, _KERNEL, "ok", ["label"], {}),
    "cache": (_path_cache, ("request", "cache"), "ok", ["label", "cached"],
              {"cached": True}),
    "stale": (_path_stale, ("request", "cache"), "ok", ["label", "cached", "stale"],
              {"cached": True, "stale": True}),
    "follower": (_path_follower, ("request", "dedup"), "ok", ["label", "deduplicated"],
                 {"deduplicated": True}),
    "follower_of_evicted": (_path_follower_of_evicted, ("request", "dedup"), "error",
                            ["error"], {"error": "ModelEvictedError"}),
    "pending_budget": (_path_pending_budget, ("request",), "shed", ["error", "reason"],
                       {"error": "ServiceOverloadedError", "reason": "pending_budget"}),
    "circuit_open": (_path_circuit_open, ("request",), "shed", ["error", "reason"],
                     {"error": "CircuitOpenError", "reason": "circuit_open"}),
    "stop_race": (_path_stop_race, ("request", "queue"), "error", ["error"],
                  {"error": "ServiceError"}),
    "dispatch_deadline": (_path_dispatch_deadline, ("request", "queue"), "shed",
                          ["error", "reason"],
                          {"error": "DeadlineExceededError", "reason": "deadline_exceeded"}),
    "lane_eviction": (_path_lane_eviction, ("request", "queue"), "error", ["error"],
                      {"error": "ModelEvictedError"}),
    "dispatch_refusal": (_path_dispatch_refusal, ("request", "queue", "batch"), "shed",
                         ["error", "reason"],
                         {"error": "CircuitOpenError", "reason": "circuit_open"}),
    "shard_deadline": (_path_shard_deadline, ("request", "queue", "batch"), "shed",
                       ["error", "reason"],
                       {"error": "DeadlineExceededError", "reason": "deadline_exceeded"}),
    "kernel_error": (_path_kernel_error, ("request", "queue", "batch"), "error", ["error"],
                     {"error": "InjectedFaultError"}),
    "worker_abandoned": (_path_worker_abandoned, ("request", "queue", "batch"), "error",
                         ["error"], {"error": "ShardFailedError"}),
    "ready_queue_eviction": (_path_ready_queue_eviction, ("request", "queue", "batch"),
                             "error", ["error"], {"error": "ModelEvictedError"}),
}


@pytest.mark.parametrize("path", list(TERMINAL_PATHS))
def test_every_terminal_path_builds_its_trace(path, trained_bsom_classifier, monkeypatch):
    walk, names, status, tail, values = TERMINAL_PATHS[path]
    run = walk(trained_bsom_classifier, monkeypatch)
    service, request_id = next(run)
    try:
        _check_terminal_trace(service, request_id, names, status, tail, values,
                              trained_bsom_classifier.som.weights_version)
    finally:
        next(run, None)  # the rest of the path: stop the service


def _check_terminal_trace(service, request_id, names, status, tail, values, version):
    trace = _trace_of(service, request_id)

    assert trace.span_names() == names
    assert [span.span_id for span in trace.spans] == list(range(len(names)))
    assert [span.parent_id for span in trace.spans] == [None] + [0] * (len(names) - 1)
    assert trace.status == status
    root = trace.root
    assert list(root.attrs) == _ROOT + tail
    assert (root.attrs["model"], root.attrs["stream_id"]) == ("m", "cam")
    assert {key: root.attrs[key] for key in tail if key != "label"} == values

    # Timestamps, in order only: every stage inside the root, each ending
    # no later than the next begins.
    stages = trace.spans[1:]
    assert all(span.end_s is not None for span in trace.spans)
    assert all(span.start_s <= span.end_s for span in trace.spans)
    assert all(root.start_s <= span.start_s and span.end_s <= root.end_s for span in stages)
    assert all(a.end_s <= b.start_s for a, b in zip(stages, stages[1:]))

    attrs = {span.name: span.attrs for span in stages}
    links = {span.name: span.links for span in stages}
    if "kernel" in attrs:
        assert attrs["kernel"] == {
            "shard": "m/0", "model": "m", "batch_size": 1,
            "weights_version": version,
        }
    if "cache" in attrs:
        assert attrs["cache"] == ({"hit": True, "stale": True} if values.get("stale")
                                  else {"hit": True})
    if "dedup" in attrs:
        primary = _trace_of(service, request_id - 1)
        assert attrs["dedup"] == {"primary_request_id": request_id - 1}
        assert links["dedup"] == [{"trace_id": primary.trace_id, "span": "kernel"}]
    for name in ("queue", "batch"):
        if name in attrs:
            assert attrs[name] == {} and links[name] == []


def test_an_abandoned_workers_late_kernel_leaves_the_trace_alone(
    trained_bsom_classifier, monkeypatch
):
    run = _path_worker_abandoned(trained_bsom_classifier, monkeypatch)
    service, request_id = next(run)
    built = _trace_of(service, request_id).to_dict()
    next(run, None)  # the worker leaves the kernel, its answer is discarded, stop
    assert _trace_of(service, request_id).to_dict() == built
