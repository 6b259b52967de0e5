"""Trace propagation through the streaming service (repro.obs x repro.serve).

The edge cases the observability layer exists for: complete span chains
retrievable by ``trace_id``, dedup followers linking to the primary's
kernel span, traces spanning a mid-flight hot-swap, evicted requests
still emitting terminal spans, and the completed-trace ring staying
bounded under load.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelEvictedError, ServiceOverloadedError
from repro.obs import Observability
from repro.obs.export import parse_prometheus
from repro.pipeline.metrics import PipelineMetrics
from repro.serve import ServiceConfig, StreamingInferenceService


def unique_signature(index: int, n_bits: int = 128) -> np.ndarray:
    """Distinct bit patterns so no two requests cache-hit or dedup."""
    bits = np.zeros(n_bits, dtype=np.uint8)
    bits[index % n_bits] = 1
    bits[(index * 7 + 3) % n_bits] = 1
    return bits


@pytest.fixture()
def traced_service(trained_bsom_classifier):
    """A running service tracing every request (sample_every=1)."""
    config = ServiceConfig(
        batch_size=8, max_delay_ms=2.0, n_shards=1, trace_sample_every=1
    )
    service = StreamingInferenceService(config=config)
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
        assert trace is not None and trace.finished
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
        config = ServiceConfig(batch_size=4, trace_sample_every=0)
        service = StreamingInferenceService(config=config)
        service.register_model("m", trained_bsom_classifier)
        with service:
            future = service.submit(X[0], model="m")
            service.flush()
            assert future.result(5.0).trace_id is None
        assert service.obs.tracer.completed_count == 0

    def test_sampling_rate_traces_every_nth(self, trained_bsom_classifier):
        config = ServiceConfig(batch_size=64, trace_sample_every=4)
        service = StreamingInferenceService(config=config)
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
        config = ServiceConfig(
            batch_size=64, max_pending=1, trace_sample_every=1
        )
        service = StreamingInferenceService(config=config)
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
        assert obs.tracer.active_count == 0
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
