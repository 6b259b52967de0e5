"""Unit tests for the observability substrate (repro.obs).

Covers the metric registry (kinds, labels, consistent reads, histogram
quantiles), the tracer (sampling, span model, ring eviction), the event
log (monotonic sequencing, incremental reads) and both exporters
(JSONL round trip, Prometheus render -> parse).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError, DataError
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.export import (
    JsonlExporter,
    metrics_record,
    parse_prometheus,
    read_jsonl,
    render_prometheus,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricRegistry,
    exponential_buckets,
    labels_key,
    read_consistent,
)
from repro.obs.trace import ROOT_SPAN, Span, Trace, Tracer


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# Metric registry
# --------------------------------------------------------------------- #
class TestMetricRegistry:
    def test_counter_monotone(self):
        registry = MetricRegistry()
        counter = registry.counter("x_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")
        assert len(registry) == 1

    def test_a_removed_series_is_gone_until_registered_again(self):
        registry = MetricRegistry()
        old = registry.gauge("x_depth", labels={"model": "a"})
        old.set(3.0)
        registry.counter("x_total", labels={"model": "a"})
        registry.remove("x_depth", {"model": "a"})
        registry.remove("x_depth", {"model": "gone"})  # never registered: a no-op
        assert registry.get("x_depth", {"model": "a"}) is None
        assert [metric.name for metric in registry.collect()] == ["x_total"]
        fresh = registry.gauge("x_depth", labels={"model": "a"})
        assert fresh is not old and fresh.value == 0.0

    def test_labels_distinguish_series(self):
        registry = MetricRegistry()
        a = registry.counter("x_total", labels={"shard": "a"})
        b = registry.counter("x_total", labels={"shard": "b"})
        assert a is not b
        a.inc()
        assert registry.get("x_total", {"shard": "a"}).value == 1.0
        assert registry.get("x_total", {"shard": "b"}).value == 0.0

    def test_labels_key_order_insensitive(self):
        assert labels_key({"b": "2", "a": "1"}) == labels_key({"a": "1", "b": "2"})
        with pytest.raises(ConfigurationError):
            labels_key({"bad name": "x"})

    def test_kind_mismatch_refused(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_invalid_metric_name_refused(self):
        registry = MetricRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad name")

    def test_gauge_set_inc_dec(self):
        registry = MetricRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6.0

    def test_callback_gauge(self):
        registry = MetricRegistry()
        value = {"n": 3}
        gauge = registry.gauge("live", fn=lambda: value["n"])
        assert gauge.value == 3.0
        value["n"] = 7
        assert gauge.value == 7.0
        with pytest.raises(ConfigurationError):
            gauge.set(1.0)

    def test_settable_gauge_cannot_become_callback(self):
        registry = MetricRegistry()
        registry.gauge("depth")
        with pytest.raises(ConfigurationError):
            registry.gauge("depth", fn=lambda: 0.0)

    def test_histogram_bucket_mismatch_refused(self):
        registry = MetricRegistry()
        registry.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("lat", buckets=(0.5, 1.0))

    def test_collect_sorted_and_contains(self):
        registry = MetricRegistry()
        registry.counter("b_total")
        registry.counter("a_total")
        assert [m.name for m in registry.collect()] == ["a_total", "b_total"]
        assert "a_total" in registry
        assert "zzz" not in registry

    def test_read_consistent_matches_individual_reads(self):
        registry = MetricRegistry()
        hits = registry.counter("hits")
        misses = registry.counter("misses")
        hits.inc(3)
        misses.inc(1)
        assert read_consistent(hits, misses) == (3.0, 1.0)
        # Same metric twice must not deadlock (locks are deduplicated).
        assert read_consistent(hits, hits) == (3.0, 3.0)

    def test_read_consistent_under_concurrent_writes(self):
        # hits and misses are always incremented together; a consistent
        # read must never observe the pair mid-update drifting apart by
        # more than the one in-flight increment.
        registry = MetricRegistry()
        hits = registry.counter("hits")
        misses = registry.counter("misses")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hits.inc()
                misses.inc()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(500):
                h, m = read_consistent(hits, misses)
                assert abs(h - m) <= 1.0
        finally:
            stop.set()
            thread.join(5.0)


class TestHistogram:
    def test_quantiles_interpolate(self):
        hist = Histogram("lat", (), buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(6.6)
        # Quantiles are monotone and land in the right buckets.
        p50 = hist.quantile(0.50)
        p99 = hist.quantile(0.99)
        assert 1.0 <= p50 <= 2.0
        assert 2.0 < p99 <= 4.0
        assert hist.quantile(0.0) <= p50 <= p99 <= hist.quantile(1.0)

    def test_a_batch_update_equals_one_observe_per_value(self):
        # Values on a bucket edge land in that bucket (upper bounds are
        # inclusive); values past the last edge land in +Inf.
        values = [0.1, 1.0, 1.0, 1.7, 2.0, 3.9, 4.0, 4.0000001, 9.5, 1e9, 0.3, 2.2]
        one_at_a_time = Histogram("lat", (), buckets=(1.0, 2.0, 4.0, 8.0))
        for value in [0.25, *values]:
            one_at_a_time.observe(value)
        batched = Histogram("lat", (), buckets=(1.0, 2.0, 4.0, 8.0))
        batched.observe(0.25)
        batched.observe_many(values[:5])
        batched.observe_many(values[5:])
        batched.observe_many([])
        assert batched.bucket_counts() == one_at_a_time.bucket_counts() == (5, 2, 3, 1, 2)
        total = 0.25
        for value in values:
            total += value
        assert batched.sum == one_at_a_time.sum == total  # the same additions, in order
        assert batched.count == one_at_a_time.count == 13

    def test_empty_histogram_quantile_is_zero(self):
        hist = Histogram("lat", (), buckets=(1.0, 2.0))
        assert hist.quantile(0.5) == 0.0

    def test_overflow_reports_last_finite_bound(self):
        hist = Histogram("lat", (), buckets=(1.0, 2.0))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 2.0
        assert hist.bucket_counts() == (0, 0, 1)

    def test_bucket_validation(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", (), buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("lat", (), buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("lat", (), buckets=(1.0, float("inf")))
        with pytest.raises(ConfigurationError):
            hist = Histogram("lat", (), buckets=(1.0,))
            hist.quantile(1.5)

    def test_exponential_buckets(self):
        bounds = exponential_buckets(1.0, 2.0, 4)
        assert bounds == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ConfigurationError):
            exponential_buckets(0.0, 2.0, 4)
        assert len(DEFAULT_TIME_BUCKETS) == 35


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class TestTracer:
    def test_span_model(self):
        tracer = Tracer(sample_every=1)
        trace_id = tracer.sample([0])[0]
        root = Span(0, ROOT_SPAN, 0.0, 4.0, None, {"model": "m", "label": 4})
        spans = [root, Span(1, "queue", 1.0, 3.0), Span(2, "kernel", 3.0, 3.5, 0, {"shard": "m/0"})]
        trace = Trace(trace_id, spans, "ok")
        tracer.keep([trace])
        assert trace.root is root and trace.root.name == ROOT_SPAN
        assert trace.span_names() == (ROOT_SPAN, "queue", "kernel")
        assert trace.find("queue").duration_s == pytest.approx(2.0)
        assert trace.find("kernel").attrs["shard"] == "m/0"
        assert trace.find("queue").attrs == {} and trace.find("queue").links == []
        assert trace.duration_s == pytest.approx(4.0)
        assert trace.status == "ok" and trace.root.attrs["label"] == 4
        assert tracer.get(trace.trace_id) is trace

    def test_sampling_every_nth(self):
        tracer = Tracer(sample_every=4)
        request_ids = [7, 8, 9, 12, 13, 0]
        sampled = tracer.sample(request_ids)
        assert list(sampled) == [1, 3, 5]  # the positions of 8, 12 and 0
        assert len(set(sampled.values()) | set(tracer.sample(request_ids).values())) == 6
        assert list(Tracer(sample_every=1).sample(request_ids)) == list(range(6))

    def test_sample_every_zero_disables(self):
        tracer = Tracer(sample_every=0)
        assert not tracer.enabled
        assert tracer.sample(range(12)) == {}

    def test_ring_eviction(self):
        tracer = Tracer(capacity=8, sample_every=1)
        ids = list(tracer.sample(range(20)).values())
        assert len(set(ids)) == 20
        for trace_id in ids[:15]:
            tracer.keep([Trace(trace_id, [Span(0, ROOT_SPAN, 0.0, 1.0, None)], "ok")])
        tracer.keep(Trace(trace_id, [Span(0, ROOT_SPAN, 0.0, 1.0, None)], "ok")
                    for trace_id in ids[15:])  # a batch's traces, in one section
        assert tracer.completed_count == 8
        assert tracer.dropped_traces == 12
        kept = [t.trace_id for t in tracer.completed()]
        assert kept == ids[-8:]  # oldest evicted first
        assert tracer.get(ids[0]) is None

    def test_links_and_to_dict(self):
        primary, follower_id = Tracer(sample_every=1).sample([0, 1]).values()
        dedup = Span(1, "dedup", 0.0, 0.0, 0, {"primary_request_id": 3},
                     [{"trace_id": primary, "span": "kernel"}])
        follower = Trace(follower_id, [Span(0, ROOT_SPAN, 0.0, 1.0, None), dedup], "ok")
        rendered = follower.to_dict()
        assert rendered["spans"][1]["links"] == [
            {"trace_id": primary, "span": "kernel"}
        ]
        assert rendered["spans"][1]["parent_id"] == 0
        assert rendered["duration_s"] == pytest.approx(1.0)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            Tracer(capacity=0)
        with pytest.raises(ConfigurationError):
            Tracer(sample_every=-1)


# --------------------------------------------------------------------- #
# Event log
# --------------------------------------------------------------------- #
class TestEventLog:
    def test_monotonic_sequence_and_filters(self):
        clock = ManualClock()
        log = EventLog(capacity=4, clock=clock)
        for index in range(6):
            clock.advance(1.0)
            log.emit("model_swap" if index % 2 else "evict", model=f"m{index}")
        # Ring keeps the newest 4, but sequence numbers are never reused.
        assert len(log) == 4
        assert log.total_emitted == 6
        seqs = [event.seq for event in log.events()]
        assert seqs == [2, 3, 4, 5]
        assert [e.kind for e in log.events(kind="evict")] == ["evict", "evict"]
        assert [e.seq for e in log.events(since_seq=3)] == [4, 5]
        assert log.last_seq == 5

    def test_empty_log(self):
        log = EventLog(clock=ManualClock())
        assert log.events() == ()
        assert log.last_seq == -1


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
def _populated_registry() -> MetricRegistry:
    registry = MetricRegistry()
    registry.counter("serve_requests_total", help="Requests accepted").inc(7)
    registry.gauge("serve_pending_requests", fn=lambda: 2.0)
    registry.gauge(
        "serve_shard_queue_depth", labels={"shard": 'm/"0"\\x'}, help="depth"
    ).set(3)
    hist = registry.histogram("serve_request_latency_seconds", buckets=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.002, 0.05, 5.0):
        hist.observe(value)
    return registry


class TestJsonlExporter:
    def test_round_trip_with_incremental_events(self, tmp_path):
        registry = _populated_registry()
        clock = ManualClock()
        events = EventLog(clock=clock)
        events.emit("model_swap", model="m")
        path = tmp_path / "metrics.jsonl"
        exporter = JsonlExporter(path, clock=clock)

        exporter.export(registry, events=events)
        events.emit("evict", model="m")
        exporter.export(registry, events=events)

        records = read_jsonl(path)
        assert len(records) == 2
        assert records[0]["metrics"]["serve_requests_total"] == 7.0
        hist = records[0]["metrics"]["serve_request_latency_seconds"]
        assert hist["count"] == 4 and hist["buckets"]["+Inf"] == 4
        assert hist["p50"] <= hist["p99"] <= hist["p999"]
        # Events ship incrementally: the second record only has the evict.
        assert [e["kind"] for e in records[0]["events"]] == ["model_swap"]
        assert [e["kind"] for e in records[1]["events"]] == ["evict"]

    def test_read_jsonl_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"metrics": {}}\n')
        with pytest.raises(DataError):
            read_jsonl(path)
        path.write_text("not json\n")
        with pytest.raises(DataError):
            read_jsonl(path)


class TestPrometheus:
    def test_render_parse_round_trip(self):
        registry = _populated_registry()
        text = render_prometheus(registry)
        assert "# TYPE serve_requests_total counter" in text
        assert "# HELP serve_requests_total Requests accepted" in text
        samples = parse_prometheus(text)
        assert samples[("serve_requests_total", ())] == 7.0
        assert samples[("serve_pending_requests", ())] == 2.0
        # Label values survive escaping round trip.
        assert samples[("serve_shard_queue_depth", (("shard", 'm/"0"\\x'),))] == 3.0
        # Histogram series: cumulative buckets, +Inf, sum and count.
        assert samples[
            ("serve_request_latency_seconds_bucket", (("le", "0.001"),))
        ] == 1.0
        assert samples[
            ("serve_request_latency_seconds_bucket", (("le", "+Inf"),))
        ] == 4.0
        assert samples[("serve_request_latency_seconds_count", ())] == 4.0
        assert samples[("serve_request_latency_seconds_sum", ())] == pytest.approx(
            5.0525
        )

    def test_metrics_record_keys(self):
        record = metrics_record(_populated_registry())
        assert 'serve_shard_queue_depth{shard=m/"0"\\x}' in record

    def test_write_prometheus_to_path_and_handle(self, tmp_path):
        registry = _populated_registry()
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, path)
        assert parse_prometheus(path.read_text())[("serve_requests_total", ())] == 7.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(DataError):
            parse_prometheus("metric_without_value\n")
        with pytest.raises(DataError):
            parse_prometheus('metric{unterminated 1.0\n')
        with pytest.raises(DataError):
            parse_prometheus("metric nan-ish\n")


# --------------------------------------------------------------------- #
# Observability bundle
# --------------------------------------------------------------------- #
class TestObservability:
    def test_bundle_shares_clock_and_renders(self):
        clock = ManualClock()
        obs = Observability(sample_every=1, clock=clock)
        obs.registry.counter("x_total").inc()
        trace = Trace(obs.tracer.sample([0])[0], [Span(0, ROOT_SPAN, 0.0, 1.0, None)], "ok")
        obs.tracer.keep([trace])
        clock.advance(2.0)
        obs.events.emit("shed", model="m")
        assert obs.events.events()[-1].ts_s == 2.0
        assert obs.trace(trace.trace_id) is trace
        assert obs.trace(None) is None
        assert parse_prometheus(obs.render_prometheus())[("x_total", ())] == 1.0
        assert obs.metrics_record()["x_total"] == 1.0

    def test_disabled_keeps_metrics_and_events(self):
        obs = Observability.disabled(clock=ManualClock())
        assert not obs.tracer.enabled and obs.tracer.sample([0, 16]) == {}
        obs.registry.counter("x_total").inc()
        obs.events.emit("evict", model="m")
        assert len(obs.events) == 1
