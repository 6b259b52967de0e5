#!/usr/bin/env python
"""CI guard for the observability layer: exporter schema + overhead bound.

Three gates, run against a real streaming service (threads, shards, cache,
dedup, one mid-run hot-swap):

1. **Trace completeness** -- with tracing at ``sample_every=1``, a request
   submitted through the service yields a trace retrievable by its
   ``trace_id`` with the full span chain (request -> queue -> batch ->
   kernel), including for a request whose lane a hot-swap lands on.
2. **Exporter schema round-trips** -- the JSONL snapshot file reads back
   with the required ``ts``/``metrics``/``events`` shape and the expected
   ``serve_*`` names, and the Prometheus text rendering parses back to the
   registry's exact counter values (cumulative histogram buckets checked).
3. **Overhead bound** -- the Python bytecodes a request runs with
   observability at its *default* sampling must stay within
   ``MAX_OVERHEAD`` (5%) of the same with tracing disabled.  A request is
   counted as the serve hot path runs it: a one-row ``submit`` in the
   caller's thread, plus its share of the settle of the batches that cut
   (held back from the shards and settled by hand after the shard's
   scoring step).  The count is exact and repeatable for a given Python
   and numpy: the service runs on a frozen clock, so every latency lands
   in the same histogram bucket, and frames of the ``threading`` module
   (the dispatcher's wake-up hand-off, whose cost depends on whether that
   thread is waiting at the instant) are left out.  Wall-clock throughput
   rounds (off/on interleaved) are printed as a report only: their pair
   deltas swing by +/-25% on a shared host, far more than the bound, and
   no estimator over five of them can tell a 5% overhead from noise.

Run directly or through scripts/ci_check.sh:

    PYTHONPATH=src python scripts/check_obs.py
"""

from __future__ import annotations

import os
import sys

# Pin thread pools before numpy import, mirroring benchmarks/conftest.py,
# so the overhead ratio compares the same single-threaded numpy regime.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402
from repro.datasets import make_signature_clusters  # noqa: E402
from repro.obs import JsonlExporter, Observability, read_jsonl  # noqa: E402
from repro.obs.export import parse_prometheus, render_prometheus  # noqa: E402
from repro.serve import ServiceConfig, StreamingInferenceService  # noqa: E402

MAX_OVERHEAD = 0.05  # observability may cost at most 5% of a request's bytecodes
COUNT_WARMUP = 64  # requests run before counting (first-use paths)
COUNT_REQUESTS = 512  # counted requests: whole batches, whole sampling intervals
COUNT_BATCH = 32
ROUNDS = 5  # interleaved off/on wall-clock rounds, reported only
REQUESTS_PER_ROUND = 3000
POOL_SIZE = 512  # signature pool; large enough to keep the kernel busy


def build_classifier():
    X, y = make_signature_clusters(
        n_identities=5,
        samples_per_identity=40,
        n_bits=128,
        core_bits=20,
        shared_bits=15,
        seed=11,
    )
    return api.train(X, y, n_neurons=16, epochs=6, seed=3), X


def check_trace_completeness(classifier, X) -> list[str]:
    failures: list[str] = []
    config = ServiceConfig(batch_size=16, max_delay_ms=2.0)
    service = api.serve({"hall": classifier}, config=config,
                        obs=Observability(sample_every=1), start=False)
    with service:
        # Plain request: the full span chain must be retrievable by id.
        future = service.submit(X[0], model="hall", stream_id="cam-0")
        service.flush()
        response = future.result(10.0)
        trace = service.obs.trace(response.trace_id)
        expected = ("request", "queue", "batch", "kernel")
        if trace is None or trace.span_names() != expected or trace.status != "ok":
            failures.append(
                "trace incomplete: "
                f"{None if trace is None else trace.span_names()} != {expected}"
            )

        # Request in the lane when a hot-swap lands: the single trace must
        # span the swap and the kernel must run on the new weights.
        riding = service.submit(X[1], model="hall")
        api.swap(service, "hall", api.snapshot(classifier))
        service.flush()
        swap_response = riding.result(10.0)
        swap_trace = service.obs.trace(swap_response.trace_id)
        if swap_trace is None or swap_trace.span_names() != expected:
            failures.append("trace across hot-swap incomplete")
        kinds = [event.kind for event in service.obs.events.events()]
        for kind in ("model_registered", "model_swap", "cache_invalidate"):
            if kind not in kinds:
                failures.append(f"lifecycle event {kind!r} missing from log")
    return failures


def check_exporter_schema(classifier, X) -> list[str]:
    failures: list[str] = []
    config = ServiceConfig(batch_size=16, max_delay_ms=2.0)
    service = api.serve({"hall": classifier}, config=config,
                        obs=Observability(sample_every=1), start=False)
    with service:
        futures = [service.submit(x, model="hall") for x in X[:64]]
        service.flush()
        for future in futures:
            future.result(10.0)
        service.metrics_snapshot()  # publishes the shard queue-depth gauges

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.jsonl"
            JsonlExporter(path).export(
                service.obs.registry, events=service.obs.events
            )
            records = read_jsonl(path)  # raises DataError on schema breaks
            metrics = records[-1]["metrics"]
            for name in (
                "serve_requests_total",
                "serve_responses_total",
                "serve_request_latency_seconds",
                "serve_pending_requests",
            ):
                if name not in metrics:
                    failures.append(f"JSONL snapshot missing {name!r}")
            histogram = metrics.get("serve_request_latency_seconds", {})
            for field in ("buckets", "sum", "count", "p50", "p99", "p999"):
                if field not in histogram:
                    failures.append(f"JSONL histogram missing {field!r}")
            if not records[-1]["events"]:
                failures.append("JSONL snapshot shipped no events")

        # Prometheus text: render -> parse must reproduce registry values.
        samples = parse_prometheus(render_prometheus(service.obs.registry))
        snapshot = service.metrics_snapshot()
        if samples[("serve_requests_total", ())] != float(snapshot.requests_total):
            failures.append("prometheus round trip lost serve_requests_total")
        count_key = ("serve_request_latency_seconds_count", ())
        if samples.get(count_key) != float(snapshot.responses_total):
            failures.append("prometheus histogram count != responses_total")
        inf_key = ("serve_request_latency_seconds_bucket", (("le", "+Inf"),))
        if samples.get(inf_key) != samples.get(count_key):
            failures.append("prometheus +Inf bucket != histogram count")
    return failures


def run_throughput_round(classifier, X, *, obs: Observability) -> float:
    """Requests/second for one service lifetime at the given obs config."""
    rng = np.random.default_rng(5)
    pool = X[rng.integers(0, len(X), size=POOL_SIZE)]
    config = ServiceConfig(
        batch_size=32, max_delay_ms=2.0, cache_capacity=0, max_pending=4096
    )
    service = api.serve({"hall": classifier}, config=config, obs=obs, start=False)
    with service:
        futures = []
        start = time.perf_counter()
        for index in range(REQUESTS_PER_ROUND):
            futures.append(
                service.submit(pool[index % POOL_SIZE], model="hall")
            )
        service.flush()
        for future in futures:
            future.result(30.0)
        elapsed = time.perf_counter() - start
    return REQUESTS_PER_ROUND / elapsed


def bytecodes_per_request(classifier, X, *, traced: bool) -> float:
    """Python bytecodes per request of one-row ``submit``s and the settle of
    the batches they cut, on a frozen clock (module docstring), with
    ``Observability()`` when ``traced`` and ``Observability.disabled()``
    otherwise."""
    def frozen_clock() -> float:
        return 1000.0

    obs = (Observability if traced else Observability.disabled)(clock=frozen_clock)
    rng = np.random.default_rng(5)
    rows = rng.integers(
        0, 2, size=(COUNT_WARMUP + COUNT_REQUESTS, X.shape[1]), dtype=np.uint8
    )
    if len(np.unique(rows, axis=0)) != len(rows):
        raise RuntimeError("probe rows repeat; a cache hit would skip the kernel")
    config = ServiceConfig(batch_size=COUNT_BATCH, max_pending=4096)
    service = StreamingInferenceService(config=config, obs=obs, clock=frozen_clock)
    service.register_model("hall", classifier)
    cut: list = []
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code.co_filename == threading.__file__:
            return None
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return opcode

    with service:
        # Cut batches stay in this thread instead of reaching a shard.
        service.registry.submit = cut.append
        shard = service.registry.group("hall").shards[0]

        def run(block) -> None:
            for row in block:
                service.submit(row, model="hall")
            while cut:
                batch = cut.pop(0)
                service._settle(shard, batch, shard._classify(batch))

        run(rows[:COUNT_WARMUP])
        sys.settrace(call)
        try:
            run(rows[COUNT_WARMUP:])
        finally:
            sys.settrace(None)
    return count / COUNT_REQUESTS


def check_overhead(classifier, X) -> list[str]:
    disabled = bytecodes_per_request(classifier, X, traced=False)
    default = bytecodes_per_request(classifier, X, traced=True)
    overhead = default / disabled - 1.0
    print(
        f"  bytecodes per request (one-row submit + settle): disabled "
        f"{disabled:,.2f}, default-sampling {default:,.2f} -> overhead "
        f"{overhead:+.2%} (bound {MAX_OVERHEAD:.0%})"
    )
    # Wall clock, for the record: too noisy on a shared host to gate on.
    for round_index in range(ROUNDS):
        off = run_throughput_round(
            classifier, X, obs=Observability.disabled()
        )
        on = run_throughput_round(classifier, X, obs=Observability())
        print(
            f"  round {round_index + 1}/{ROUNDS} (report only): "
            f"disabled {off:,.0f} req/s, default-sampling {on:,.0f} req/s "
            f"(pair {1.0 - on / off:+.1%})"
        )
    if overhead > MAX_OVERHEAD:
        return [
            f"observability overhead {overhead:.2%} of a request's bytecodes "
            f"exceeds the {MAX_OVERHEAD:.0%} bound ({default:,.2f} against "
            f"{disabled:,.2f} with tracing disabled)"
        ]
    return []


def main() -> int:
    classifier, X = build_classifier()
    failures: list[str] = []

    print("=== trace completeness (sample_every=1, incl. mid-flight swap) ===")
    failures += check_trace_completeness(classifier, X)

    print("=== exporter schema: JSONL read-back + Prometheus round trip ===")
    failures += check_exporter_schema(classifier, X)

    print("=== overhead: default sampling vs tracing disabled, in bytecodes ===")
    failures += check_overhead(classifier, X)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("check_obs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
