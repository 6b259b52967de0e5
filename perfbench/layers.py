"""The traced run: per-layer metrics from spans around each layer's calls.

``--trace 1`` runs the workload twice for half the time each: untraced
(for ``tracing.overhead_ratio``), then traced.  The traced service gets
``Observability(sample_every=1)`` with rings large enough for the run, so
the program's own queue / batch / kernel spans exist for every request;
the benchmark adds spans around the public calls below and keeps them in
memory until the run ends.

==================================  ======================================
span                                wrapped call
==================================  ======================================
vision.background                   ``BackgroundSubtractor.apply``
vision.morphology                   ``binary_open`` + ``binary_close``
vision.connected_components         ``ConnectedComponentLabeller.label``
vision.blobs                        ``extract_blobs`` + ``filter_blobs_by_area``
vision.tracker                      ``ObjectTracker.update``
signatures                          ``rgb_histogram_batch`` + ``binarize_batch``
pipeline.classify                   ``StreamingInferenceService.classify``
serve.submit                        ``StreamingInferenceService.submit``
signatures.packing                  ``packed_signature_words``
serve.cache.get                     ``SignatureLruCache.get``
serve.registry.submit               ``ModelRegistry.submit`` (batch facts)
core.kernel                         ``SomClassifier.predict_batch_packed``
serve.request.settle                ``resolve_requests``
serve.registry.swap                 ``StreamingInferenceService.swap_model``
==================================  ======================================

A root span is a camera frame, or a served request from its submit to the
load generator's completion stamp.  Its children are the spans above plus, by
request id, the program's queue / batch / kernel spans and the settle call
that resolved it.  Self time is a span's duration minus the union of its
children's intervals; the uncovered share is that remainder for roots.

A call that raised leaves its span but no note (the facts a wrapper reads
from a call's result), so counts drawn from notes cover the calls that
returned; a refused request shows in ``serve.service.shed_ratio``.

A layer's busy time is the CPU time of its calls (``time.thread_time``),
so time spent waiting for the interpreter lock is not billed to the layer
that happened to be waiting; waits are wall time.  Shares restate where
time goes: on ``camera`` as shares of frame wall time, on ``serve_churn`` as
shares of the process CPU spent in the saturation phase -- a served
request's cost, the basis of the ROADMAP's kernel and validation shares.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import repro.pipeline.system as pipeline_system
import repro.serve.service as service_module
from repro.core.classifier import SomClassifier
from repro.obs import Observability

import endtoend as bench
import workloads
from host import SpeedGauge
from spans import SpanLog, clock, percentile, self_time, tail_supported

OUT_DIR = Path(__file__).resolve().parent / "out"
RING = 1 << 18

#: (name, unit, description) of every per-layer metric, in report order.
METRICS = (
    ("vision.background.ms", "ms", "BackgroundSubtractor.apply CPU per frame (median)"),
    ("vision.morphology.ms", "ms", "binary_open + binary_close CPU per frame (median)"),
    ("vision.connected_components.ms", "ms",
     "ConnectedComponentLabeller.label CPU per frame (median)"),
    ("vision.blobs.ms", "ms", "extract_blobs + filter_blobs_by_area CPU per frame (median)"),
    ("vision.blobs.count", "count", "silhouettes kept per frame (mean)"),
    ("vision.tracker.ms", "ms", "ObjectTracker.update CPU per frame (median)"),
    ("signatures.ms", "ms", "rgb_histogram_batch + binarize_batch CPU per frame (median)"),
    ("pipeline.classify_ms", "ms",
     "StreamingInferenceService.classify wall time per frame (median)"),
    ("pipeline.fallback_ratio", "ratio", "signatures not accepted by the service / extracted"),
    ("signatures.packing.us", "us", "packed_signature_words CPU per request (median)"),
    ("serve.service.submit_self_us", "us", "submit CPU minus its timed children (median)"),
    ("serve.cache.get_us", "us", "SignatureLruCache.get CPU per call (median)"),
    ("serve.cache.hit_ratio", "ratio", "cache hits / (hits + misses)"),
    ("serve.service.dedup_ratio", "ratio", "serve_dedup_hits_total / serve_requests_total"),
    ("serve.service.shed_ratio", "ratio", "serve_backpressure_rejections_total / attempts"),
    ("serve.batching.queue_wait_p50_ms", "ms", "enqueue -> batch cut, p50"),
    ("serve.batching.queue_wait_p99_ms", "ms", "enqueue -> batch cut, p99"),
    ("serve.batching.fill", "ratio", "rows per batch / batch_size (mean)"),
    ("serve.batching.deadline_cut_ratio", "ratio", "batches cut by the deadline / batches"),
    ("serve.shard.wait_p50_ms", "ms", "batch cut -> kernel start, p50"),
    ("serve.shard.wait_p99_ms", "ms", "batch cut -> kernel start, p99"),
    ("core.kernel_us_per_row", "us", "predict_batch_packed CPU / rows"),
    ("core.kernel_rows", "count", "rows scored by predict_batch_packed"),
    ("serve.request.settle_us", "us", "resolve_requests CPU / requests settled"),
    ("serve.registry.swap_ms", "ms", "swap_model wall time per call (median)"),
    ("serve.cache.invalidated_per_swap", "count",
     "dropped_entries per cache_invalidate event (mean)"),
    ("serve.rollout.shadow_drop_ratio", "ratio",
     "serve_shadow_dropped_total / serve_shadow_requests_total"),
    ("core.bsom.train_s", "s", "api.train in set-up"),
    ("driver.late_p99_ms", "ms", "submit start - due time, p99 (untraced half)"),
    ("process.cpu_util", "ratio", "process CPU seconds / wall seconds of the traced window"),
    ("tracing.overhead_ratio", "ratio", "1 - traced / untraced end-to-end throughput"),
    ("share.uncovered", "ratio", "root time not covered by any child span"),
    ("share.vision.background", "ratio", "share of frame wall time"),
    ("share.vision.morphology", "ratio", "share of frame wall time"),
    ("share.vision.connected_components", "ratio", "share of frame wall time"),
    ("share.vision.blobs", "ratio", "share of frame wall time"),
    ("share.vision.tracker", "ratio", "share of frame wall time"),
    ("share.signatures", "ratio", "share of frame wall time"),
    ("share.pipeline.classify", "ratio",
     "share of frame wall time (service path, waits included)"),
    ("share.serve.service.submit_self", "ratio", "CPU share of frame wall time / of request CPU"),
    ("share.signatures.packing", "ratio", "CPU share of frame wall time / of request CPU"),
    ("share.serve.cache.get", "ratio", "CPU share of frame wall time / of request CPU"),
    ("share.core.kernel", "ratio", "CPU share of frame wall time / of request CPU"),
    ("share.serve.request.settle", "ratio", "CPU share of frame wall time / of request CPU"),
)
UNITS = {name: unit for name, unit, _ in METRICS}

FRAME_LAYERS = {
    "vision.background": ("vision.background",),
    "vision.morphology": ("vision.morphology",),
    "vision.connected_components": ("vision.connected_components",),
    "vision.blobs": ("vision.blobs.extract", "vision.blobs.filter"),
    "vision.tracker": ("vision.tracker",),
    "signatures": ("signatures.histogram", "signatures.binarize"),
    "pipeline.classify": ("pipeline.classify",),
}
#: Layers whose CPU makes up a served request's cost; all but the first
#: are span names.
COST_LAYERS = ("serve.service.submit_self", "signatures.packing", "serve.cache.get",
               "core.kernel", "serve.request.settle")


def _on_shadow_thread() -> bool:
    return threading.current_thread().name.startswith("shadow-")


def install(log: SpanLog, rig) -> None:
    """Wrap every layer's public call reachable from ``rig``."""
    service = rig.service
    ids = lambda responses, _args: [response.request_id for response in responses]  # noqa: E731
    for system in getattr(rig, "systems", ()):
        log.wrap(system.subtractor, "apply", "vision.background")
        log.wrap(system.labeller, "label", "vision.connected_components")
        log.wrap(system.tracker, "update", "vision.tracker")
        log.wrap(system.strategy, "binarize_batch", "signatures.binarize")
    for attr in ("binary_open", "binary_close"):
        log.wrap(pipeline_system, attr, "vision.morphology")
    log.wrap(pipeline_system, "extract_blobs", "vision.blobs.extract")
    log.wrap(pipeline_system, "filter_blobs_by_area", "vision.blobs.filter",
             note=lambda blobs, _args: len(blobs))
    log.wrap(pipeline_system, "rgb_histogram_batch", "signatures.histogram")
    log.wrap(service, "classify", "pipeline.classify", note=ids)
    log.wrap(service, "submit", "serve.submit")
    log.wrap(service_module, "packed_signature_words", "signatures.packing")
    log.wrap(service.cache, "get", "serve.cache.get")
    log.wrap(service_module, "resolve_requests", "serve.request.settle", note=ids)
    log.wrap(SomClassifier, "predict_batch_packed", "core.kernel", skip=_on_shadow_thread,
             note=lambda _prediction, args: len(args[1]))
    log.wrap(service.registry, "submit", "serve.registry.submit",
             note=lambda _shard, args: (len(args[0]), args[0].capacity, args[0].flushed_by))
    log.wrap(service, "swap_model", "serve.registry.swap")


def _counters(obs) -> dict:
    names = ("serve_requests_total", "serve_cache_hits_total", "serve_cache_misses_total",
             "serve_dedup_hits_total", "serve_backpressure_rejections_total")
    values = {name: obs.registry.get(name).value for name in names}
    for name in ("serve_shadow_requests_total", "serve_shadow_dropped_total"):
        counter = obs.registry.get(name, {"model": workloads.MODEL})
        values[name] = counter.value if counter is not None else 0.0
    return values


def _program_spans(obs, since: float) -> dict:
    """request_id -> {span name: (start, end)} of the service's traces
    that began at or after ``since``."""
    table = {}
    for trace in obs.tracer.completed():
        if trace.root.start_s < since:
            continue
        request_id = trace.root.attrs.get("request_id")
        table[request_id] = {
            span.name: (span.start_s, span.end_s)
            for span in trace.spans[1:]
            if span.end_s is not None
        }
    return table


def _cross_thread(request_id, program, settled) -> list:
    """Queue, shard-wait, kernel and settle intervals of one request."""
    spans = program.get(request_id, {})
    intervals = [spans[name] for name in ("queue", "batch", "kernel") if name in spans]
    if request_id in settled:
        intervals.append(settled[request_id])
    return intervals


class _Stat:
    """A value with its sample count."""

    def __init__(self):
        self.values, self.counts = {}, {}

    def put(self, name, value, n):
        self.values[name] = float(value)
        self.counts[name] = int(n)


def _noted(log, name) -> list:
    """The notes of the ``name`` spans whose calls returned."""
    return [log.notes[s.sid] for s in log.by_name(name) if s.sid in log.notes]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, rig, obs, log, run, before, window) -> tuple[dict, dict, str]:
    """(values, sample counts, basis of the shares) of the traced window.

    ``before`` holds the registry counters at the window's start and
    ``window`` its (start, wall seconds, process CPU seconds).  Times a
    layer is busy are its thread CPU time; waits, and calls whose caller
    waits on other threads (``classify``, ``swap_model``), are wall time.
    """
    start, wall_s, cpu_s = window
    stat = _Stat()
    kids = log.children()
    program = _program_spans(obs, start)
    settled = {}
    for span in log.by_name("serve.request.settle"):
        for request_id in log.notes.get(span.sid, ()):
            settled[request_id] = (span.start, span.end)

    # -- vision: per-frame sums of each layer's calls ---------------------
    frames = log.by_name("frame")
    frame_wall = sum(frame.end - frame.start for frame in frames)
    per_frame = defaultdict(list)  # layer -> per-frame CPU (wall for classify)
    layer_wall = defaultdict(float)
    uncovered = 0.0
    for frame in frames:
        children = kids.get(frame.sid, [])
        for layer, names in FRAME_LAYERS.items():
            mine = [child for child in children if child.name in names]
            wall = sum(child.end - child.start for child in mine)
            layer_wall[layer] += wall
            per_frame[layer].append(
                wall if layer == "pipeline.classify" else sum(child.cpu for child in mine))
        uncovered += self_time(frame.start, frame.end, [(c.start, c.end) for c in children])
    for layer in FRAME_LAYERS:
        name = "pipeline.classify_ms" if layer == "pipeline.classify" else f"{layer}.ms"
        stat.put(name, _median(per_frame[layer]) * 1e3, len(per_frame[layer]))
    kept = _noted(log, "vision.blobs.filter")
    stat.put("vision.blobs.count", np.mean(kept) if kept else 0.0, len(kept))

    # -- the serve path: per-call CPU -------------------------------------
    submits = log.by_name("serve.submit")
    submit_self = [s.cpu - sum(c.cpu for c in kids.get(s.sid, [])) for s in submits]
    for name, values in (
        ("signatures.packing.us", [s.cpu for s in log.by_name("signatures.packing")]),
        ("serve.service.submit_self_us", submit_self),
        ("serve.cache.get_us", [s.cpu for s in log.by_name("serve.cache.get")]),
    ):
        stat.put(name, _median(values) * 1e6, len(values))
    kernels = log.by_name("core.kernel")
    rows = sum(_noted(log, "core.kernel"))
    stat.put("core.kernel_us_per_row", sum(s.cpu for s in kernels) / max(rows, 1) * 1e6,
             len(kernels))
    stat.put("core.kernel_rows", rows, len(kernels))
    settle_cpu = sum(s.cpu for s in log.by_name("serve.request.settle"))
    stat.put("serve.request.settle_us", settle_cpu / max(len(settled), 1) * 1e6, len(settled))
    swaps = [s.end - s.start for s in log.by_name("serve.registry.swap")]
    stat.put("serve.registry.swap_ms", _median(swaps) * 1e3, len(swaps))

    # -- counts from the registry and events -------------------------------
    after = _counters(obs)
    delta = {name: after[name] - before[name] for name in after}
    lookups = delta["serve_cache_hits_total"] + delta["serve_cache_misses_total"]
    requests = delta["serve_requests_total"]
    attempts = requests + delta["serve_backpressure_rejections_total"]
    mirrored = delta["serve_shadow_requests_total"]
    for name, numerator, base in (
        ("serve.cache.hit_ratio", delta["serve_cache_hits_total"], lookups),
        ("serve.service.dedup_ratio", delta["serve_dedup_hits_total"], requests),
        ("serve.service.shed_ratio", delta["serve_backpressure_rejections_total"], attempts),
        ("serve.rollout.shadow_drop_ratio", delta["serve_shadow_dropped_total"], mirrored),
    ):
        stat.put(name, numerator / max(base, 1), base)
    dropped = [event.fields["dropped_entries"] for event in
               obs.events.events(since_seq=before["event_seq"], kind="cache_invalidate")]
    stat.put("serve.cache.invalidated_per_swap", np.mean(dropped) if dropped else 0.0,
             len(dropped))

    # -- waits and batches, from the program's own spans -------------------
    queue_wait = [s["queue"][1] - s["queue"][0] for s in program.values() if "queue" in s]
    shard_wait = [s["batch"][1] - s["batch"][0] for s in program.values() if "batch" in s]
    for name, values in (("serve.batching.queue_wait", queue_wait),
                         ("serve.shard.wait", shard_wait)):
        for q in (50, 99):
            stat.put(f"{name}_p{q}_ms", percentile(values, q) * 1e3, len(values))
    batches = _noted(log, "serve.registry.submit")
    stat.put("serve.batching.fill",
             np.mean([rows / capacity for rows, capacity, _ in batches]) if batches else 0.0,
             len(batches))
    stat.put("serve.batching.deadline_cut_ratio",
             sum(reason == "deadline" for *_, reason in batches) / max(len(batches), 1),
             len(batches))

    stat.put("core.bsom.train_s", rig.train_s, 1)
    stat.put("process.cpu_util", cpu_s / wall_s, 1)

    # -- roots and shares --------------------------------------------------
    if workload == "camera":
        extracted = sum(len(frame_obs) for *_, frame_obs in run.records)
        stat.put("pipeline.fallback_ratio", max(extracted - requests, 0) / max(extracted, 1),
                 extracted)
        stat.put("share.uncovered", uncovered / frame_wall, len(frames))
        for layer in FRAME_LAYERS:
            stat.put(f"share.{layer}", layer_wall[layer] / frame_wall, len(frames))
        cost = _cost_cpu(log, submits, submit_self, None)
        for layer in COST_LAYERS:
            stat.put(f"share.{layer}", cost[layer] / frame_wall, len(frames))
        basis = f"frame wall time ({len(frames)} frames)"
    else:
        stat.put("pipeline.fallback_ratio", 0.0, 0)
        uncovered_s, root_s, roots = _request_roots(run, submits, kids, program, settled)
        stat.put("share.uncovered", uncovered_s / max(root_s, 1e-12), roots)
        for layer in FRAME_LAYERS:
            stat.put(f"share.{layer}", 0.0, 0)
        answered = run.sat_answered_in_window
        cost = _cost_cpu(log, submits, submit_self, run)
        for layer in COST_LAYERS:
            stat.put(f"share.{layer}", cost[layer] / run.sat_cpu_s, answered)
        basis = (f"saturation-phase process CPU ({answered} requests, "
                 f"{run.sat_cpu_s / max(answered, 1) * 1e6:.1f} us of CPU each)")
    return stat.values, stat.counts, basis


def _cost_cpu(log, submits, submit_self, run) -> dict:
    """CPU seconds per cost layer: of every span, or with a serve ``run``
    of the spans starting inside its saturation blocks."""
    def cpu(spans, values):
        if run is None:
            return float(sum(values))
        starts = [span.start for span in spans]
        return float(np.sum(np.asarray(values)[run.in_sat_window(starts)]))

    totals = {"serve.service.submit_self": cpu(submits, submit_self)}
    for layer in COST_LAYERS[1:]:
        spans = log.by_name(layer)
        totals[layer] = cpu(spans, [span.cpu for span in spans])
    return totals


def _request_roots(run, submits, kids, program, settled):
    """Uncovered seconds, root seconds and root count of answered requests.

    One thread offers every request, so the k-th ``submit`` span is the
    k-th request offered in either phase, in order of submit start.
    """
    ledgers = (run.rate, run.sat)
    starts = np.concatenate([ledger.view("start") for ledger in ledgers])
    phase = np.concatenate([np.full(ledger.offered, n) for n, ledger in enumerate(ledgers)])
    index = np.concatenate([np.arange(ledger.offered) for ledger in ledgers])
    uncovered = total = 0.0
    roots = 0
    for submit, k in zip(submits, np.argsort(starts, kind="stable")):
        ledger, i = ledgers[phase[k]], index[k]
        if ledger.status[i] != workloads.ANSWERED:
            continue
        start, done = ledger.start[i], ledger.done[i]
        children = [(submit.start, submit.end)]
        children += [(c.start, c.end) for c in kids.get(submit.sid, [])]
        children += _cross_thread(int(ledger.request_id[i]), program, settled)
        uncovered += self_time(start, done, children)
        total += done - start
        roots += 1
    return uncovered, total, roots


def write_spans(path: Path, log: SpanLog, obs, run) -> None:
    """Every recorded span, the service's request spans and, on serve
    workloads, each request's due / submit / completion stamps, as gzip JSONL."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in log.spans:
            record = span._asdict()
            if span.sid in log.notes:
                record["note"] = log.notes[span.sid]
            out.write(json.dumps(record) + "\n")
        for trace in obs.tracer.completed():
            for span in trace.spans:
                out.write(json.dumps({
                    "request_id": trace.root.attrs.get("request_id"),
                    "name": span.name, "start": span.start_s, "end": span.end_s,
                }) + "\n")
        for phase in ("rate", "sat"):
            ledger = getattr(run, phase, None)
            for i in range(ledger.offered if ledger is not None else 0):
                out.write(json.dumps({
                    "name": f"client.{phase}", "request_id": int(ledger.request_id[i]),
                    "status": int(ledger.status[i]), "due": ledger.due[i],
                    "start": ledger.start[i], "end": ledger.done[i],
                }) + "\n")


def run_traced(workload: str, seed: int, seconds: float, gauge: SpeedGauge) -> None:
    half = seconds / 2
    data = bench.build_inputs(workload, seed, half)
    print(f"inputs: workload={workload} seed={seed} sha256={bench.inputs_mod.digest(data)}")
    check = bench.check_camera if workload == "camera" else bench.check_serve

    obs = Observability(sample_every=1, trace_capacity=RING, event_capacity=RING)
    log = SpanLog()
    rig = bench.build_rig(workload, data)
    try:
        untraced = bench.drive(workload, rig, data, half)
    finally:
        rig.close()
    checked = check(rig, data, untraced)
    rig = bench.build_rig(workload, data, obs=obs)
    try:
        install(log, rig)
        before = _counters(obs)
        before["event_seq"] = obs.events.last_seq
        cpu0, wall0 = time.process_time(), clock()
        traced = bench.drive(workload, rig, data, half, log=log)
        window = (wall0, clock() - wall0, time.process_time() - cpu0)
    finally:
        log.restore()
        rig.close()
    checked_traced = check(rig, data, traced)

    values, counts, basis = layer_metrics(workload, rig, obs, log, traced, before, window)
    throughput = [bench.end_to_end(workload, run, result, gauge)[0]["throughput"]
                  for run, result in ((untraced, checked), (traced, checked_traced))]
    values["tracing.overhead_ratio"] = 1.0 - throughput[1] / throughput[0]
    counts["tracing.overhead_ratio"] = 2
    # The generator's lateness belongs to the load, not to a layer: take it
    # from the untraced half, where it adds to the gated latency.
    late = [] if workload == "camera" else untraced.rate.view("start") - untraced.rate.view("due")
    values["driver.late_p99_ms"] = percentile(late, 99) * 1e3
    counts["driver.late_p99_ms"] = len(late)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz"
    write_spans(path, log, obs, traced)

    print(f"per-layer ({workload}, traced {half:g} s; spans in {os.path.relpath(path)})")
    for name, unit, description in METRICS:
        n = counts[name]
        flag = ""
        if n == 0:
            flag = "  (not on this workload's path)"
        elif name.endswith("_p99_ms") and not tail_supported(n, 99):
            flag = "  (fewer than 10 samples beyond p99)"
        print(f"  {name:<36} {values[name]:>12.4f} {unit:<6} n={n:<7} {description}{flag}")
    print(f"  shares are of {basis}")
    if workload == "camera":
        vision = sum(values[f"share.{layer}"]
                     for layer in FRAME_LAYERS if layer != "pipeline.classify")
        print(f"  a camera frame: vision and signatures {vision:.1%}, service path "
              f"{values['share.pipeline.classify']:.1%}, "
              f"uncovered {values['share.uncovered']:.1%}")
    else:
        print("  ROADMAP restated at 40x768: validation (signatures.packing) "
              f"{values['share.signatures.packing']:.1%} and kernel "
              f"{values['share.core.kernel']:.1%} of a served request's cost "
              "(~23% and ~4% at 100x128 bits)")
    attempted = checked["attempted"] + checked_traced["attempted"]
    failed = checked["failed"] + checked_traced["failed"]
    ordered = {name: values[name] for name, _, _ in METRICS}
    print(bench.result_line(attempted, failed, ordered, UNITS))
