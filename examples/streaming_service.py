"""Streaming service demo: N simulated cameras, one registry, one hot-swap.

The paper deploys one bSOM behind one camera; this demo shows the serving
subsystem (:mod:`repro.serve`) scaling that deployment sideways through the
:mod:`repro.api` lifecycle facade:

1. train a bSOM identifier off-line and snapshot it with ``api.save``
   (exactly the paper's train-on-PC, ship-the-weights flow),
2. stand up the service with ``api.serve`` -- micro-batching scheduler,
   sharded model registry, signature LRU cache, in-flight dedup,
   telemetry -- straight from the loaded snapshot,
3. drive several concurrent simulated camera streams through it,
4. hot-swap to a longer-trained map with ``api.swap`` (the software
   "reflash": zero dropped requests) and drive the streams again, and
5. print the telemetry: throughput, latency percentiles, batch fill,
   cache/dedup hit-rates and the swap counter -- and, with
   ``--metrics-out``, append the full metric registry plus lifecycle
   events (the hot-swap, cache invalidation) as JSONL snapshots.

With ``--canary`` step 4 becomes a guarded rollout instead of a blind
swap: a rebuilt candidate shadows live traffic (responses untouched),
takes a seeded 20% canary split once it clears the agreement policy, and
is promoted through the zero-drop swap; a deliberately regressed
candidate is then shadow-evaluated and auto-demoted, and a rollback
restores the pre-promotion map from the ring.  The whole cycle lands in
``--metrics-out`` as the ``serve_shadow_*`` / ``serve_rollout_*`` series
plus ``rollout_*`` events.

With ``--inject-faults`` the first drive phase runs under a deterministic
:class:`~repro.serve.FaultInjector` that kills one worker shard mid-wave:
the frames in the abandoned micro-batch fail fast with
``ShardFailedError``, the shard supervisor detects the dead thread and
restarts it, and the remaining frames resolve on the other worker and the
replacement, which pull the model's one ready queue.
The restart is visible in the telemetry (``shard restarts`` line, the
``shard_restart`` event) and in ``--metrics-out`` as the
``serve_shard_restarts_total`` counter.

Every phase drives the cameras the same way: one thread per camera
submits its frames (each repeats the one before with probability 0.4, as
consecutive frames of a standing silhouette do), backs off while the
pending budget refuses them, and counts its answers and failures.  Only
the injected fault may fail a frame.  The rates printed are a demo's;
the repository benchmark (``perfbench/``) is what measures the service.

Run with::

    python examples/streaming_service.py [--streams 6] [--frames 200] \
        [--metrics-out metrics.jsonl] [--inject-faults] [--canary]
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import api
from repro.datasets import make_surveillance_dataset
from repro.errors import ServiceError, ServiceOverloadedError
from repro.obs import JsonlExporter
from repro.serve import (
    SHARD_DEATH,
    FaultInjector,
    FaultSpec,
    RolloutConfig,
    RolloutPolicy,
    ServiceConfig,
    SupervisorConfig,
)


def _camera_frames(pool_size, n_frames, seed):
    """One camera's frames as pool indices, each repeating the one before
    with probability 0.4."""
    rng = np.random.default_rng(seed)
    frames = [int(rng.integers(0, pool_size))]
    for _ in range(n_frames - 1):
        repeat = rng.random() < 0.4
        frames.append(frames[-1] if repeat else int(rng.integers(0, pool_size)))
    return frames


def _drive(service, dataset, n_streams, frames_per_stream, seed0, fault_injected=False):
    """Run one thread per camera through the service and print the tallies.

    Each camera submits its frames, retrying every refusal of the pending
    budget after a 2-ms back-off, then waits for its answers.  A frame
    whose request fails is counted, not retried: under an injected shard
    death the frames of the abandoned micro-batch fail fast with
    ``ShardFailedError`` while the rest resolve on the other worker and
    the supervisor's replacement.  Without an injected fault, a failed
    frame ends the demo.
    """
    signatures, labels = dataset.test_signatures, dataset.test_labels
    tallies = [None] * n_streams

    def camera(index):
        stream_id = f"cam-{index}"
        frames = _camera_frames(len(labels), frames_per_stream, seed0 + index)
        futures, retries = [], 0
        for row in frames:
            while True:
                try:
                    futures.append(
                        service.submit(signatures[row], model="hall", stream_id=stream_id)
                    )
                    break
                except ServiceOverloadedError:
                    retries += 1
                    time.sleep(0.002)
        answered = correct = cached = failed = 0
        for future, row in zip(futures, frames):
            try:
                response = future.result(30.0)
            except ServiceError:
                failed += 1
                continue
            answered += 1
            correct += int(response.label == labels[row])
            cached += int(response.cached)
        tallies[index] = (stream_id, answered, correct, cached, failed, retries)

    start = time.perf_counter()
    threads = [threading.Thread(target=camera, args=(i,)) for i in range(n_streams)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if None in tallies:
        raise SystemExit("a camera thread died; its traceback is above")
    answered = sum(tally[1] for tally in tallies)
    failed = sum(tally[4] for tally in tallies)
    print(f"served {answered} classifications in {elapsed:.2f} s "
          f"({answered / elapsed:,.0f} signatures/s), {failed} failed")
    for stream_id, responses, correct, cached, failures, retries in tallies:
        print(f"  {stream_id}: {responses} responses, "
              f"accuracy {correct / max(responses, 1):.2%}, cache hits {cached}, "
              f"failures {failures}, backpressure retries {retries}")
    if failed and not fault_injected:
        raise SystemExit(f"{failed} frame(s) failed with no fault injected")


def _report_restarts(service):
    """Print the supervisor's restart of the worker the fault killed."""
    # The supervisor fails the abandoned futures before it finishes
    # standing up the replacement worker, so give it a beat to record.
    poll_deadline = time.monotonic() + 2.0
    restart_events = list(service.obs.events.events(kind="shard_restart"))
    while not restart_events and time.monotonic() < poll_deadline:
        time.sleep(0.01)
        restart_events = list(service.obs.events.events(kind="shard_restart"))
    print("the failed frames were the abandoned micro-batch's, "
          "coalesced duplicates included")
    print(f"supervisor restarted {len(restart_events)} worker shard(s); "
          f"every other frame resolved on the replacement")
    for event in restart_events:
        print(f"  shard_restart event: {event.fields}")


def _scrambled(snapshot):
    """Same map, label table rotated: a regressed candidate for the demo."""
    import dataclasses

    import numpy as np

    from repro.core.snapshot import SnapshotLabelling

    labelling = snapshot.labelling
    n_labels = max(int(labelling.labels.max()) + 1, 1)
    rotated = np.where(
        labelling.node_labels >= 0,
        (labelling.node_labels + 1) % n_labels,
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


def _drive_until_verdict(service, manager, dataset, n_streams, frames, seed0):
    """Drive waves of frames until the active rollout reaches a verdict."""
    for attempt in range(5):
        _drive(service, dataset, n_streams, frames, seed0=seed0 + attempt * 1000)
        if _ended_once_scored(service, manager):
            return True
    return False


def _ended_once_scored(service, manager):
    """Wait until the shadow evaluator is done with the last wave; whether
    the rollout has ended.

    It is done when the rollout has ended or its sample count stops moving
    while nothing is pending in the service: only more traffic can bring a
    verdict after that.
    """
    samples = None
    while True:
        stats = manager.stats("hall")
        if stats is None:
            return True
        if stats.samples == samples and service.pending_requests == 0:
            return False
        samples = stats.samples
        time.sleep(0.05)


def _canary_cycle(service, dataset, n_streams, frames_per_stream):
    """Shadow -> canary -> promote -> forced regression -> rollback."""
    print("\n=== 4. Guarded rollout: shadow -> canary -> promote ===")
    manager = service.enable_rollouts(
        RolloutConfig(
            policy=RolloutPolicy(
                min_samples=100, promote_agreement=0.95, demote_agreement=0.85
            ),
            canary_fraction=0.2,
            split_seed=2010,
        )
    )
    # The candidate is a rebuild of the same training recipe -- seeded
    # training is deterministic, so it should agree with the active map
    # and clear the policy on live traffic.
    rebuilt = api.train(
        dataset.train_signatures, dataset.train_labels,
        n_neurons=40, epochs=15, seed=2010,
    )
    manager.begin("hall", api.snapshot(rebuilt, metadata={"build": "rebuild-v2"}))
    print("candidate hall@v1 shadowing live traffic "
          "(responses still come from the active map)...")
    if not _drive_until_verdict(
        service, manager, dataset, n_streams, frames_per_stream, seed0=500
    ):
        print("rollout still undecided; promoting by hand for the demo")
        manager.promote("hall")
    for event in service.obs.events.events(kind="rollout_canary"):
        print(f"  rollout_canary event: {event.fields}")
    for event in service.obs.events.events(kind="rollout_promoted"):
        print(f"  rollout_promoted event: {event.fields}")
    print(f"rollback ring now holds {len(manager.ring('hall'))} snapshot(s)")

    print("\n=== 5. Forced regression: scrambled candidate is auto-demoted ===")
    active = api.snapshot(service.registry.classifier("hall"))
    manager.begin("hall", _scrambled(active))
    print("regressed candidate hall@v2 shadowing live traffic...")
    if not _drive_until_verdict(
        service, manager, dataset, n_streams, frames_per_stream, seed0=9000
    ):
        raise AssertionError("regressed candidate was never demoted")
    for event in service.obs.events.events(kind="rollout_demoted"):
        print(f"  rollout_demoted event: {event.fields}")

    print("\n=== 6. Rollback: restore the pre-promotion map from the ring ===")
    if manager.rollback("hall"):
        for event in service.obs.events.events(kind="rollout_rolled_back"):
            print(f"  rollout_rolled_back event: {event.fields}")
        print("previous version serving again (zero-drop swap); "
              "driving one confirmation wave")
        _drive(service, dataset, n_streams, frames_per_stream, seed0=7000)
    return manager


def main(
    n_streams: int = 6,
    frames_per_stream: int = 200,
    metrics_out: str | None = None,
    inject_faults: bool = False,
    canary: bool = False,
) -> None:
    print("=== 1. Off-line training and snapshot ===")
    dataset = make_surveillance_dataset(scale=0.1, seed=2010)
    classifier = api.train(
        dataset.train_signatures, dataset.train_labels,
        n_neurons=40, epochs=15, seed=2010,
    )
    accuracy = classifier.score(dataset.test_signatures, dataset.test_labels)
    print(f"trained bSOM accuracy on held-out signatures: {accuracy:.2%}")

    snapshot_path = Path(tempfile.mkdtemp()) / "hall-bsom.npz"
    api.save(classifier, snapshot_path)
    print(f"snapshot written to {snapshot_path}")

    print("\n=== 2. Service: registry + shards + micro-batching + cache ===")
    injector = None
    if inject_faults:
        # Deterministic chaos: after one healthy micro-batch, the next
        # worker to take a batch dies with it in hand -- exactly once.
        injector = FaultInjector(
            seed=2010,
            specs=[FaultSpec(SHARD_DEATH, start_after=1, max_fires=1)],
        )
    # The rollout demo disables the signature cache: shadow evaluation
    # mirrors micro-batches, and a hot cache would answer the repeated
    # frames before they ever reach the kernels the candidate must match.
    config = ServiceConfig(
        batch_size=32,
        max_delay_ms=5.0,
        cache_capacity=0 if canary else 4096,
        n_shards=2,
        fault_injector=injector,
        supervisor=SupervisorConfig(interval_s=0.05, hang_timeout_s=5.0),
    )
    service = api.serve({"hall": api.load(snapshot_path)}, config=config, start=False)
    exporter = JsonlExporter(metrics_out) if metrics_out else None
    print(
        f"registered models: {service.registry.names()}  "
        f"(shards per model: {config.n_shards})"
    )

    with service:
        if inject_faults:
            print(f"\n=== 3. {n_streams} camera streams under an injected "
                  f"shard death ===")
            _drive(service, dataset, n_streams, frames_per_stream, seed0=100,
                   fault_injected=True)
            _report_restarts(service)
            injector.disarm()  # chaos over; the swap phase runs clean
        else:
            print(f"\n=== 3. {n_streams} concurrent camera streams ===")
            _drive(service, dataset, n_streams, frames_per_stream, seed0=100)

        if exporter is not None:
            exporter.export(service.obs.registry, events=service.obs.events)

        if canary:
            _canary_cycle(service, dataset, n_streams, frames_per_stream)
        else:
            print("\n=== 4. Hot-swap to a longer-trained map (zero-drop reflash) ===")
            improved = api.train(
                dataset.train_signatures, dataset.train_labels,
                n_neurons=40, epochs=30, seed=2010,
            )
            api.swap(service, "hall", api.snapshot(improved))
            print(f"swapped in epochs=30 map "
                  f"(accuracy {improved.score(dataset.test_signatures, dataset.test_labels):.2%}); "
                  f"driving the streams again")
            _drive(service, dataset, n_streams, frames_per_stream, seed0=500)

        print("\n=== Telemetry ===")
        snapshot_metrics = service.metrics_snapshot()
        print(f"requests total:      {snapshot_metrics.requests_total}")
        print(f"batches dispatched:  {snapshot_metrics.batches_total} "
              f"(mean fill {snapshot_metrics.mean_batch_fill:.2f}, "
              f"mean size {snapshot_metrics.mean_batch_size:.1f})")
        print(f"cache hit rate:      {snapshot_metrics.cache_hit_rate:.2%}")
        print(f"in-flight dedup:     {snapshot_metrics.dedup_hits} fan-outs")
        print(f"model hot-swaps:     {snapshot_metrics.model_swaps}")
        print(f"latency p50/p95/p99: {snapshot_metrics.latency_p50_ms:.2f} / "
              f"{snapshot_metrics.latency_p95_ms:.2f} / "
              f"{snapshot_metrics.latency_p99_ms:.2f} ms")
        print(f"backpressure:        {snapshot_metrics.backpressure_rejections} rejections")
        if inject_faults:
            print(f"shard restarts:      {snapshot_metrics.shard_restarts} "
                  f"(serve_shard_restarts_total in --metrics-out)")
        if canary:
            registry = service.obs.registry

            def _count(name, labels=None):
                metric = registry.get(name, labels)
                return int(metric.value) if metric is not None else 0

            print(f"shadow mirrored:     "
                  f"{_count('serve_shadow_requests_total', {'model': 'hall'})} requests "
                  f"({_count('serve_shadow_disagreements_total', {'model': 'hall'})} "
                  f"disagreements)")
            print(f"rollouts:            "
                  f"{_count('serve_rollout_promotions_total')} promoted, "
                  f"{_count('serve_rollout_demotions_total')} demoted, "
                  f"{_count('serve_rollout_rollbacks_total')} rolled back "
                  f"(serve_rollout_* in --metrics-out)")
        if exporter is not None:
            exporter.export(service.obs.registry, events=service.obs.events)
            print(f"metric snapshots appended to {metrics_out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--streams", type=int, default=6)
    parser.add_argument("--frames", type=int, default=200)
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH.jsonl",
        help="append JSONL metric+event snapshots here (repro.obs exporter)",
    )
    parser.add_argument(
        "--inject-faults",
        action="store_true",
        help="kill one worker shard mid-wave (deterministic FaultInjector) "
        "and show the supervisor restarting it",
    )
    parser.add_argument(
        "--canary",
        action="store_true",
        help="replace the plain hot-swap with a guarded rollout cycle: "
        "shadow -> canary -> promote, a forced regression auto-demoted, "
        "then a rollback from the ring",
    )
    arguments = parser.parse_args()
    main(
        n_streams=arguments.streams,
        frames_per_stream=arguments.frames,
        metrics_out=arguments.metrics_out,
        inject_faults=arguments.inject_faults,
        canary=arguments.canary,
    )
