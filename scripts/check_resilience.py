#!/usr/bin/env python
"""CI chaos gate: the serve stack under deterministic fault injection.

Drives the streaming service through every fault class the resilience
layer defends against -- raising kernels, hung kernels, dying shard
workers, failing swaps, corrupt cache entries -- with all four defences
armed (deadlines, retry, circuit breakers, shard supervision), and holds
it to four invariants:

1. **terminal futures** -- under every fault class, every submitted
   request reaches a terminal state (a result or a typed service error)
   within its result deadline; one hung future fails the gate,
2. **zero leaked threads** -- after ``service.stop()`` no worker,
   dispatcher or supervisor thread survives,
3. **recovery** -- after the chaos is disarmed, every shard's worker is
   alive and enabled, every circuit breaker is closed, the fault-free
   waves fail nothing, and both throughput and every shard's scoring step
   (the one its worker runs per batch, timed directly) are within 10% of
   a never-faulted twin service's, measured in alternating rounds so the
   host's drift cancels (the restarts, swaps and breakers left no lasting
   damage), and
4. **deterministic injection** -- the fault pattern is a pure function of
   the seed, so any failure of this gate replays locally with the same
   ``--seed``.

Run directly or through scripts/ci_check.sh:

    PYTHONPATH=src python scripts/check_resilience.py --seed 7
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import api  # noqa: E402
from repro.datasets import make_signature_clusters  # noqa: E402
from repro.errors import (  # noqa: E402
    InjectedFaultError,
    ResultTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.serve import (  # noqa: E402
    BreakerConfig,
    ClassificationRequest,
    FaultInjector,
    FaultSpec,
    MicroBatch,
    RetryPolicy,
    ServiceConfig,
    SupervisorConfig,
)
from repro.serve.resilience import (  # noqa: E402
    CACHE_CODEC,
    FAULT_SITES,
    KERNEL_HANG,
    KERNEL_RAISE,
    SHARD_DEATH,
    SWAP_FAILURE,
)
from repro.signatures import packed_signature_words  # noqa: E402

WAVE = 400  # requests per fault wave
THROUGHPUT_WAVE = 1000  # requests per throughput-measurement round
THROUGHPUT_ROUNDS = 6  # first round is warm-up; median of the rest counts
#: Alternating pairs of rounds (recovered service, twin) that count, after
#: one warm-up pair; an even number, so each side goes first equally often.
#: Two healthy services read 0.85-1.06 of each other over 5 pairs (24 fresh
#: processes), reaching into the 10% the floor allows, 0.82-1.05 over 12
#: and 0.95-1.03 over 60 (20 processes).
RECOVERY_PAIRS = 60
N_BITS = 128
RESULT_TIMEOUT_S = 15.0  # a future unresolved past this counts as hung
RECOVERY_FLOOR = 0.9  # recovered throughput and scoring must reach 90% of the twin's
SCORING_REPS = 200  # timed scoring steps per shard and service; the fastest counts


def wave_signatures(seed: int, phase: str, n: int = WAVE) -> np.ndarray:
    """Distinct random signatures per phase.

    Distinct rows keep the phases honest: with a small repeated pool every
    late request coalesces onto the first batches' primaries, so one
    injected fault would fan out to the whole wave and the recovery
    measurement would time the dedup table instead of the kernels.
    """
    rng = np.random.default_rng([seed, *phase.encode()])  # hash-seed independent
    return rng.integers(0, 2, size=(n, N_BITS)).astype(np.uint8)


def check_deterministic_injection(seed: int) -> None:
    """Invariant 4: same seed => identical fire pattern, per site."""

    def pattern(s: int) -> list[bool]:
        injector = FaultInjector(
            seed=s, specs=[FaultSpec(site, probability=0.3) for site in FAULT_SITES]
        )
        return [injector.fires(site) is not None for site in FAULT_SITES for _ in range(64)]

    if pattern(seed) != pattern(seed):
        raise AssertionError("same seed replayed a different fault pattern")
    if pattern(seed) == pattern(seed + 1):
        raise AssertionError("different seeds produced identical fault patterns")
    print(f"injection determinism ok (seed {seed})")


def drive_wave(service, signatures: np.ndarray, stream_id: str):
    """Submit one wave and wait every future to a terminal state.

    Returns ``(ok, failed, elapsed_s)``.  Raises on the one unacceptable
    outcome: a future that neither resolved nor failed within
    ``RESULT_TIMEOUT_S`` (a hung request).
    """
    t0 = time.perf_counter()
    futures = []
    for row in signatures:
        while True:
            try:
                futures.append(service.submit(row, model="m", stream_id=stream_id))
                break
            except ServiceOverloadedError:
                time.sleep(0.002)  # saturated or circuit open: back off, retry
            except ServiceError as error:
                # Any other submit-time refusal is terminal for this request.
                futures.append(error)
                break
    ok = failed = 0
    for future in futures:
        if isinstance(future, ServiceError):
            failed += 1
            continue
        try:
            future.result(RESULT_TIMEOUT_S)
            ok += 1
        except ResultTimeoutError:
            raise AssertionError(
                f"a {stream_id!r} request hung past {RESULT_TIMEOUT_S}s"
            )
        except ServiceError:
            failed += 1
    return ok, failed, time.perf_counter() - t0


def fault_free_rate(service, seed: int, stream_id: str) -> float:
    """Throughput of one fault-free round; any failed request fails the gate."""
    wave = wave_signatures(seed, stream_id, THROUGHPUT_WAVE)
    ok, failed, elapsed = drive_wave(service, wave, stream_id)
    if failed:
        raise AssertionError(
            f"{failed} request(s) failed during the fault-free {stream_id!r} measurement"
        )
    return ok / elapsed


def measure_throughput(service, seed: int, stream_id: str) -> float:
    """Median throughput over several rounds, first round discarded."""
    rates = [
        fault_free_rate(service, seed, f"{stream_id}-{index}")
        for index in range(THROUGHPUT_ROUNDS)
    ]
    return statistics.median(rates[1:])


def measure_recovery(service, twin, seed: int, stream_id: str) -> float:
    """The faulted service's throughput as a share of the twin's.

    Rounds alternate between the two services, each pair in alternating
    order, and the share is the median of the per-pair ratios over
    ``RECOVERY_PAIRS`` pairs after a warm-up pair.  Single rounds on a
    shared machine swing by tens of percent as the host drifts (two
    back-to-back medians of five rounds on one healthy service read
    87-108% of each other); adjacent rounds see the same host, so the
    drift cancels in each ratio.
    """
    ratios = []
    for index in range(RECOVERY_PAIRS + 1):
        round_id = f"{stream_id}-{index}"
        if index % 2:
            twin_rate = fault_free_rate(twin, seed, f"twin-{round_id}")
            rate = fault_free_rate(service, seed, round_id)
        else:
            rate = fault_free_rate(service, seed, round_id)
            twin_rate = fault_free_rate(twin, seed, f"twin-{round_id}")
        ratios.append(rate / twin_rate)
    return statistics.median(ratios[1:])


def probe_batch(seed: int, size: int) -> MicroBatch:
    """One fixed full batch of distinct signatures for model ``"m"``."""
    words = packed_signature_words(wave_signatures(seed, "probe", size))
    requests = tuple(
        ClassificationRequest(
            packed=row, model="m", stream_id="probe", request_id=index,
            cache_key=row.tobytes(), enqueued_at=0.0,
        )
        for index, row in enumerate(words)
    )
    return MicroBatch("m", requests, capacity=size, flushed_by="size")


def fastest_scoring(services, seed: int) -> list[dict[str, float]]:
    """Each shard's fastest scoring step, per service, in seconds.

    The step is the one a shard's worker runs on every batch it serves
    (``WorkerShard._classify``: the kernel call and what the shard does
    around it), so a restarted worker that does extra work per batch
    shows here.  The throughput rounds cannot see it: scoring is ~5% of a
    request's cost here, so even a 3x slower worker reads ~90% of the
    twin's throughput.  Each shard scores one fixed full batch
    ``SCORING_REPS`` times on this thread, the services taking turns, so
    both see the same host and CPU; timed on the workers' own threads
    instead, two equally healthy services' shards read 73-138% of each
    other.
    """
    batch = probe_batch(seed, services[0].config.batch_size)
    fastest: list[dict[str, float]] = [{} for _ in services]
    for rep in range(SCORING_REPS):
        for side in (0, 1) if rep % 2 == 0 else (1, 0):
            for _, shard in services[side].registry.iter_shards():
                start = time.perf_counter()
                shard._classify(batch)
                elapsed = time.perf_counter() - start
                fastest[side][shard.name] = min(elapsed, fastest[side].get(shard.name, elapsed))
    return fastest


def check_healthy(service) -> None:
    """Recovery, read directly: every shard's worker alive and enabled,
    and every circuit breaker closed."""
    for model, shard in service.registry.iter_shards():
        if shard.disabled:
            raise AssertionError(f"shard {shard.name} of {model!r} is still disabled")
        if not shard.thread_alive:
            raise AssertionError(f"shard {shard.name} of {model!r} has no live worker")
    not_closed = sorted(
        "/".join(value for _, value in metric.labels)
        for metric in service.obs.registry.collect()
        if metric.name == "serve_breaker_state" and metric.value != 0
    )
    if not_closed:
        raise AssertionError(f"circuit breaker(s) not closed: {not_closed}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="fault-injection seed")
    args = parser.parse_args()

    check_deterministic_injection(args.seed)

    X, y = make_signature_clusters(
        n_identities=5,
        samples_per_identity=40,
        n_bits=128,
        core_bits=20,
        shared_bits=15,
        seed=7,
    )
    v1 = api.train(X, y, n_neurons=16, epochs=6, seed=1)
    # Same architecture as v1, so the swapped-in map costs what the
    # baseline's did; the twin of the recovery phase serves it too.
    v2 = api.train(X, y, n_neurons=16, epochs=10, seed=2)

    threads_before = {t.name for t in threading.enumerate()}
    injector = FaultInjector(seed=args.seed)  # armed per phase below
    config = ServiceConfig(
        batch_size=16,
        max_delay_ms=2.0,
        cache_capacity=0,  # throughput below measures kernels, not memoisation
        n_shards=2,
        max_pending=4096,
        default_deadline_s=10.0,
        retry=RetryPolicy(5, base_delay_s=0.005, max_delay_s=0.05, seed=args.seed),
        breaker=BreakerConfig(failure_threshold=3, reset_timeout_s=0.05),
        supervisor=SupervisorConfig(interval_s=0.02, hang_timeout_s=0.2, max_restarts=8),
        fault_injector=injector,
    )
    service = api.serve({"m": v1}, config=config)
    twin = None

    try:
        # --- pre-fault baseline ------------------------------------------
        baseline = measure_throughput(service, args.seed, "baseline")
        print(f"baseline ok: {baseline:.0f} req/s")

        # --- fault class 1: raising kernels ------------------------------
        injector.arm(FaultSpec(KERNEL_RAISE, probability=0.3, max_fires=6))
        ok, failed, _ = drive_wave(
            service, wave_signatures(args.seed, "kernel-raise"), "kernel-raise"
        )
        injector.disarm(KERNEL_RAISE)
        if injector.fired(KERNEL_RAISE) == 0:
            raise AssertionError("kernel_raise never fired; the phase proved nothing")
        print(
            f"kernel_raise ok: {injector.fired(KERNEL_RAISE)} faults, "
            f"{ok} answered, {failed} failed terminally, 0 hung"
        )

        # --- fault class 2: hung kernels (wedged workers) ----------------
        injector.arm(FaultSpec(KERNEL_HANG, hang_s=0.6, max_fires=2))
        restarts_before = service.metrics_snapshot().shard_restarts
        ok, failed, _ = drive_wave(
            service, wave_signatures(args.seed, "kernel-hang"), "kernel-hang"
        )
        injector.disarm(KERNEL_HANG)
        wedge_restarts = service.metrics_snapshot().shard_restarts - restarts_before
        if injector.fired(KERNEL_HANG) == 0:
            raise AssertionError("kernel_hang never fired; the phase proved nothing")
        if wedge_restarts == 0:
            raise AssertionError("no supervisor restart despite wedged workers")
        print(
            f"kernel_hang ok: {injector.fired(KERNEL_HANG)} wedges, "
            f"{wedge_restarts} watchdog restart(s), {ok} answered, "
            f"{failed} failed terminally, 0 hung"
        )

        # --- fault class 3: dying shard workers --------------------------
        injector.arm(FaultSpec(SHARD_DEATH, max_fires=2))
        restarts_before = service.metrics_snapshot().shard_restarts
        ok, failed, _ = drive_wave(
            service, wave_signatures(args.seed, "shard-death"), "shard-death"
        )
        injector.disarm(SHARD_DEATH)
        death_restarts = service.metrics_snapshot().shard_restarts - restarts_before
        if injector.fired(SHARD_DEATH) != 2:
            raise AssertionError(
                f"expected 2 worker deaths, injected {injector.fired(SHARD_DEATH)}"
            )
        if death_restarts < 2:
            raise AssertionError(
                f"2 workers died but only {death_restarts} restart(s) happened"
            )
        print(
            f"shard_death ok: 2 deaths, {death_restarts} watchdog restart(s), "
            f"{ok} answered, {failed} failed terminally, 0 hung"
        )

        # --- fault class 4: failing hot-swap -----------------------------
        injector.arm(FaultSpec(SWAP_FAILURE, max_fires=1))
        try:
            api.swap(service, "m", api.snapshot(v2))
        except InjectedFaultError:
            pass
        else:
            raise AssertionError("armed swap_failure did not fire")
        # The old model must keep serving, and the retried swap must land.
        ok, failed, _ = drive_wave(
            service,
            wave_signatures(args.seed, "post-failed-swap", WAVE // 4),
            "post-failed-swap",
        )
        if failed:
            raise AssertionError(f"{failed} request(s) failed after the aborted swap")
        api.swap(service, "m", api.snapshot(v2))
        injector.disarm(SWAP_FAILURE)
        print("swap_failure ok: aborted cleanly, old model kept serving, retry landed")

        # --- fault class 5: corrupt cache entries ------------------------
        injector.arm(FaultSpec(CACHE_CODEC, probability=0.5, max_fires=20))
        cache_errors_before = service.metrics_snapshot().cache_errors
        ok, failed, _ = drive_wave(
            service,
            wave_signatures(args.seed, "cache-codec", WAVE // 4),
            "cache-codec",
        )
        injector.disarm(CACHE_CODEC)
        cache_errors = service.metrics_snapshot().cache_errors - cache_errors_before
        if failed:
            raise AssertionError(
                f"{failed} request(s) failed on cache faults; they must degrade to misses"
            )
        if cache_errors == 0:
            raise AssertionError("cache_codec never fired; the phase proved nothing")
        print(f"cache_codec ok: {cache_errors} faults degraded to misses, 0 failures")

        # --- recovery: all chaos off, the service as healthy as a twin ---
        injector.disarm()
        # The twin serves the same map under the same config, with an
        # injector of its own that is never armed.
        twin = api.serve(
            {"m": api.snapshot(v2)},
            config=dataclasses.replace(config, fault_injector=FaultInjector(seed=args.seed)),
        )
        share = measure_recovery(service, twin, args.seed, "recovery")
        if share < RECOVERY_FLOOR:
            # One settle-and-retry: supervisor restarts finished moments
            # ago; a genuinely damaged service (slow restarted workers)
            # stays slow against the twin.
            time.sleep(0.5)
            share = max(share, measure_recovery(service, twin, args.seed, "recovery-settle"))
        check_healthy(service)
        if share < RECOVERY_FLOOR:
            raise AssertionError(
                f"throughput did not recover: {share:.0%} of the never-faulted "
                f"twin's (< {RECOVERY_FLOOR:.0%})"
            )
        fastest, twin_fastest = fastest_scoring((service, twin), args.seed)
        speeds = {shard: twin_fastest[shard] / fastest[shard] for shard in fastest}
        slow = {shard: f"{speed:.0%}" for shard, speed in speeds.items() if speed < RECOVERY_FLOOR}
        if slow or speeds.keys() != twin_fastest.keys():
            raise AssertionError(
                f"shard scoring did not recover: {slow} of the never-faulted twin "
                f"shard's speed (< {RECOVERY_FLOOR:.0%}), shards {sorted(speeds)}"
            )
        print(
            f"recovery ok: every shard live, every breaker closed, "
            f"{share:.0%} of the never-faulted twin's throughput, shards scoring "
            f"at {min(speeds.values()):.0%}+ of the twin's speed"
        )
    finally:
        service.stop()
        if twin is not None:
            twin.stop()

    # --- zero leaked threads ---------------------------------------------
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leaked = {
            t.name
            for t in threading.enumerate()
            if t.name not in threads_before and t.is_alive()
        }
        if not leaked:
            break
        time.sleep(0.05)
    if leaked:
        print(f"FAIL: thread(s) leaked after stop: {sorted(leaked)}")
        return 1
    snapshot = service.metrics_snapshot()
    leaks = snapshot.shard_leaks + twin.metrics_snapshot().shard_leaks
    if leaks:
        print(f"FAIL: registry reported {leaks} leaked shard worker(s)")
        return 1

    print(
        f"resilience ok (seed {args.seed}): "
        f"{snapshot.shard_restarts} restart(s), "
        f"{snapshot.retries} retried submit(s), "
        f"{snapshot.deadline_exceeded} deadline shed(s), "
        f"{snapshot.cache_errors} cache fault(s), 0 hung futures, 0 leaked threads"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
