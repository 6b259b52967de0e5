"""Serve-layer load benchmark: the committed ``BENCH_serve.json`` baseline.

Replays a three-phase :class:`~repro.loadgen.WorkloadSpec` through the
open-loop load harness against a live ``StreamingInferenceService``:

* ``steady`` -- Poisson arrivals the service sustains comfortably; the
  baseline's p50/p99/p999 latency and steady throughput come from here.
* ``burst`` -- a burst train well past capacity; the baseline's
  *saturation throughput* (what the service actually answers per second
  when offered more than it can take) comes from here, and backpressure
  shedding is expected and recorded.
* ``soak`` -- a diurnal ramp with lifecycle churn mid-load: two
  hot-swaps, one register-submit-evict cycle against a throwaway victim
  model, and two rollout begin->promote / begin->demote cycles.  The
  hard contract (also enforced by ``scripts/check_serve.py`` in CI) is
  zero-drop at saturation: every submitted future goes terminal.

Everything on the generation side is seeded (one ``SeedSequence`` per
phase; see ``repro.loadgen.workload``), so the offered schedule is
bit-identical run to run; wall-clock variation enters only through the
service under test.  The aggregate is a projection of the existing
observability registry -- windowed deltas over
:func:`~repro.obs.export.metrics_record` snapshots -- not a new schema.

Results go to ``BENCH_serve.json`` at the repository root.  That file is
committed: ``scripts/check_serve.py`` uses its recorded saturation
throughput and steady p99 as CI regression bounds.  A plain test run only
writes the file when it is missing; regenerate deliberately (after serve
or loadgen changes) with::

    REPRO_WRITE_BENCH=1 python -m pytest benchmarks/test_serve_load.py

Thread pools are pinned to 1 by ``benchmarks/conftest.py`` so the numbers
are host-core-count independent.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import api
from repro.datasets import make_signature_clusters
from repro.loadgen import (
    BurstTrain,
    DiurnalRamp,
    Phase,
    PoissonProcess,
    WorkloadSpec,
    aggregate_run,
    phase_named,
    run_workload,
)
from repro.serve import ServiceConfig

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

SPEC_SEED = 20260808
POOL_IDENTITIES = 10
POOL_SAMPLES = 100
N_BITS = 128

#: Soak-phase lifecycle churn counts (mirrored by the assertions below and
#: by scripts/check_serve.py).
SOAK_SWAPS = 2
SOAK_EVICTIONS = 1
SOAK_ROLLOUTS = 2


def bench_spec() -> WorkloadSpec:
    """The committed benchmark workload: steady -> burst -> soak."""
    return WorkloadSpec(
        name="serve-bench",
        n_streams=256,
        zipf_exponent=0.95,
        seed=SPEC_SEED,
        phases=(
            Phase("steady", duration_s=1.0, arrival=PoissonProcess(600.0)),
            Phase(
                "burst",
                duration_s=0.8,
                arrival=BurstTrain(
                    base_rate_hz=400.0,
                    burst_rate_hz=20000.0,
                    period_s=0.4,
                    burst_fraction=0.5,
                ),
            ),
            Phase(
                "soak",
                duration_s=1.6,
                arrival=DiurnalRamp(300.0, 1200.0, period_s=0.8),
                hot_swaps=SOAK_SWAPS,
                evictions=SOAK_EVICTIONS,
                rollouts=SOAK_ROLLOUTS,
            ),
        ),
    )


def bench_config() -> ServiceConfig:
    """Small-but-realistic serving shape: the cache is deliberately far
    smaller than the pool's hot set so Zipf traffic churns the LRU."""
    return ServiceConfig(
        batch_size=16,
        max_delay_ms=2.0,
        cache_capacity=64,
        n_shards=2,
        max_pending=128,
    )


def run_bench():
    """Train, serve, replay the spec; returns ``(RunResult, aggregate)``."""
    signatures, labels = make_signature_clusters(
        POOL_IDENTITIES, POOL_SAMPLES, n_bits=N_BITS, seed=7
    )
    primary = api.train(signatures, labels, n_neurons=16, epochs=6, seed=1)
    alternate = api.train(signatures, labels, n_neurons=24, epochs=8, seed=2)
    service = api.serve({"hall": api.snapshot(primary)}, config=bench_config())
    try:
        run = run_workload(
            service,
            bench_spec(),
            signatures,
            model="hall",
            swap_source=lambda: api.snapshot(alternate),
        )
    finally:
        service.stop()
    return run, aggregate_run(run)


def test_serve_load_baseline():
    run, aggregate = run_bench()

    # Zero-drop at saturation: every future terminal, in every phase --
    # including the soak phase's victim-eviction and rollout churn.
    assert run.zero_drop, f"{run.unresolved} futures never resolved"

    # Accounting is exhaustive: each scheduled event ended exactly once.
    for phase in run.phases:
        assert (
            phase.answered + phase.shed + phase.failed + phase.unresolved
            == phase.offered
        ), f"phase {phase.name}: accounting leak"
        assert phase.failed == 0, f"phase {phase.name}: unexpected failures"
        assert phase.answered > 0, f"phase {phase.name}: nothing answered"

    # Soak actually churned the lifecycle mid-load.
    soak = run.phases[-1]
    assert soak.swaps == SOAK_SWAPS
    assert soak.evictions == SOAK_EVICTIONS
    assert soak.rollouts == SOAK_ROLLOUTS

    # The Zipf hot keys exercised the dedup/cache paths somewhere.
    steady_entry = phase_named(aggregate, "steady")
    burst_entry = phase_named(aggregate, "burst")
    soak_entry = phase_named(aggregate, "soak")
    assert steady_entry and burst_entry and soak_entry
    total_reuse = sum(
        entry["dedup_hits"] + entry["cache_hits"]
        for entry in aggregate["phases"]
    )
    assert total_reuse > 0, "Zipf skew never hit the dedup or cache paths"

    report = {
        "meta": {
            "spec": run.spec.name,
            "seed": run.spec.seed,
            "n_streams": run.spec.n_streams,
            "pool": f"{POOL_IDENTITIES}x{POOL_SAMPLES}x{N_BITS}b",
            "service": {
                "batch_size": 16,
                "max_delay_ms": 2.0,
                "cache_capacity": 64,
                "n_shards": 2,
                "max_pending": 128,
            },
            "source": "benchmarks/test_serve_load.py",
            "regenerate": (
                "REPRO_WRITE_BENCH=1 python -m pytest "
                "benchmarks/test_serve_load.py"
            ),
        },
        "phases": aggregate["phases"],
        "totals": aggregate["totals"],
        "baseline": {
            "steady_throughput_rps": steady_entry["throughput_rps"],
            "steady_p99_ms": steady_entry["latency_ms"]["p99"],
            "saturation_throughput_rps": burst_entry["throughput_rps"],
        },
    }
    if os.environ.get("REPRO_WRITE_BENCH") or not BENCH_PATH.exists():
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
