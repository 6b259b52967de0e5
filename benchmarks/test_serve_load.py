"""Serve-layer load contracts under open-loop overload and lifecycle churn.

Replays a three-phase :class:`~repro.loadgen.WorkloadSpec` through the
open-loop load harness against a live ``StreamingInferenceService``:

* ``steady`` -- Poisson arrivals the service sustains comfortably.
* ``burst`` -- a burst train well past capacity; backpressure shedding is
  expected.
* ``soak`` -- a diurnal ramp with lifecycle churn mid-load: two
  hot-swaps, one register-submit-evict cycle against a throwaway victim
  model, and two rollout begin->promote / begin->demote cycles.

The contracts are exact: zero drop at saturation (every submitted future
goes terminal), exhaustive per-phase accounting with no failed request,
the soak phase's scheduled churn performed, and the Zipf hot keys
reaching the dedup or cache path.  Nothing here is timed: the repository
benchmark's ``serve_churn`` workload (``perfbench/``) times the service.

Everything on the generation side is seeded (one ``SeedSequence`` per
phase; see ``repro.loadgen.workload``), so the offered schedule is
bit-identical run to run.  The aggregate is a projection of the existing
observability registry -- windowed deltas over
:func:`~repro.obs.export.metrics_record` snapshots -- not a new schema.
"""

from __future__ import annotations

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

SPEC_SEED = 20260808
POOL_IDENTITIES = 10
POOL_SAMPLES = 100
N_BITS = 128

#: Soak-phase lifecycle churn counts (mirrored by the assertions below).
SOAK_SWAPS = 2
SOAK_EVICTIONS = 1
SOAK_ROLLOUTS = 2


def bench_spec() -> WorkloadSpec:
    """The load workload: steady -> burst -> soak."""
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


def test_serve_load_contracts():
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
