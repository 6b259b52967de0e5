"""Fleet-scale load harness: open-loop generation, aggregation, reporting.

The serving system's benchmark rig.  A :class:`WorkloadSpec` describes
phased traffic (warmup -> steady -> burst -> soak) from hundreds to
thousands of simulated camera streams; :func:`run_workload` replays it
open-loop against a live :class:`~repro.serve.StreamingInferenceService`
on a small thread pool, driving hot-swaps, evictions and rollout cycles
mid-load during soak; :func:`aggregate_run` reduces the per-phase metric
snapshots to windowed deltas on the existing observability vocabulary;
:func:`render_report` prints the result.  ``benchmarks/test_serve_load.py``
asserts the harness's exact contracts (zero drop, per-phase accounting,
the soak phase's lifecycle churn) on every test run::

    from repro import api
    from repro.loadgen import built_in_specs, run_workload, aggregate_run

    service = api.serve({"hall": snapshot})
    run = aggregate_run(
        run_workload(service, built_in_specs()["demo"], pool,
                     model="hall", swap_source=lambda: snapshot)
    )

Everything is seeded and deterministic on the generation side (schedules
replay bit-for-bit); wall-clock variation enters only through the
service under test.
"""

from repro.loadgen.arrivals import (
    ArrivalProcess,
    BurstTrain,
    ConstantRate,
    DiurnalRamp,
    PoissonProcess,
    ZipfKeySampler,
)
from repro.loadgen.workload import (
    Phase,
    PhaseSchedule,
    WorkloadSpec,
    build_schedule,
    built_in_specs,
)
from repro.loadgen.runner import PhaseResult, RunResult, run_workload
from repro.loadgen.aggregate import (
    aggregate_jsonl,
    aggregate_records,
    aggregate_run,
    phase_named,
)
from repro.loadgen.report import render_report

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "PoissonProcess",
    "BurstTrain",
    "DiurnalRamp",
    "ZipfKeySampler",
    "Phase",
    "PhaseSchedule",
    "WorkloadSpec",
    "build_schedule",
    "built_in_specs",
    "PhaseResult",
    "RunResult",
    "run_workload",
    "aggregate_records",
    "aggregate_run",
    "aggregate_jsonl",
    "phase_named",
    "render_report",
]
