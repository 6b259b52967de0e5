"""Reduce metric snapshots to per-phase windowed stats -- no new schema.

The aggregation input is exactly what the runner (or any ``--metrics-out``
JSONL file) already produces: N+1 :func:`~repro.obs.export.metrics_record`
snapshots bracketing N phases.  :func:`~repro.obs.export.windowed_deltas`
diffs them, and this module projects the deltas onto the *existing*
observability vocabulary -- ``serve_request_latency_seconds`` (windowed
p50/p99/p999), ``serve_requests_total`` / ``serve_responses_total``
(throughput), ``serve_batch_fill_fraction_sum`` / ``serve_batches_total``
(batch fill), ``serve_backpressure_rejections_total`` +
``serve_deadline_exceeded_total`` (shed), ``serve_dedup_hits_total``,
``serve_cache_hits_total``, ``serve_model_swaps_total``, and the
``serve_shard_queue_depth{model}`` gauges.  Nothing here registers or
invents a metric name; the aggregate is a projection of the registry,
not a parallel schema.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import DataError
from repro.obs.export import read_jsonl, windowed_deltas
from repro.loadgen.runner import RunResult

LATENCY = "serve_request_latency_seconds"
REQUESTS = "serve_requests_total"
RESPONSES = "serve_responses_total"
BATCHES = "serve_batches_total"
BATCH_FILL_SUM = "serve_batch_fill_fraction_sum"
BACKPRESSURE = "serve_backpressure_rejections_total"
DEADLINE = "serve_deadline_exceeded_total"
DEDUP = "serve_dedup_hits_total"
CACHE_HITS = "serve_cache_hits_total"
SWAPS = "serve_model_swaps_total"
QUEUE_DEPTH = "serve_shard_queue_depth"


def _phase_entry(record: dict[str, Any], delta: dict[str, Any]) -> dict[str, Any]:
    wall_s = float(record.get("wall_s") or 0.0)
    latency = delta.get(LATENCY) or {}
    requests = int(delta.get(REQUESTS, 0))
    responses = int(delta.get(RESPONSES, 0))
    batches = int(delta.get(BATCHES, 0))
    fill_sum = float(delta.get(BATCH_FILL_SUM, 0.0))
    shed = int(delta.get(BACKPRESSURE, 0)) + int(delta.get(DEADLINE, 0))
    queue_depth = {
        key[len(QUEUE_DEPTH) + 1 : -1]: value
        for key, value in delta.items()
        if key.startswith(QUEUE_DEPTH + "{")
    }
    return {
        "phase": record.get("phase"),
        "wall_s": round(wall_s, 6),
        "requests": requests,
        "responses": responses,
        "throughput_rps": round(responses / wall_s, 3) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(float(latency.get("p50", 0.0)) * 1e3, 4),
            "p99": round(float(latency.get("p99", 0.0)) * 1e3, 4),
            "p999": round(float(latency.get("p999", 0.0)) * 1e3, 4),
        },
        "latency_observations": int(latency.get("count", 0)),
        "batches": batches,
        "batch_fill": round(fill_sum / batches, 4) if batches else 0.0,
        "shed": shed,
        "shed_rate": (
            round(shed / (requests + shed), 6) if (requests + shed) else 0.0
        ),
        "dedup_hits": int(delta.get(DEDUP, 0)),
        "cache_hits": int(delta.get(CACHE_HITS, 0)),
        "model_swaps": int(delta.get(SWAPS, 0)),
        "queue_depth": queue_depth,
    }


def aggregate_records(records: list[dict[str, Any]]) -> dict[str, Any]:
    """N+1 snapshot records -> ``{"phases": [<per-window stats>...]}``.

    ``records`` must be ordered; the first is the pre-run baseline, each
    subsequent one closes a phase window (its ``phase`` / ``wall_s``
    extras, when present, label the window).
    """
    if len(records) < 2:
        raise DataError(
            f"need at least two snapshots to aggregate, got {len(records)}"
        )
    deltas = windowed_deltas(records)
    return {
        "phases": [
            _phase_entry(record, delta)
            for record, delta in zip(records[1:], deltas)
        ]
    }


def aggregate_jsonl(path) -> dict[str, Any]:
    """Aggregate a JSONL snapshot file written by ``JsonlExporter``."""
    return aggregate_records(read_jsonl(path))


def aggregate_run(run: RunResult) -> dict[str, Any]:
    """Merge registry windows with the runner's client-side accounting.

    Registry deltas say what the *service* saw (latency distribution,
    batch fill, sheds); the runner's :class:`~repro.loadgen.runner.PhaseResult`
    says what the *client* saw (offered vs answered vs unresolved,
    lifecycle actions performed).  One entry per phase carries both, plus
    run-level totals and the zero-drop verdict.
    """
    aggregated = aggregate_records(run.records)
    phases = aggregated["phases"]
    if len(phases) != len(run.phases):
        raise DataError(
            f"snapshot windows ({len(phases)}) do not match executed "
            f"phases ({len(run.phases)})"
        )
    for entry, result in zip(phases, run.phases):
        entry["client"] = result.to_dict()
    totals = {
        "offered": sum(p.offered for p in run.phases),
        "answered": sum(p.answered for p in run.phases),
        "shed": sum(p.shed for p in run.phases),
        "failed": sum(p.failed for p in run.phases),
        "unresolved": run.unresolved,
        "swaps": sum(p.swaps for p in run.phases),
        "evictions": sum(p.evictions for p in run.phases),
        "rollouts": sum(p.rollouts for p in run.phases),
        "zero_drop": run.zero_drop,
    }
    return {
        "spec": run.spec.name,
        "model": run.model,
        "seed": run.spec.seed,
        "n_streams": run.spec.n_streams,
        "phases": phases,
        "totals": totals,
    }


def phase_named(aggregate: dict[str, Any], name: str) -> Optional[dict[str, Any]]:
    """The phase entry called ``name``, or None."""
    for entry in aggregate.get("phases", []):
        if entry.get("phase") == name:
            return entry
    return None
