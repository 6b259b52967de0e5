#!/usr/bin/env bash
# CI gate for the repro library.
#
# Runs the tier-1 suite exactly as ROADMAP.md specifies (tests/ and
# benchmarks/ are both collected from the repo root), the parity, lifecycle,
# observability, resilience, rollout and load gates, a fast smoke of the
# streaming-service demo so the serve layer is exercised end to end --
# threads, shards, cache and telemetry included -- and short traced runs of
# the repository benchmark, on every change.
#
# Usage: scripts/ci_check.sh [extra pytest args...]

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "=== static analysis: lock-order / thread-safety / determinism / vocabulary ==="
# Project-native lints over src/repro (stdlib ast, sub-second): lock
# acquisition cycles, unguarded shared state, thread hygiene, unseeded
# randomness and wall-clock use in serve/obs, metric/event vocabulary
# two-way doc sync, error taxonomy, exact __all__, import cycles.  Fails
# on any finding not in src/repro/analysis/baseline.json.
python scripts/check_static.py

echo
echo "=== tier-1: pytest (tests/ + benchmarks/) ==="
python -m pytest -x -q "$@"

echo
echo "=== backend parity smoke + perf-regression guard ==="
# Bit-exact agreement of all distance backends with the naive oracle, then
# the packed uint64 kernel re-timed on the 256-neuron/1024-batch cell
# against the baseline committed in BENCH_distance.json (fail if >2x slower).
python scripts/check_backends.py

echo
echo "=== vision parity smoke + frame-rate regression guard ==="
# Bit-exact agreement of the vectorized CCL / morphology / blob / batched
# histogram paths with the seed oracles in tests/oracles/vision.py, then the
# vectorized RecognitionSystem re-timed on the 320x240 benchmark scene
# against the baseline committed in BENCH_vision.json (fail if >2x slower).
python scripts/check_vision.py

echo
echo "=== lifecycle smoke: save -> load -> serve -> swap under load ==="
# The unified lifecycle API end to end: format-v2 round-trip (backend +
# weights-version preserved), serving from a snapshot, a hot-swap issued
# while concurrent submitters are mid-flight (zero dropped requests), and
# the in-flight dedup counter moving.
python scripts/check_lifecycle.py

echo
echo "=== observability: exporter schema + trace completeness + overhead ==="
# Full span chains retrievable by trace_id (including across a mid-flight
# hot-swap), JSONL and Prometheus exporters proven by read-back/parse
# round trips, and end-to-end throughput with default-sampling tracing
# held within 5% of tracing disabled.
python scripts/check_obs.py

echo
echo "=== resilience: chaos gate (deterministic fault injection, seed 7) ==="
# Every fault class (raising/hung kernels, dying workers, failing swaps,
# corrupt cache entries) with deadlines, retry, breakers and the shard
# supervisor armed: every future terminal, zero hung futures or leaked
# threads, throughput recovered to >= 90% of the pre-fault baseline, and
# a fault pattern that replays exactly under the same seed.
python scripts/check_resilience.py --seed 7

echo
echo "=== rollouts: guarded model updates under load (seed 11) ==="
# The guarded-rollout gate: a regressed candidate shadow-evaluated under
# 4-thread load is auto-demoted with zero dropped requests and the prior
# version left serving; a healthy candidate promotes through the canary
# split and rolls back from the ring; an on-line learner's full+delta
# publication chain materialises bit-exactly after an archive round trip;
# truncated/bit-flipped archives raise SnapshotCorruptionError and never
# reach the registry.
python scripts/check_rollout.py --seed 11

echo
echo "=== load harness: BENCH_serve.json guard (zero drops at saturation) ==="
# Replays the committed seeded workload (steady -> saturating burst ->
# soak with hot-swaps, a victim eviction and rollout promote/demote
# cycles mid-load) through repro.loadgen: every future terminal (the
# zero-drop contract held at saturation), exhaustive per-phase
# accounting, all lifecycle churn performed, and saturation throughput /
# steady p99 within bounds of the committed BENCH_serve.json baseline.
python scripts/check_serve.py

echo
echo "=== smoke: streaming service demo (4 cameras, 40 frames each) ==="
python examples/streaming_service.py --streams 4 --frames 40

echo
echo "=== benchmark hooks: perfbench self-test + 4-second traced runs ==="
# The traced run wraps program calls by name (resolve_requests and
# packed_signature_words in repro.serve.service, the service's cache.get,
# registry.submit and swap_model, SomClassifier.predict_batch_packed) and
# exits non-zero when any answer or accounting check fails, so a rename
# that would quietly break the benchmark fails here instead.
python3 perfbench/selftest.py
for workload in camera serve_churn; do
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 4 --trace 1
done

echo
echo "ci_check: OK"
