#!/usr/bin/env bash
# CI gate for the repro library.
#
# Runs the tier-1 suite exactly as ROADMAP.md specifies (tests/ and
# benchmarks/ are both collected from the repo root), the kernel, training
# and vision parity smokes, the lifecycle, observability, resilience and rollout
# gates, fast smokes of the streaming-service demo so the serve layer is
# exercised end to end -- threads, shards, cache, telemetry, a worker's
# death and a guarded rollout included -- and short traced runs of the
# repository benchmark, on every change.
# Nothing here is judged against a recorded wall-clock baseline: the
# repository benchmark (perfbench/, paired by scripts/bench_pairs.py) times
# the program.
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
echo "=== kernel and training parity smoke ==="
# Bit-exact agreement of the packed distance kernel (native and lookup-table
# popcount) with the naive oracle in tests/oracles/distance.py, and of both
# bSOM training passes with the int8 oracle in tests/oracles/bsom.py; fails
# if cc is on PATH but the compiled training pass did not load.  The
# kernel's speed is the benchmark's core.kernel_us_per_row (below).
python scripts/check_backends.py

echo
echo "=== vision parity smoke ==="
# Bit-exact agreement of the run-list CCL / morphology / blob / batched
# histogram paths with the seed oracles in tests/oracles/vision.py.  The
# stages' speed is the benchmark's vision.* per-layer metrics (below).
python scripts/check_vision.py

echo
echo "=== lifecycle smoke: save -> load -> serve -> swap under load ==="
# The unified lifecycle API end to end: format-v2 round-trip (weights
# version preserved), serving from a snapshot, a hot-swap issued
# while concurrent submitters are mid-flight (zero dropped requests), and
# the in-flight dedup counter moving.
python scripts/check_lifecycle.py

echo
echo "=== observability: exporter schema + trace completeness + overhead ==="
# Full span chains retrievable by trace_id (including across a mid-flight
# hot-swap), JSONL and Prometheus exporters proven by read-back/parse
# round trips, and the Python bytecodes a request runs (one-row submit
# plus its share of settle, counted on a frozen clock) with
# default-sampling tracing held within 5% of tracing disabled; the
# wall-clock throughput rounds it prints are a report, not a gate.
python scripts/check_obs.py

echo
echo "=== resilience: chaos gate (deterministic fault injection, seed 7) ==="
# Every fault class (raising/hung kernels, dying workers, failing swaps,
# corrupt cache entries) with deadlines, retry, breakers and the shard
# supervisor armed: every future terminal, zero hung futures or leaked
# threads, full recovery (every shard live, every breaker closed,
# throughput >= 90% and every shard's scoring step, the one its worker runs
# per batch, >= 90% of a never-faulted twin's speed, measured in
# alternating rounds), and a fault pattern that replays exactly under the
# same seed.
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
echo "=== smoke: streaming service demo (4 cameras, 40 frames each) ==="
python examples/streaming_service.py --streams 4 --frames 40

echo
echo "=== smoke: streaming service demo under a shard death, then a rollout ==="
# The same camera drive with a worker killed mid-wave (only the abandoned
# micro-batch may fail) and the shadow -> canary -> promote, demote and
# rollback cycle in place of the plain swap.
python examples/streaming_service.py --streams 4 --frames 40 --inject-faults --canary

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
