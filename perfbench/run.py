"""The repository benchmark: camera frames and served signatures at 40x768.

Usage, from the repository root::

    python3 perfbench/run.py --workload camera --seed 1 --seconds 45 --trace 0

``camera``
    Four pre-rendered 320x240 cameras with five actors each feed four
    ``RecognitionSystem``s attached to one ``api.serve`` service, in a
    closed loop.
``serve_churn``
    Uniform draws from a pool 12x the cache, with hot-swaps and rollout
    cycles beside the reads: blocks of Poisson arrivals at a fixed rate
    alternate with blocks of a closed saturation loop.

A run builds its inputs from ``--seed`` before anything is timed, sets the
program up several times, measures for ``--seconds``, checks every answer
against in-process ``SomClassifier.predict_batch`` and the accounting of
every operation, prints a report, and ends with one JSON line: the
end-to-end metrics (``endtoend.py``), or with ``--trace 1`` the per-layer
metrics (``layers.py``).  A failed check exits non-zero without a result
line.  The run keeps every thread on one CPU, keeps that CPU from halting
(``host.cpu_kept_awake``) and gauges its speed (``host.SpeedGauge``), so
that CPU-bound metrics can be given at a reference speed.
``python3 perfbench/selftest.py`` tests the benchmark's own arithmetic.
"""

import os

# Pin every BLAS/OpenMP pool before NumPy is imported anywhere.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import endtoend  # noqa: E402
from host import SpeedGauge, cpu_kept_awake, fingerprint  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=endtoend.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Run every thread on one CPU (threads inherit the mask of the thread
    # that starts them).  On a 2-vCPU virtual machine each handoff of the
    # interpreter lock between threads on different CPUs waits for a
    # cross-CPU wake-up: unpinned, serve throughput was half as high and
    # swung with the host's load.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("host: " + json.dumps(fingerprint(THREAD_VARS)))
    try:
        with cpu_kept_awake(), SpeedGauge() as gauge:
            if args.trace:
                import layers

                layers.run_traced(args.workload, args.seed, args.seconds, gauge)
            else:
                endtoend.run_untraced(args.workload, args.seed, args.seconds, gauge)
    except endtoend.CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
