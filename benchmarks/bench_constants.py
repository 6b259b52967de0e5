"""Shared constants (and thread pinning) for the benchmark suite.

Lives outside ``conftest.py`` so benchmark modules can import the
constants directly under any pytest import mode -- ``conftest.py`` puts
this directory on ``sys.path`` and re-exports everything for fixtures.

The thread pinning runs at import time, before numpy spins up its BLAS /
OpenMP pools, so the cSOM's float BLAS sums and the suite's run time do
not depend on the core count of the machine that runs it.  ``setdefault``
keeps an explicit operator override (e.g. ``OMP_NUM_THREADS=8`` for a
scaling study) in force.
"""

from __future__ import annotations

import os

for _threads_var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_threads_var, "1")

#: Reduced-protocol constants shared by the accuracy benchmarks.
BENCH_DATASET_SCALE = 0.1
BENCH_REPETITIONS = 3
BENCH_NEURONS = 40

#: Explicit seeds: dataset construction, map weight initialisation, training
#: presentation order, and the serving benchmark's camera frames, respectively.
BENCH_DATASET_SEED = 2010
BENCH_SOM_SEED = 0
BENCH_TRAIN_SEED = 1
BENCH_STREAM_SEED = 7
