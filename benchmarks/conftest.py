"""Shared fixtures for the benchmark suite.

The benchmarks reproduce every table and figure of the paper on a reduced
protocol (smaller dataset scale and fewer repetitions than the paper's ten)
so that ``pytest benchmarks/ --benchmark-only`` completes in minutes.  The
full-scale protocol is available through ``examples/paper_tables.py`` /
``scripts/generate_experiment_results.py`` and its results are recorded in
EXPERIMENTS.md.

The shared dataset fixture and the serving-layer throughput benchmark draw
their seeds from the explicit constants below, so those numbers are
reproducible run to run.  (Benchmarks that predate the constants still
carry their own literal seeds inline -- explicit either way, just not yet
centralised here.)
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make this directory importable under pytest's importlib import mode (the
# repo-configured mode; prepend did it implicitly), then pull in the shared
# constants.  Importing bench_constants also pins the BLAS/OpenMP thread
# pools to 1 -- it must happen here, before numpy spins them up, or the
# cSOM's float sums depend on the host's core count.  tests/ goes on the path
# too: the seed oracles the benchmarks compare against live in
# tests/oracles/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_constants import (  # noqa: E402,F401  (re-exported for fixtures)
    BENCH_DATASET_SCALE,
    BENCH_DATASET_SEED,
    BENCH_NEURONS,
    BENCH_REPETITIONS,
    BENCH_SOM_SEED,
    BENCH_STREAM_SEED,
    BENCH_TRAIN_SEED,
)

import pytest

from repro.datasets import make_surveillance_dataset


@pytest.fixture(scope="session")
def bench_dataset():
    """Reduced-scale surveillance dataset shared by all accuracy benchmarks."""
    return make_surveillance_dataset(scale=BENCH_DATASET_SCALE, seed=BENCH_DATASET_SEED)
