"""Table I: mean recognition accuracy of cSOM vs bSOM over training iterations.

Paper numbers (40 neurons, 2,248 train / 1,139 test signatures, 10
repetitions): both algorithms sit in the 81.8%-87.4% band; the bSOM is
essentially at its plateau from 10 iterations while the cSOM starts lower
and keeps improving, overtaking the bSOM at large iteration counts.

The benchmark runs a reduced protocol (see ``benchmarks/conftest.py``) and
checks the *shape*: the bSOM's low-iteration accuracy is close to its own
high-iteration accuracy (it trains quickly), the cSOM improves materially
between the low and high iteration counts, and the cSOM ends at or above
the bSOM.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.eval import run_table1
from repro.eval.experiments import Table1Config

#: Reduced iteration grid spanning the paper's 10..500 range.
BENCH_ITERATIONS = (10, 40, 120)
BENCH_REPETITIONS = 3
BENCH_NEURONS = 40

_PIN_PATH = Path(__file__).resolve().parent.parent / "scripts" / "pin_reproduction.py"
_spec = importlib.util.spec_from_file_location("pin_reproduction", _PIN_PATH)
pin_reproduction = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = pin_reproduction
_spec.loader.exec_module(pin_reproduction)


@pytest.fixture(scope="module")
def table1_result(bench_dataset):
    config = Table1Config(
        iterations=BENCH_ITERATIONS,
        repetitions=BENCH_REPETITIONS,
        n_neurons=BENCH_NEURONS,
    )
    return run_table1(bench_dataset, config)


def test_table1_reproduction(benchmark, bench_dataset):
    """Time one full (reduced) Table I cell: both SOMs at 10 iterations."""
    config = Table1Config(iterations=(10,), repetitions=1, n_neurons=BENCH_NEURONS)
    result = benchmark.pedantic(
        lambda: run_table1(bench_dataset, config), rounds=1, iterations=1
    )
    assert len(result.rows) == 1


def test_table1_shape_bsom_trains_quickly(table1_result):
    """bSOM accuracy at the smallest iteration count is already near its plateau."""
    low = table1_result.row(BENCH_ITERATIONS[0]).bsom_mean
    high = table1_result.row(BENCH_ITERATIONS[-1]).bsom_mean
    assert low > 0.6
    assert low >= high - 0.08


def test_table1_shape_csom_improves_with_iterations(table1_result):
    """cSOM improves materially from the low to the high iteration count."""
    low = table1_result.row(BENCH_ITERATIONS[0]).csom_mean
    high = table1_result.row(BENCH_ITERATIONS[-1]).csom_mean
    assert high > low + 0.03


def test_table1_shape_bsom_wins_early_csom_wins_late(table1_result):
    """The crossover the paper reports: bSOM ahead early, cSOM at least even late."""
    first = table1_result.row(BENCH_ITERATIONS[0])
    last = table1_result.row(BENCH_ITERATIONS[-1])
    assert first.bsom_mean > first.csom_mean
    assert last.csom_mean >= last.bsom_mean - 0.03


def test_table1_bsom_scores_match_golden(table1_result):
    """The reduced Table I's bSOM scores equal ``tests/golden/training.json``."""
    golden = json.loads(pin_reproduction.GOLDEN_PATH.read_text())
    assert pin_reproduction.table1_pins(table1_result) == golden["table1"]


def test_table1_accuracies_in_plausible_band(table1_result):
    """All means stay inside a broad version of the paper's 80-90% band."""
    for row in table1_result.rows:
        assert 0.55 <= row.bsom_mean <= 1.0
        assert 0.45 <= row.csom_mean <= 1.0
