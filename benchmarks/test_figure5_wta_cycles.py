"""Figures 4 and 5: the parallel Hamming unit and the WTA comparator tree.

Section V-C fixes the cycle budget of the recognition datapath: the Hamming
distances of all 40 neurons are computed in parallel in exactly 768 cycles
(one per input bit), and the comparator tree finds the minimum of the forty
10-bit distances in exactly 7 cycles.  The benchmark runs the cycle-accurate
blocks and checks those numbers, plus the structural properties of figure 5
(comparator count halving per stage).
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.distance import NaiveBackend
from repro.hw import FpgaBsomConfig, FpgaBsomDesign
from repro.hw.blocks import HammingDistanceUnit, WinnerTakeAllUnit


@pytest.fixture(scope="module")
def reference_design():
    design = FpgaBsomDesign(FpgaBsomConfig(seed=0))
    design.initialise()
    return design


def test_figure5_reproduction(benchmark, reference_design, rng=np.random.default_rng(0)):
    """Time one full recognition pass and verify the per-block cycle budget."""
    pattern = rng.integers(0, 2, 768).astype(np.uint8)
    trace = benchmark(reference_design.present, pattern)
    assert trace.hamming_cycles == 768
    assert trace.wta_cycles == 7
    assert trace.input_cycles == 768


def test_figure5_wta_cycles_for_40_neurons():
    wta = WinnerTakeAllUnit(40)
    assert wta.cycles_required == 7
    assert wta.comparators_per_stage() == [32, 16, 8, 4, 2, 1]


def test_figure5_wta_selects_true_minimum(benchmark):
    rng = np.random.default_rng(3)
    wta = WinnerTakeAllUnit(40)
    distances = rng.integers(0, 768, size=40)

    winner, minimum = benchmark(wta.select, distances)
    assert minimum == distances.min()
    assert winner == int(np.argmin(distances))


def test_figure4_hamming_unit_matches_equation3(benchmark):
    """The 10-bit parallel Hamming unit agrees with the reference equation."""
    rng = np.random.default_rng(4)
    unit = HammingDistanceUnit(40, 768)
    assert unit.counter_width == 10
    assert unit.cycles_required == 768
    value = rng.integers(0, 2, size=(40, 768)).astype(np.uint8)
    care = (rng.random(size=(40, 768)) > 0.2).astype(np.uint8)
    pattern = rng.integers(0, 2, 768).astype(np.uint8)

    distances = benchmark(unit.compute, pattern, value, care)
    weights = np.where(care == 1, value, 2).astype(np.int8)
    oracle = NaiveBackend()
    assert np.array_equal(distances, oracle.batch_one(oracle.prepare(weights), pattern))


def test_figure5_cycle_count_scales_logarithmically():
    assert WinnerTakeAllUnit(10).cycles_required == 5
    assert WinnerTakeAllUnit(20).cycles_required == 6
    assert WinnerTakeAllUnit(40).cycles_required == 7
    assert WinnerTakeAllUnit(80).cycles_required == 8
