"""Unit tests for the individual hardware blocks (figure 4)."""

import numpy as np
import pytest

from repro.core.bsom import BsomUpdateRule
from repro.core.backends import NaiveBackend
from repro.core.tristate import TriStateWeights, random_tristate
from repro.errors import ConfigurationError, DimensionMismatchError, HardwareModelError
from repro.hw import ClockDomain
from repro.hw.blocks import (
    HammingDistanceUnit,
    NeighbourhoodUpdateBlock,
    PatternInputBlock,
    VgaDisplayBlock,
    WeightInitialisationBlock,
    WinnerTakeAllUnit,
)
from repro.hw.bram import BlockRam


@pytest.fixture()
def planes():
    """Small weight planes (value, care) plus matching BlockRAMs."""
    weights = random_tristate(8, 32, dont_care_probability=0.25, seed=3)
    value, care = weights.to_bitplanes()
    value_ram = BlockRam(8, 32, name="value")
    care_ram = BlockRam(8, 32, name="care")
    for neuron in range(8):
        value_ram.write(neuron, value[neuron])
        care_ram.write(neuron, care[neuron])
    return weights, value, care, value_ram, care_ram


class TestWeightInitialisation:
    def test_cycle_count_is_one_per_bit(self):
        block = WeightInitialisationBlock(40, 768, seed=0)
        assert block.cycles_required == 768

    def test_initialises_all_neurons_with_binary_values(self):
        block = WeightInitialisationBlock(6, 64, seed=1)
        value_ram = BlockRam(6, 64, name="value")
        care_ram = BlockRam(6, 64, name="care")
        clock = ClockDomain()
        cycles = block.run(value_ram, care_ram, clock)
        assert cycles == 64
        assert clock.cycles == 64
        values = value_ram.dump()
        assert set(np.unique(values)).issubset({0, 1})
        assert np.all(care_ram.dump() == 1)
        # Neurons should not all be identical (distinct LFSR seeds).
        assert len({row.tobytes() for row in values}) > 1

    def test_geometry_mismatch(self):
        block = WeightInitialisationBlock(4, 16, seed=0)
        with pytest.raises(ConfigurationError):
            block.run(BlockRam(3, 16), BlockRam(4, 16))

    def test_reproducible_for_seed(self):
        def run(seed):
            block = WeightInitialisationBlock(4, 32, seed=seed)
            value, care = BlockRam(4, 32), BlockRam(4, 32)
            block.run(value, care)
            return value.dump()

        assert np.array_equal(run(9), run(9))
        assert not np.array_equal(run(9), run(10))


class TestPatternInput:
    def test_cycles_and_register(self):
        block = PatternInputBlock(768)
        clock = ClockDomain()
        pattern = np.random.default_rng(0).integers(0, 2, 768).astype(np.uint8)
        captured = block.acquire(pattern, clock)
        assert np.array_equal(captured, pattern)
        assert clock.cycles == 768
        assert block.acquisition_complete
        assert block.acquisitions == 1

    def test_accepts_binary_image(self):
        block = PatternInputBlock(768, image_shape=(24, 32))
        image = np.random.default_rng(1).integers(0, 2, (24, 32)).astype(np.uint8)
        captured = block.acquire(image)
        assert np.array_equal(captured, image.reshape(-1))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PatternInputBlock(768, image_shape=(10, 10))
        block = PatternInputBlock(16, image_shape=(4, 4))
        with pytest.raises(DimensionMismatchError):
            block.acquire(np.zeros(15, dtype=np.uint8))
        with pytest.raises(HardwareModelError):
            block.acquire(np.full(16, 2, dtype=np.uint8))


class TestHammingUnit:
    def test_cycles_are_bit_count(self):
        assert HammingDistanceUnit(40, 768).cycles_required == 768

    def test_counter_width_matches_figure4(self):
        assert HammingDistanceUnit(40, 768).counter_width == 10

    def test_matches_reference_distance(self, planes, rng):
        weights, value, care, _, _ = planes
        unit = HammingDistanceUnit(8, 32)
        x = rng.integers(0, 2, 32).astype(np.uint8)
        distances = unit.compute(x, value, care)
        oracle = NaiveBackend()
        assert np.array_equal(distances, oracle.batch_one(oracle.prepare(weights.values), x))

    def test_bit_serial_matches_vectorised(self, planes, rng):
        _, value, care, _, _ = planes
        x = rng.integers(0, 2, 32).astype(np.uint8)
        serial = HammingDistanceUnit(8, 32, bit_serial=True).compute(x, value, care)
        fast = HammingDistanceUnit(8, 32, bit_serial=False).compute(x, value, care)
        assert np.array_equal(serial, fast)

    def test_clock_charge(self, planes, rng):
        _, value, care, _, _ = planes
        clock = ClockDomain()
        HammingDistanceUnit(8, 32).compute(rng.integers(0, 2, 32), value, care, clock)
        assert clock.cycles == 32

    def test_shape_validation(self, planes):
        _, value, care, _, _ = planes
        unit = HammingDistanceUnit(8, 32)
        with pytest.raises(DimensionMismatchError):
            unit.compute(np.zeros(16, dtype=np.uint8), value, care)
        with pytest.raises(HardwareModelError):
            unit.compute(np.zeros(32, dtype=np.uint8), value[:4], care)


class TestWinnerTakeAll:
    def test_paper_cycle_count_for_40_neurons(self):
        wta = WinnerTakeAllUnit(40)
        assert wta.padded_inputs == 64
        assert wta.tree_depth == 6
        assert wta.cycles_required == 7

    def test_selects_minimum(self, rng):
        wta = WinnerTakeAllUnit(40)
        distances = rng.integers(0, 768, 40)
        winner, minimum = wta.select(distances)
        assert minimum == distances.min()
        assert winner == int(np.argmin(distances))

    def test_tie_breaks_to_lower_index(self):
        wta = WinnerTakeAllUnit(8)
        distances = np.array([5, 3, 3, 9, 3, 7, 8, 6])
        winner, minimum = wta.select(distances)
        assert (winner, minimum) == (1, 3)

    def test_comparator_budget(self):
        wta = WinnerTakeAllUnit(40)
        assert wta.comparators_per_stage() == [32, 16, 8, 4, 2, 1]
        assert wta.total_comparators == 63

    def test_cycle_counts_for_other_sizes(self):
        assert WinnerTakeAllUnit(10).cycles_required == 5
        assert WinnerTakeAllUnit(64).cycles_required == 7
        assert WinnerTakeAllUnit(100).cycles_required == 8
        assert WinnerTakeAllUnit(1).cycles_required == 1

    def test_clock_charge(self, rng):
        clock = ClockDomain()
        WinnerTakeAllUnit(40).select(rng.integers(0, 700, 40), clock)
        assert clock.cycles == 7

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            WinnerTakeAllUnit(8).select(np.zeros(9))


class TestNeighbourhoodUpdate:
    def test_update_matches_software_full_rule(self, planes, rng):
        weights, _, _, value_ram, care_ram = planes
        from repro.core.bsom import BinarySom
        from repro.core.topology import StepwiseNeighbourhoodSchedule

        rule = BsomUpdateRule(neighbour_rule="full")
        block = NeighbourhoodUpdateBlock(8, 32, update_rule=rule, seed=0)
        software = BinarySom(
            8, 32, update_rule=rule, schedule=StepwiseNeighbourhoodSchedule(4), seed=0
        )
        software.set_weights(weights)

        x = rng.integers(0, 2, 32).astype(np.int8)
        winner = software.partial_fit(x, 0, 10)
        block.update(winner, x.astype(np.uint8), value_ram, care_ram, 0, 10)
        hardware_weights = TriStateWeights.from_bitplanes(value_ram.dump(), care_ram.dump())
        assert hardware_weights == software.weights

    def test_cycles_per_update(self):
        assert NeighbourhoodUpdateBlock(40, 768).cycles_required == 768

    def test_only_neighbourhood_rows_change(self, planes, rng):
        _, value, care, value_ram, care_ram = planes
        block = NeighbourhoodUpdateBlock(
            8, 32, update_rule=BsomUpdateRule(neighbour_rule="full"), seed=0
        )
        before_value = value_ram.dump()
        x = rng.integers(0, 2, 32).astype(np.uint8)
        members = block.update(0, x, value_ram, care_ram, 99, 100)  # radius 1 at the end
        assert set(members.tolist()) == {0, 1}
        after_value = value_ram.dump()
        assert np.array_equal(before_value[2:], after_value[2:])

    def test_validation(self, planes, rng):
        _, _, _, value_ram, care_ram = planes
        block = NeighbourhoodUpdateBlock(8, 32)
        with pytest.raises(HardwareModelError):
            block.update(99, np.zeros(32, dtype=np.uint8), value_ram, care_ram, 0, 10)
        with pytest.raises(HardwareModelError):
            block.update(0, np.zeros(16, dtype=np.uint8), value_ram, care_ram, 0, 10)


class TestVgaDisplay:
    def test_render_levels(self, planes):
        weights, value, care, _, _ = planes
        display = VgaDisplayBlock(8, tile_shape=(4, 8))
        frame = display.render(value, care)
        assert set(np.unique(frame)).issubset({0, 128, 255})
        assert display.frames_rendered == 1

    def test_grid_geometry(self):
        display = VgaDisplayBlock(40, tile_shape=(24, 32), resolution=(480, 640))
        assert display.tiles_per_row == 20
        assert display.grid_shape == (2, 20)
        assert display.pixel_clocks_per_frame == 480 * 640
        assert display.seconds_per_frame() == pytest.approx(1 / 60)

    def test_shape_validation(self, planes):
        _, value, care, _, _ = planes
        display = VgaDisplayBlock(8, tile_shape=(4, 4))
        with pytest.raises(HardwareModelError):
            display.render(value, care)

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            VgaDisplayBlock(0)
        with pytest.raises(ConfigurationError):
            VgaDisplayBlock(8, refresh_hz=0)
