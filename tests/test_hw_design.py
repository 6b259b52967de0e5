"""Tests of the integrated FPGA design, resources, throughput and equivalence."""

import numpy as np
import pytest

from repro.core import BinarySom, NodeLabeller, SomClassifier
from repro.core.bsom import BsomUpdateRule
from repro.errors import ConfigurationError, DeviceCapacityError, HardwareModelError
from repro.hw import (
    FpgaBsomConfig,
    FpgaBsomDesign,
    PAPER_TABLE4,
    ThroughputModel,
    VIRTEX4_XC4VLX160,
    estimate_resources,
)
from repro.hw.device import VIRTEX4_XC4VLX25
from repro.hw.throughput import CAMERA_FPS, PAPER_PATTERNS_PER_SECOND, paper_throughput_report


@pytest.fixture()
def small_design():
    design = FpgaBsomDesign(FpgaBsomConfig(n_neurons=8, n_bits=64, image_shape=(8, 8), seed=1))
    design.initialise()
    return design


class TestDesignLifecycle:
    def test_specification_matches_table3(self):
        design = FpgaBsomDesign(FpgaBsomConfig(seed=0))
        spec = design.specification()
        assert spec["network_size"] == "40 neurons"
        assert spec["input_vectors"] == "768 bits"
        assert spec["neuron_vectors"] == "768 bits"
        assert spec["initial_weights"] == "Random"
        assert spec["maximum_neighbourhood"] == "4 neurons"
        assert spec["clock_mhz"] == 40.0

    def test_initialisation_cycles(self):
        design = FpgaBsomDesign(FpgaBsomConfig(seed=0))
        assert design.initialise() == 768
        assert design.clock.cycles == 768
        assert design.initialised

    def test_queries_require_initialisation(self):
        design = FpgaBsomDesign(FpgaBsomConfig(n_neurons=4, n_bits=16, image_shape=(4, 4)))
        with pytest.raises(HardwareModelError):
            design.present(np.zeros(16, dtype=np.uint8))
        with pytest.raises(HardwareModelError):
            design.export_weights()

    def test_recognition_trace_cycle_breakdown(self, small_design, rng):
        x = rng.integers(0, 2, 64).astype(np.uint8)
        trace = small_design.present(x)
        assert trace.input_cycles == 64
        assert trace.hamming_cycles == 64
        assert trace.wta_cycles == small_design.wta.cycles_required
        assert trace.update_cycles == 0
        assert trace.total_cycles == 64 + 64 + small_design.wta.cycles_required
        assert trace.elapsed_seconds == pytest.approx(trace.total_cycles / 40e6)

    def test_paper_cycle_counts_for_reference_design(self, rng):
        design = FpgaBsomDesign(FpgaBsomConfig(seed=0))
        design.initialise()
        x = rng.integers(0, 2, 768).astype(np.uint8)
        recognition = design.present(x)
        assert recognition.hamming_cycles == 768
        assert recognition.wta_cycles == 7
        training = design.train_pattern(x, 0, 100)
        assert training.update_cycles == 768
        assert training.total_cycles == 768 + 768 + 7 + 768

    def test_train_accumulates_patterns(self, small_design, rng):
        X = rng.integers(0, 2, size=(20, 64)).astype(np.uint8)
        cycles = small_design.train(X, epochs=2, seed=0)
        assert small_design.patterns_trained == 40
        assert cycles == small_design.clock.cycles - 64  # minus initialisation

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FpgaBsomConfig(n_neurons=0)
        with pytest.raises(ConfigurationError):
            FpgaBsomConfig(n_bits=100, image_shape=(8, 8))
        design = FpgaBsomDesign(FpgaBsomConfig(n_neurons=4, n_bits=16, image_shape=(4, 4)))
        with pytest.raises(ConfigurationError):
            design.train(np.zeros((2, 8), dtype=np.uint8), epochs=1)

    def test_render_display(self, small_design):
        frame = small_design.render_display()
        assert frame.ndim == 2
        assert set(np.unique(frame)).issubset({0, 128, 255})

    @pytest.mark.parametrize("bad", [1.5, 0.7, -1, 1.9, 2])
    def test_non_binary_input_is_rejected(self, small_design, bad):
        # The software map raises DataError for these, and present() raises
        # HardwareModelError; the query and training paths must not cast
        # 1.5 to 1 or wrap -1 to 255 and carry on.
        x = np.zeros(64)
        x[3] = bad
        before = small_design.export_weights()
        for query in (small_design.distances, small_design.winner):
            with pytest.raises(HardwareModelError):
                query(x)
        with pytest.raises(HardwareModelError):
            small_design.winners(np.vstack([np.zeros(64), x]))
        with pytest.raises(HardwareModelError):
            small_design.train(x[np.newaxis, :], epochs=1, seed=0)
        assert small_design.export_weights() == before
        assert small_design.patterns_trained == 0


class TestSoftwareEquivalence:
    def test_recognition_matches_software_exactly(self, rng):
        """With identical weights, hardware and software agree on every distance."""
        software = BinarySom(16, 128, seed=5)
        X = rng.integers(0, 2, size=(40, 128)).astype(np.uint8)
        software.fit(X, epochs=3, seed=7)

        design = FpgaBsomDesign(
            FpgaBsomConfig(n_neurons=16, n_bits=128, image_shape=(8, 16), seed=5)
        )
        design.load_weights(software)
        for x in X[:10]:
            assert np.array_equal(design.distances(x), software.distances(x))
            assert design.winner(x) == software.winner(x)

    def test_bit_serial_mode_equivalence(self, rng):
        software = BinarySom(8, 64, seed=2)
        design = FpgaBsomDesign(
            FpgaBsomConfig(n_neurons=8, n_bits=64, image_shape=(8, 8), seed=2, bit_serial=True)
        )
        design.load_weights(software)
        x = rng.integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(design.distances(x), software.distances(x))

    def test_training_matches_software_with_full_rule(self, rng):
        """Deterministic (full) neighbour rule: hardware training == software training."""
        rule = BsomUpdateRule(neighbour_rule="full")
        software = BinarySom(8, 64, seed=3, update_rule=rule)
        design = FpgaBsomDesign(
            FpgaBsomConfig(n_neurons=8, n_bits=64, image_shape=(8, 8), seed=3, update_rule=rule)
        )
        design.load_weights(software)  # same starting weights
        X = rng.integers(0, 2, size=(30, 64)).astype(np.uint8)
        for i, x in enumerate(X):
            software.partial_fit(x, 0, 1)
            design.train_pattern(x, 0, 1)
        assert design.export_weights() == software.weights

    def test_roundtrip_to_software(self, small_design):
        software = small_design.to_software()
        assert software.weights == small_design.export_weights()

    def test_node_labelling_works_on_hardware_model(self, cluster_data):
        X, y = cluster_data
        design = FpgaBsomDesign(
            FpgaBsomConfig(n_neurons=16, n_bits=128, image_shape=(8, 16), seed=1)
        )
        design.initialise()
        design.train(X, epochs=3, seed=2)
        labelling = NodeLabeller().label(design, X, y)
        predictions = labelling.node_labels[design.winners(X)]
        assert (predictions == y).mean() > 0.7

    def test_classifier_on_exported_weights(self, cluster_data):
        """The paper's deployment flow: train on hardware, classify via labels."""
        X, y = cluster_data
        design = FpgaBsomDesign(
            FpgaBsomConfig(n_neurons=16, n_bits=128, image_shape=(8, 16), seed=1)
        )
        design.initialise()
        design.train(X, epochs=3, seed=2)
        classifier = SomClassifier(design.to_software())
        classifier.label_nodes(X, y)
        assert classifier.score(X, y) > 0.7

    def test_load_weights_shape_check(self, small_design):
        with pytest.raises(ConfigurationError):
            small_design.load_weights(BinarySom(4, 64, seed=0))


class TestResources:
    def test_reference_design_close_to_table4(self):
        report = estimate_resources()
        utilisation = report.utilisation()
        for resource, paper_row in PAPER_TABLE4.items():
            estimated = utilisation[resource]["used"]
            expected = paper_row["used"]
            assert estimated == pytest.approx(expected, rel=0.10), resource
            assert utilisation[resource]["total"] == paper_row["total"]

    def test_iob_count_exact(self):
        report = estimate_resources()
        assert report.total.bonded_iobs == PAPER_TABLE4["bonded_iobs"]["used"]

    def test_design_fits_reference_device(self):
        report = estimate_resources()
        assert report.fits()
        report.check_fits()

    def test_resources_scale_with_neurons(self):
        small = estimate_resources(FpgaBsomConfig(n_neurons=10)).total
        large = estimate_resources(FpgaBsomConfig(n_neurons=100)).total
        assert large.luts > small.luts
        assert large.flip_flops > small.flip_flops
        assert large.ram16s >= small.ram16s

    def test_resources_scale_with_bits(self):
        small = estimate_resources(FpgaBsomConfig(n_bits=192, image_shape=(12, 16))).total
        large = estimate_resources(FpgaBsomConfig(n_bits=1536, image_shape=(32, 48))).total
        assert large.flip_flops > small.flip_flops
        assert large.ram16s > small.ram16s

    def test_too_small_device_rejects_design(self):
        report = estimate_resources(device=VIRTEX4_XC4VLX25)
        assert not report.fits()
        with pytest.raises(DeviceCapacityError):
            report.check_fits()

    def test_per_block_breakdown_present(self):
        report = estimate_resources()
        assert {"hamming_unit", "winner_take_all", "weight_storage"} <= set(report.per_block)


class TestThroughput:
    def test_paper_training_throughput(self):
        report = paper_throughput_report()
        # The paper claims up to 25,000 patterns/second at 40 MHz.
        assert report.training_patterns_per_second >= PAPER_PATTERNS_PER_SECOND
        assert report.training_patterns_per_second == pytest.approx(
            PAPER_PATTERNS_PER_SECOND, rel=0.08
        )

    def test_recognition_outpaces_camera(self):
        report = paper_throughput_report()
        assert report.realtime_margin > 100  # far above 30 fps
        assert report.recognitions_per_second > CAMERA_FPS

    def test_training_set_fits_in_under_a_second(self):
        report = paper_throughput_report()
        # "training with several thousand patterns in less than a second"
        assert report.seconds_to_train[2_248] < 1.0
        assert report.seconds_to_train[25_000] <= 1.05

    def test_cycle_breakdown(self):
        model = ThroughputModel()
        assert model.cycles_per_recognition() == 768 + 768 + 7
        assert model.cycles_per_training_pattern() == 768 + 768 + 7 + 768
        assert model.cycles_per_pattern_pipelined() == 768 + 7

    def test_initialisation_time(self):
        report = paper_throughput_report()
        assert report.initialisation_seconds == pytest.approx(768 / 40e6)

    def test_throughput_scales_with_clock(self):
        slow = ThroughputModel(FpgaBsomConfig(clock_mhz=20.0)).report()
        fast = ThroughputModel(FpgaBsomConfig(clock_mhz=40.0)).report()
        assert fast.training_patterns_per_second == pytest.approx(
            2 * slow.training_patterns_per_second
        )

    def test_consistency_with_cycle_accurate_simulation(self, rng):
        """The analytic model and the simulated design agree on per-pattern cycles."""
        design = FpgaBsomDesign(FpgaBsomConfig(seed=0))
        design.initialise()
        x = rng.integers(0, 2, 768).astype(np.uint8)
        trace = design.train_pattern(x, 0, 10)
        assert trace.total_cycles == ThroughputModel().cycles_per_training_pattern()
