"""The integrated FPGA bSOM design (figure 4 of the paper).

:class:`FpgaBsomDesign` wires the five hardware blocks together around the
weight BlockRAMs and a 40 MHz clock domain, reproducing the architecture of
figure 4:

* at start-up the weight-initialisation block loads random binary weights
  (768 cycles),
* for every signature the pattern-input block captures the 768-bit image
  (768 cycles), the Hamming unit evaluates all 40 neurons in parallel (768
  cycles, overlapping the next pattern's input in the real pipeline), the
  WTA comparator tree picks the winner (7 cycles), and -- during training --
  the neighbourhood block updates the winner and its neighbours (768
  cycles),
* the VGA display block runs in parallel and never charges cycles to the
  recognition path.

The design exposes the same query surface as the software
:class:`~repro.core.bsom.BinarySom` (``distances``, ``winner``,
``winners``, ``n_neurons``, ``n_bits``), so the node labeller, the
classifier and the evaluation harness can run on the hardware model
unchanged, and the equivalence tests can check the two implementations
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core.bsom import BinarySom, BsomUpdateRule
from repro.core.topology import (
    LinearTopology,
    NeighbourhoodSchedule,
    StepwiseNeighbourhoodSchedule,
    Topology,
)
from repro.core.tristate import TriStateWeights
from repro.errors import ConfigurationError, HardwareModelError
from repro.hw.blocks.display import VgaDisplayBlock
from repro.hw.blocks.hamming_unit import HammingDistanceUnit
from repro.hw.blocks.neighbourhood import NeighbourhoodUpdateBlock
from repro.hw.blocks.pattern_input import PatternInputBlock
from repro.hw.blocks.weight_init import WeightInitialisationBlock
from repro.hw.blocks.wta import WinnerTakeAllUnit
from repro.hw.bram import BlockRamBank
from repro.hw.clock import PAPER_CLOCK_MHZ, ClockDomain


def _binary_input(x: np.ndarray) -> np.ndarray:
    """``x`` as ``uint8`` bits, raising before the cast could wrap or
    truncate a value that is not 0 or 1 (as the pattern-input block does)."""
    x = np.asarray(x)
    if x.size and not np.isin(x, (0, 1)).all():
        raise HardwareModelError("input pattern must be binary")
    return x.astype(np.uint8)


@dataclass
class FpgaBsomConfig:
    """Configuration of the FPGA bSOM design (Table III defaults).

    Attributes
    ----------
    n_neurons:
        Network size (40).
    n_bits:
        Input and weight vector length (768).
    image_shape:
        Shape of the binary image the camera interface streams (24x32).
    max_neighbourhood:
        Maximum neighbourhood radius (4).
    clock_mhz:
        Design clock (40 MHz).
    bit_serial:
        Simulate the Hamming unit bit by bit (slow, exact) instead of
        vectorised with identical cycle accounting.
    seed:
        Seed for the LFSR weight initialisation and the neighbourhood
        block's pseudo-random stream.
    """

    n_neurons: int = 40
    n_bits: int = 768
    image_shape: tuple[int, int] = (24, 32)
    max_neighbourhood: int = 4
    clock_mhz: float = PAPER_CLOCK_MHZ
    bit_serial: bool = False
    seed: Optional[int] = None
    update_rule: BsomUpdateRule = field(default_factory=BsomUpdateRule)

    def __post_init__(self) -> None:
        if self.n_neurons <= 0 or self.n_bits <= 0:
            raise ConfigurationError("n_neurons and n_bits must be positive")
        rows, cols = self.image_shape
        if rows * cols != self.n_bits:
            raise ConfigurationError(
                f"image shape {self.image_shape} holds {rows * cols} bits, expected "
                f"{self.n_bits}"
            )
        if self.max_neighbourhood < 0:
            raise ConfigurationError(
                f"max_neighbourhood must be non-negative, got {self.max_neighbourhood}"
            )


@dataclass(frozen=True)
class RecognitionTrace:
    """Cycle-level account of one recognition (or training) pass.

    Attributes
    ----------
    winner:
        Index of the winning neuron.
    distance:
        Its Hamming distance to the input.
    distances:
        All neuron distances.
    input_cycles, hamming_cycles, wta_cycles, update_cycles:
        Cycles charged by each block (``update_cycles`` is zero for pure
        recognition).
    total_cycles:
        Sum of the above.
    elapsed_seconds:
        Wall-clock duration of this pass at the design clock.
    """

    winner: int
    distance: int
    distances: np.ndarray
    input_cycles: int
    hamming_cycles: int
    wta_cycles: int
    update_cycles: int
    total_cycles: int
    elapsed_seconds: float


class FpgaBsomDesign:
    """Cycle-accurate model of the paper's FPGA bSOM (figure 4)."""

    def __init__(
        self,
        config: FpgaBsomConfig | None = None,
        *,
        topology: Topology | None = None,
        schedule: NeighbourhoodSchedule | None = None,
        seed: SeedLike = None,
    ):
        self.config = config or FpgaBsomConfig()
        if seed is not None and self.config.seed is None:
            self.config.seed = int(as_generator(seed).integers(0, 2**31 - 1))
        rng = as_generator(self.config.seed)
        n, bits = self.config.n_neurons, self.config.n_bits

        self.clock = ClockDomain(self.config.clock_mhz)
        self.topology = topology or LinearTopology(n)
        self.schedule = schedule or StepwiseNeighbourhoodSchedule(
            max_radius=self.config.max_neighbourhood
        )

        self.brams = BlockRamBank()
        self._value_plane = self.brams.allocate("weights_value", n, bits)
        self._care_plane = self.brams.allocate("weights_care", n, bits)

        self.weight_init = WeightInitialisationBlock(
            n, bits, seed=int(rng.integers(0, 2**31 - 1))
        )
        self.pattern_input = PatternInputBlock(bits, self.config.image_shape)
        self.hamming_unit = HammingDistanceUnit(
            n, bits, bit_serial=self.config.bit_serial
        )
        self.wta = WinnerTakeAllUnit(n)
        self.neighbourhood = NeighbourhoodUpdateBlock(
            n,
            bits,
            topology=self.topology,
            schedule=self.schedule,
            update_rule=self.config.update_rule,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        self.display = VgaDisplayBlock(n, tile_shape=self.config.image_shape)

        self._initialised = False
        self.patterns_processed = 0
        self.patterns_trained = 0

    # ------------------------------------------------------------------ #
    # Introspection shared with the software map
    # ------------------------------------------------------------------ #
    @property
    def n_neurons(self) -> int:
        return self.config.n_neurons

    @property
    def n_bits(self) -> int:
        return self.config.n_bits

    def specification(self) -> dict[str, object]:
        """The design specification of Table III."""
        return {
            "network_size": f"{self.config.n_neurons} neurons",
            "input_vectors": f"{self.config.n_bits} bits",
            "neuron_vectors": f"{self.config.n_bits} bits",
            "initial_weights": "Random",
            "maximum_neighbourhood": f"{self.config.max_neighbourhood} neurons",
            "clock_mhz": self.config.clock_mhz,
        }

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    def initialise(self) -> int:
        """Run the weight-initialisation block; returns the cycles consumed."""
        cycles = self.weight_init.run(self._value_plane, self._care_plane, self.clock)
        self._initialised = True
        return cycles

    @property
    def initialised(self) -> bool:
        """Whether the weight memories hold valid data."""
        return self._initialised

    def export_weights(self) -> TriStateWeights:
        """Read the weight BlockRAMs back as tri-state weights."""
        self._require_initialised()
        return TriStateWeights.from_bitplanes(
            self._value_plane.dump(), self._care_plane.dump()
        )

    def load_weights(self, weights: TriStateWeights | BinarySom) -> None:
        """Load weights from software (a trained map, or raw tri-state weights).

        This is the paper's deployment flow: the map is trained off-line on
        a PC and the resulting weights are written into the FPGA BlockRAM
        for real-time recognition.
        """
        if isinstance(weights, BinarySom):
            weights = weights.weights
        if weights.n_neurons != self.n_neurons or weights.n_bits != self.n_bits:
            raise ConfigurationError(
                f"weights of shape {weights.values.shape} do not fit a "
                f"{self.n_neurons}x{self.n_bits} design"
            )
        value, care = weights.to_bitplanes()
        for neuron in range(self.n_neurons):
            self._value_plane.write(neuron, value[neuron])
            self._care_plane.write(neuron, care[neuron])
        self._initialised = True

    def to_software(self) -> BinarySom:
        """Build a software :class:`BinarySom` holding the current weights."""
        som = BinarySom(
            self.n_neurons,
            self.n_bits,
            topology=self.topology,
            schedule=self.schedule,
            update_rule=self.config.update_rule,
            seed=self.config.seed,
        )
        som.set_weights(self.export_weights())
        return som

    def _require_initialised(self) -> None:
        if not self._initialised:
            raise HardwareModelError(
                "the weight memories have not been initialised; call initialise() "
                "or load_weights() first"
            )

    # ------------------------------------------------------------------ #
    # Recognition and training
    # ------------------------------------------------------------------ #
    def _recognise(self, pattern: np.ndarray) -> tuple[int, int, np.ndarray, int, int, int]:
        captured = self.pattern_input.acquire(pattern, self.clock)
        input_cycles = self.pattern_input.cycles_required
        distances = self.hamming_unit.compute(
            captured, self._value_plane.dump(), self._care_plane.dump(), self.clock
        )
        hamming_cycles = self.hamming_unit.cycles_required
        winner, distance = self.wta.select(distances, self.clock)
        wta_cycles = self.wta.cycles_required
        return winner, distance, distances, input_cycles, hamming_cycles, wta_cycles

    def present(self, pattern: np.ndarray) -> RecognitionTrace:
        """Run one recognition pass (no weight update) and account its cycles."""
        self._require_initialised()
        start_cycles = self.clock.cycles
        winner, distance, distances, ic, hc, wc = self._recognise(pattern)
        total = self.clock.cycles - start_cycles
        self.patterns_processed += 1
        return RecognitionTrace(
            winner=winner,
            distance=distance,
            distances=distances,
            input_cycles=ic,
            hamming_cycles=hc,
            wta_cycles=wc,
            update_cycles=0,
            total_cycles=total,
            elapsed_seconds=self.clock.elapsed_seconds(total),
        )

    def train_pattern(
        self, pattern: np.ndarray, iteration: int, total_iterations: int
    ) -> RecognitionTrace:
        """Run one training pass: recognition followed by a neighbourhood update."""
        self._require_initialised()
        start_cycles = self.clock.cycles
        winner, distance, distances, ic, hc, wc = self._recognise(pattern)
        self.neighbourhood.update(
            winner,
            self.pattern_input.register,
            self._value_plane,
            self._care_plane,
            iteration,
            total_iterations,
            self.clock,
        )
        update_cycles = self.neighbourhood.cycles_required
        total = self.clock.cycles - start_cycles
        self.patterns_processed += 1
        self.patterns_trained += 1
        return RecognitionTrace(
            winner=winner,
            distance=distance,
            distances=distances,
            input_cycles=ic,
            hamming_cycles=hc,
            wta_cycles=wc,
            update_cycles=update_cycles,
            total_cycles=total,
            elapsed_seconds=self.clock.elapsed_seconds(total),
        )

    def train(
        self,
        X: np.ndarray,
        epochs: int,
        *,
        shuffle: bool = True,
        seed: SeedLike = None,
    ) -> int:
        """Train on a whole signature matrix for ``epochs`` passes.

        Returns the total number of cycles consumed by training.
        """
        X = _binary_input(X)
        if X.ndim != 2 or X.shape[1] != self.n_bits:
            raise ConfigurationError(
                f"training data of shape {X.shape} does not match a {self.n_bits}-bit design"
            )
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        self._require_initialised()
        rng = as_generator(seed)
        start_cycles = self.clock.cycles
        for epoch in range(epochs):
            order = rng.permutation(X.shape[0]) if shuffle else np.arange(X.shape[0])
            for index in order:
                self.train_pattern(X[index], epoch, epochs)
        return self.clock.cycles - start_cycles

    # ------------------------------------------------------------------ #
    # Software-compatible query interface
    # ------------------------------------------------------------------ #
    def distances(self, x: np.ndarray) -> np.ndarray:
        """Masked Hamming distances of every neuron to ``x`` (no cycle charge)."""
        self._require_initialised()
        return self.hamming_unit.compute(
            _binary_input(x), self._value_plane.dump(), self._care_plane.dump()
        )

    def winner(self, x: np.ndarray) -> int:
        """Winning neuron index for ``x`` using the comparator tree."""
        winner, _ = self.wta.select(self.distances(x))
        return winner

    def winners(self, X: np.ndarray) -> np.ndarray:
        """Winning neuron for every row of ``X`` (used by the node labeller)."""
        X = _binary_input(X)
        return np.array([self.winner(row) for row in X], dtype=np.int64)

    def render_display(self) -> np.ndarray:
        """Render the current weights through the VGA display block."""
        self._require_initialised()
        return self.display.render(self._value_plane.dump(), self._care_plane.dump())
