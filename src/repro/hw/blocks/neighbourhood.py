"""Neighbourhood selection and neuron update block (section V-D).

"This block is used to select the neighbourhood of the winning neuron and to
update the neurons in the specified region.  The size of the neighbourhood
reduces as training progresses.  In the hardware implementation the maximum
size of the neighbourhood is set to 4."

The block applies the same tri-state rules as the software bSOM
(:mod:`repro.core.bsom`) to the weight bit-planes held in BlockRAM: the full
rule for the winner and -- by default -- the stochastically attenuated rule
for neighbours, driven by a pseudo-random bit stream drawn row by row.  It
builds each row's bit selection and hands the planes it read to the one
rule both implementations share, :func:`repro.core.tristate.tristate_update`,
which updates them in place (the bits it flips, as the map's training
step does) before they are written back.  The
update walks the weight vectors bit-serially, so it charges one cycle per
bit regardless of the neighbourhood size (all selected neurons are updated
in parallel, like the Hamming unit).
"""

from __future__ import annotations

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core.topology import (
    LinearTopology,
    NeighbourhoodSchedule,
    StepwiseNeighbourhoodSchedule,
    Topology,
)
from repro.core.bsom import BsomUpdateRule
from repro.core.tristate import tristate_update
from repro.errors import ConfigurationError, HardwareModelError
from repro.hw.bram import BlockRam
from repro.hw.clock import ClockDomain


class NeighbourhoodUpdateBlock:
    """Updates the winner and its neighbourhood in the weight BlockRAMs.

    Parameters
    ----------
    n_neurons, n_bits:
        Design dimensions.
    topology:
        Neuron arrangement (the FPGA uses a linear chain).
    schedule:
        Neighbourhood radius schedule (stepwise 4..1 in the paper).
    update_rule:
        Tri-state update rules, shared with the software implementation.
    seed:
        Seed for the pseudo-random bit stream used by the stochastic
        neighbour rule.
    """

    def __init__(
        self,
        n_neurons: int,
        n_bits: int,
        *,
        topology: Topology | None = None,
        schedule: NeighbourhoodSchedule | None = None,
        update_rule: BsomUpdateRule | None = None,
        seed: SeedLike = None,
    ):
        if n_neurons <= 0 or n_bits <= 0:
            raise ConfigurationError("n_neurons and n_bits must be positive")
        self.n_neurons = int(n_neurons)
        self.n_bits = int(n_bits)
        self.topology = topology or LinearTopology(n_neurons)
        self.schedule = schedule or StepwiseNeighbourhoodSchedule(max_radius=4)
        self.update_rule = update_rule or BsomUpdateRule()
        self._rng = as_generator(seed)

    @property
    def cycles_required(self) -> int:
        """One cycle per weight bit (all selected neurons update in parallel)."""
        return self.n_bits

    def update(
        self,
        winner: int,
        pattern: np.ndarray,
        value_plane: BlockRam,
        care_plane: BlockRam,
        iteration: int,
        total_iterations: int,
        clock: ClockDomain | None = None,
    ) -> np.ndarray:
        """Update the winner and its neighbourhood; returns the updated indices."""
        if not 0 <= winner < self.n_neurons:
            raise HardwareModelError(
                f"winner index {winner} out of range for {self.n_neurons} neurons"
            )
        pattern = np.asarray(pattern, dtype=np.uint8)
        if pattern.shape != (self.n_bits,):
            raise HardwareModelError(
                f"pattern of length {pattern.size} does not match {self.n_bits}-bit design"
            )
        radius = self.schedule.radius(iteration, total_iterations)
        members = self.topology.neighbourhood(winner, radius)

        values = np.vstack([value_plane.read(int(j)) for j in members])
        cares = np.vstack([care_plane.read(int(j)) for j in members])

        rule = self.update_rule
        select = np.ones(values.shape, dtype=np.uint8)
        if rule.neighbour_rule == "commit":
            # Commit rule: only '#' bits update for neighbours.
            is_winner = members == winner
            select[~is_winner] = cares[~is_winner] == 0
        elif rule.neighbour_rule == "stochastic":
            for row, neuron in enumerate(members):
                if neuron == winner:
                    continue
                distance = self.topology.grid_distance(winner, int(neuron))
                probability = rule.neighbour_strength ** distance
                select[row] = self._rng.random(self.n_bits) < probability
        if rule.winner_rule == "commit":
            winner_row = int(np.flatnonzero(members == winner)[0])
            select[winner_row] = cares[winner_row] == 0

        tristate_update(cares, values, pattern, select, out=(cares, values))
        for row, neuron in enumerate(members):
            value_plane.write(int(neuron), values[row])
            care_plane.write(int(neuron), cares[row])
        if clock is not None:
            clock.tick(self.cycles_required)
        return members
