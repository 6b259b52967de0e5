"""Neuron topologies and the shrinking neighbourhood schedule.

The FPGA design arranges its 40 neurons in a one-dimensional chain and
updates the winner together with up to four neighbours on either side
(Table III: "Maximum neighbourhood 4 neurons").  Section V-D describes the
schedule: with 100 total training iterations, the neighbourhood radius is 4
for the first quarter, 3 for the second, 2 for the third and 1 for the last.

This module generalises both ideas:

* a :class:`Topology` maps a winning neuron index and a radius to the set of
  neuron indices to update (linear chain, ring, or 2-D grid), and
* a :class:`NeighbourhoodSchedule` maps ``(iteration, total_iterations)`` to
  the radius for that iteration (the paper's stepwise rule, or a constant
  radius for ablations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError


# --------------------------------------------------------------------------- #
# Topologies
# --------------------------------------------------------------------------- #
class Topology(ABC):
    """Maps neuron indices to neighbourhoods at a given radius."""

    def __init__(self, n_neurons: int):
        if n_neurons <= 0:
            raise ConfigurationError(f"n_neurons must be positive, got {n_neurons}")
        self.n_neurons = int(n_neurons)

    @abstractmethod
    def grid_distance(self, a: int, b: int) -> int:
        """Topological distance between neurons ``a`` and ``b``."""

    @abstractmethod
    def distance_matrix(self) -> np.ndarray:
        """Full ``(n, n)`` ``int64`` matrix of :meth:`grid_distance` values,
        computed in one broadcast."""

    def neighbourhood(self, winner: int, radius: int) -> np.ndarray:
        """Indices of all neurons within ``radius`` of ``winner`` (inclusive).

        The winner itself is always included (radius 0 returns only the
        winner).  Results are sorted ascending for determinism.
        """
        self._check_index(winner)
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        return np.flatnonzero(self.distance_matrix()[winner] <= radius).astype(np.int64)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_neurons:
            raise ConfigurationError(
                f"neuron index {index} out of range for a map with "
                f"{self.n_neurons} neurons"
            )


class LinearTopology(Topology):
    """A one-dimensional chain of neurons (the FPGA arrangement)."""

    def grid_distance(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return abs(int(a) - int(b))

    def distance_matrix(self) -> np.ndarray:
        return _index_offsets(self.n_neurons)


class RingTopology(Topology):
    """A one-dimensional ring: neuron 0 and neuron ``n - 1`` are adjacent."""

    def grid_distance(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        forward = abs(int(a) - int(b))
        return min(forward, self.n_neurons - forward)

    def distance_matrix(self) -> np.ndarray:
        forward = _index_offsets(self.n_neurons)
        return np.minimum(forward, self.n_neurons - forward)


class Grid2DTopology(Topology):
    """A rectangular grid with Chebyshev (square) neighbourhoods.

    Provided for experiments beyond the paper's 1-D chain; the classic
    Kohonen map is usually drawn as a 2-D lattice.
    """

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"rows and cols must be positive, got rows={rows}, cols={cols}"
            )
        super().__init__(rows * cols)
        self.rows = int(rows)
        self.cols = int(cols)

    def coordinates(self, index: int) -> tuple[int, int]:
        """Return the (row, col) of neuron ``index`` in row-major order."""
        self._check_index(index)
        return divmod(int(index), self.cols)

    def grid_distance(self, a: int, b: int) -> int:
        ra, ca = self.coordinates(a)
        rb, cb = self.coordinates(b)
        return max(abs(ra - rb), abs(ca - cb))

    def distance_matrix(self) -> np.ndarray:
        rows, cols = np.divmod(np.arange(self.n_neurons, dtype=np.int64), self.cols)
        return np.maximum(
            np.abs(rows[:, np.newaxis] - rows), np.abs(cols[:, np.newaxis] - cols)
        )


def _index_offsets(n: int) -> np.ndarray:
    """``|a - b|`` for every pair of indices below ``n``."""
    index = np.arange(n, dtype=np.int64)
    return np.abs(index[:, np.newaxis] - index)


# --------------------------------------------------------------------------- #
# Neighbourhood schedules
# --------------------------------------------------------------------------- #
class NeighbourhoodSchedule(ABC):
    """Maps training progress to a neighbourhood radius."""

    @abstractmethod
    def radius(self, iteration: int, total_iterations: int) -> int:
        """Radius to use during ``iteration`` (0-based) of ``total_iterations``."""

    def _validate(self, iteration: int, total_iterations: int) -> None:
        if total_iterations <= 0:
            raise ConfigurationError(
                f"total_iterations must be positive, got {total_iterations}"
            )
        if not 0 <= iteration < total_iterations:
            raise ConfigurationError(
                f"iteration {iteration} out of range for {total_iterations} iterations"
            )


class StepwiseNeighbourhoodSchedule(NeighbourhoodSchedule):
    """The paper's schedule: radius steps down in equal segments.

    With ``max_radius = 4`` and 100 iterations the radius is 4 for
    iterations 0-24, 3 for 25-49, 2 for 50-74 and 1 for 75-99, exactly as
    section V-D describes.  For an arbitrary ``total_iterations`` the run is
    split into ``max_radius`` equal segments (the final segment absorbs any
    remainder) and the radius decreases by one per segment, never dropping
    below ``min_radius``.
    """

    def __init__(self, max_radius: int = 4, min_radius: int = 1):
        if max_radius < 0:
            raise ConfigurationError(f"max_radius must be non-negative, got {max_radius}")
        if min_radius < 0:
            raise ConfigurationError(f"min_radius must be non-negative, got {min_radius}")
        if min_radius > max_radius:
            raise ConfigurationError(
                f"min_radius ({min_radius}) must not exceed max_radius ({max_radius})"
            )
        self.max_radius = int(max_radius)
        self.min_radius = int(min_radius)

    def radius(self, iteration: int, total_iterations: int) -> int:
        self._validate(iteration, total_iterations)
        steps = self.max_radius - self.min_radius + 1
        segment_length = max(total_iterations // steps, 1)
        segment = min(iteration // segment_length, steps - 1)
        return self.max_radius - segment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StepwiseNeighbourhoodSchedule(max_radius={self.max_radius}, "
            f"min_radius={self.min_radius})"
        )


class ConstantNeighbourhoodSchedule(NeighbourhoodSchedule):
    """A fixed radius throughout training (ablation alternative)."""

    def __init__(self, radius: int = 1):
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        self._radius = int(radius)

    def radius(self, iteration: int, total_iterations: int) -> int:
        self._validate(iteration, total_iterations)
        return self._radius

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantNeighbourhoodSchedule(radius={self._radius})"
