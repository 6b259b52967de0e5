"""The conventional Kohonen SOM (cSOM) baseline of Table I.

The paper benchmarks the bSOM against "the conventional SOM (cSOM)
originally proposed by Kohonen".  This module implements that baseline: a
map of real-valued prototype vectors trained with the classic update

    w_j(t + 1) = w_j(t) + alpha(t) * h_j(t) * (x - w_j(t))

where ``alpha`` is a decaying learning rate and ``h_j`` is a neighbourhood
factor that shrinks over training.  The cSOM consumes exactly the same
768-bit binary signatures as the bSOM (treating the bits as real values in
{0.0, 1.0}) so the two maps are compared on identical data, as in the
paper's experiment.

The characteristic behaviour Table I demonstrates -- the cSOM keeps
improving as the number of training iterations grows, while the bSOM
plateaus almost immediately -- comes from this learning-rate annealing: with
only a handful of epochs the real-valued prototypes barely move from their
random initialisation, whereas the bSOM's tri-state rules snap to the data
within the first pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.core.som import SelfOrganisingMap, validate_binary_matrix
from repro.core.topology import (
    LinearTopology,
    NeighbourhoodSchedule,
    StepwiseNeighbourhoodSchedule,
    Topology,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LearningRateSchedule:
    """Linearly decaying learning rate ``alpha(t)``.

    ``alpha`` decays from :attr:`initial` to :attr:`final` over the total
    number of training iterations (epochs), which is Kohonen's standard
    recipe and gives the cSOM its strong dependence on the iteration budget.
    """

    initial: float = 0.5
    final: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.initial <= 1.0:
            raise ConfigurationError(
                f"initial learning rate must lie in (0, 1], got {self.initial}"
            )
        if not 0.0 <= self.final <= self.initial:
            raise ConfigurationError(
                f"final learning rate must lie in [0, initial], got {self.final}"
            )

    def rate(self, iteration: int, total_iterations: int) -> float:
        """Learning rate during ``iteration`` (0-based) of ``total_iterations``."""
        if total_iterations <= 0:
            raise ConfigurationError(
                f"total_iterations must be positive, got {total_iterations}"
            )
        if not 0 <= iteration < total_iterations:
            raise ConfigurationError(
                f"iteration {iteration} out of range for {total_iterations} iterations"
            )
        if total_iterations == 1:
            return self.initial
        progress = iteration / (total_iterations - 1)
        return self.initial + (self.final - self.initial) * progress


class KohonenSom(SelfOrganisingMap):
    """Conventional real-valued Kohonen SOM trained on binary signatures.

    Parameters
    ----------
    n_neurons, n_bits:
        Map size and input dimensionality (40 and 768 in the paper).
    topology:
        Neuron arrangement; defaults to the same linear chain as the bSOM so
        the comparison is like-for-like.
    schedule:
        Neighbourhood radius schedule (paper stepwise schedule by default).
    learning_rate:
        Learning-rate annealing schedule.
    neighbour_decay:
        Multiplicative attenuation applied per unit of topological distance
        from the winner (a rectangular-window approximation of the Gaussian
        neighbourhood kernel that keeps the arithmetic comparable with the
        hardware-friendly bSOM).
    seed:
        Seed or generator for the uniform random weight initialisation.
    """

    def __init__(
        self,
        n_neurons: int,
        n_bits: int,
        *,
        topology: Topology | None = None,
        schedule: NeighbourhoodSchedule | None = None,
        learning_rate: LearningRateSchedule | None = None,
        neighbour_decay: float = 0.5,
        seed: SeedLike = None,
    ):
        super().__init__(n_neurons, n_bits)
        self.topology = topology or LinearTopology(n_neurons)
        if self.topology.n_neurons != n_neurons:
            raise ConfigurationError(
                f"topology covers {self.topology.n_neurons} neurons but the map has "
                f"{n_neurons}"
            )
        self.schedule = schedule or StepwiseNeighbourhoodSchedule(max_radius=4)
        self.learning_rate = learning_rate or LearningRateSchedule()
        if not 0.0 < neighbour_decay <= 1.0:
            raise ConfigurationError(
                f"neighbour_decay must lie in (0, 1], got {neighbour_decay}"
            )
        self.neighbour_decay = float(neighbour_decay)
        rng = as_generator(seed)
        self._weights = rng.random(size=(n_neurons, n_bits))
        self._grid_distances = self.topology.distance_matrix()

    # ------------------------------------------------------------------ #
    # Weights
    # ------------------------------------------------------------------ #
    @property
    def weights(self) -> np.ndarray:
        """Copy of the real-valued weight matrix."""
        return self._weights.copy()

    def set_weights(self, weights: np.ndarray) -> None:
        """Replace the weight matrix (used for serialisation)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n_neurons, self.n_bits):
            raise ConfigurationError(
                f"weights of shape {weights.shape} do not match a map with "
                f"{self.n_neurons} neurons of {self.n_bits} bits"
            )
        self._weights = weights.copy()
        self._bump_weights_version()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def distances(self, x: np.ndarray) -> np.ndarray:
        x = self._validate_input(x).astype(np.float64)
        diff = self._weights - x[np.newaxis, :]
        return np.einsum("ij,ij->i", diff, diff)

    def distance_matrix(self, X: np.ndarray, *, validate: bool = True) -> np.ndarray:
        X = validate_binary_matrix(X, self.n_bits, validate=validate).astype(np.float64)
        # Squared Euclidean distance via the expansion |w|^2 - 2 x.w + |x|^2.
        w_norms = np.einsum("ij,ij->i", self._weights, self._weights)
        x_norms = np.einsum("ij,ij->i", X, X)
        cross = X @ self._weights.T
        distances = x_norms[:, np.newaxis] - 2.0 * cross + w_norms[np.newaxis, :]
        return np.maximum(distances, 0.0)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _current_radius(self, iteration: int, total_iterations: int) -> int:
        return self.schedule.radius(iteration, total_iterations)

    def _train_pass(
        self, X: np.ndarray, order: np.ndarray, iteration: int, total_iterations: int
    ) -> np.ndarray:
        return np.array(
            [self._train_one(X[i], iteration, total_iterations) for i in order],
            dtype=np.int64,
        )

    def _train_one(self, x: np.ndarray, iteration: int, total_iterations: int) -> int:
        """Present one pattern and apply the Kohonen update."""
        x_real = x.astype(np.float64)
        diff_all = self._weights - x_real[np.newaxis, :]
        distances = np.einsum("ij,ij->i", diff_all, diff_all)
        winner = int(np.argmin(distances))
        radius = self.schedule.radius(iteration, total_iterations)
        alpha = self.learning_rate.rate(iteration, total_iterations)

        grid_distance = self._grid_distances[winner]
        in_window = grid_distance <= radius
        factors = alpha * np.power(self.neighbour_decay, grid_distance[in_window])
        rows = np.flatnonzero(in_window)
        self._weights[rows] += factors[:, np.newaxis] * (
            x_real[np.newaxis, :] - self._weights[rows]
        )
        self._bump_weights_version()
        return winner

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def neuron_usage(self, X: np.ndarray) -> np.ndarray:
        """How many samples of ``X`` each neuron wins."""
        winners = self.winners(X)
        return np.bincount(winners, minlength=self.n_neurons).astype(np.int64)
