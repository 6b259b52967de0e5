"""Unit tests for neuron topologies and neighbourhood schedules."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.topology import (
    ConstantNeighbourhoodSchedule,
    Grid2DTopology,
    LinearTopology,
    RingTopology,
    StepwiseNeighbourhoodSchedule,
)
from repro.errors import ConfigurationError


class TestLinearTopology:
    def test_distance_is_absolute_difference(self):
        topo = LinearTopology(10)
        assert topo.grid_distance(2, 7) == 5
        assert topo.grid_distance(7, 2) == 5

    def test_neighbourhood_includes_winner(self):
        topo = LinearTopology(10)
        assert 4 in topo.neighbourhood(4, 0).tolist()

    def test_neighbourhood_clipped_at_edges(self):
        topo = LinearTopology(10)
        assert topo.neighbourhood(0, 2).tolist() == [0, 1, 2]
        assert topo.neighbourhood(9, 2).tolist() == [7, 8, 9]

    def test_neighbourhood_interior(self):
        topo = LinearTopology(10)
        assert topo.neighbourhood(5, 2).tolist() == [3, 4, 5, 6, 7]

    def test_paper_window_size(self):
        # 40 neurons with radius 4: the interior window has 9 members.
        topo = LinearTopology(40)
        assert topo.neighbourhood(20, 4).size == 9

    def test_invalid_index(self):
        with pytest.raises(ConfigurationError):
            LinearTopology(5).grid_distance(0, 5)

    def test_negative_radius(self):
        with pytest.raises(ConfigurationError):
            LinearTopology(5).neighbourhood(0, -1)


class TestRingTopology:
    def test_wraps_around(self):
        topo = RingTopology(10)
        assert topo.grid_distance(0, 9) == 1
        assert topo.grid_distance(1, 8) == 3

    def test_neighbourhood_wraps(self):
        topo = RingTopology(6)
        assert topo.neighbourhood(0, 1).tolist() == [0, 1, 5]


class TestGrid2DTopology:
    def test_total_neurons(self):
        topo = Grid2DTopology(4, 5)
        assert topo.n_neurons == 20

    def test_chebyshev_distance(self):
        topo = Grid2DTopology(4, 4)
        assert topo.grid_distance(0, 5) == 1  # diagonal neighbour
        assert topo.grid_distance(0, 15) == 3

    def test_coordinates_row_major(self):
        topo = Grid2DTopology(3, 4)
        assert topo.coordinates(7) == (1, 3)

    def test_invalid_shape(self):
        with pytest.raises(ConfigurationError):
            Grid2DTopology(0, 5)

    def test_distance_matrix_symmetric(self):
        topo = Grid2DTopology(3, 3)
        matrix = topo.distance_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)


class TestStepwiseSchedule:
    def test_paper_example_100_iterations(self):
        """Section V-D: with 100 iterations the radius is 4/3/2/1 by quarter."""
        schedule = StepwiseNeighbourhoodSchedule(max_radius=4)
        assert schedule.radius(0, 100) == 4
        assert schedule.radius(24, 100) == 4
        assert schedule.radius(25, 100) == 3
        assert schedule.radius(49, 100) == 3
        assert schedule.radius(50, 100) == 2
        assert schedule.radius(74, 100) == 2
        assert schedule.radius(75, 100) == 1
        assert schedule.radius(99, 100) == 1

    def test_never_below_min_radius(self):
        schedule = StepwiseNeighbourhoodSchedule(max_radius=4, min_radius=2)
        radii = {schedule.radius(i, 100) for i in range(100)}
        assert min(radii) == 2
        assert max(radii) == 4

    def test_monotonically_non_increasing(self):
        schedule = StepwiseNeighbourhoodSchedule(max_radius=4)
        for total in (7, 10, 40, 100, 500):
            radii = [schedule.radius(i, total) for i in range(total)]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_short_runs_still_valid(self):
        schedule = StepwiseNeighbourhoodSchedule(max_radius=4)
        assert schedule.radius(0, 1) == 4
        assert schedule.radius(1, 2) in (1, 2, 3, 4)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            StepwiseNeighbourhoodSchedule(max_radius=2, min_radius=3)
        with pytest.raises(ConfigurationError):
            StepwiseNeighbourhoodSchedule(max_radius=-1)

    def test_iteration_out_of_range(self):
        schedule = StepwiseNeighbourhoodSchedule()
        with pytest.raises(ConfigurationError):
            schedule.radius(10, 10)
        with pytest.raises(ConfigurationError):
            schedule.radius(0, 0)


class TestConstantSchedule:
    def test_constant_radius(self):
        schedule = ConstantNeighbourhoodSchedule(radius=2)
        assert {schedule.radius(i, 50) for i in range(50)} == {2}

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantNeighbourhoodSchedule(radius=-1)


@st.composite
def _topologies(draw):
    kind = draw(st.sampled_from(["linear", "ring", "grid"]))
    if kind == "grid":
        return Grid2DTopology(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(1, 30))
    return LinearTopology(n) if kind == "linear" else RingTopology(n)


@settings(max_examples=100, deadline=None)
@given(topology=_topologies())
@example(topology=LinearTopology(1))
@example(topology=RingTopology(1))
@example(topology=Grid2DTopology(1, 1))
def test_broadcast_distances_equal_the_per_pair_definition(topology):
    """``distance_matrix`` and ``neighbourhood`` are computed in one
    broadcast; both equal what ``grid_distance`` defines pair by pair, for
    every winner, at small radii and at radii at and past the map's size."""
    n = topology.n_neurons
    pairs = [[topology.grid_distance(a, b) for b in range(n)] for a in range(n)]
    matrix = topology.distance_matrix()
    assert matrix.dtype == np.int64
    assert matrix.tolist() == pairs
    for winner in range(n):
        for radius in (0, 1, 2, 3, 4, n - 1, n, n + 2):
            members = topology.neighbourhood(winner, max(radius, 0))
            assert members.dtype == np.int64
            assert members.tolist() == [
                j for j in range(n) if pairs[winner][j] <= max(radius, 0)
            ]
