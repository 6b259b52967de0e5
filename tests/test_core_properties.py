"""Property-based tests (hypothesis) for the core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.backends import NaiveBackend
from repro.core.bsom import BinarySom
from repro.core.distance import hamming_distance, masked_hamming_distance
from repro.core.topology import LinearTopology, RingTopology, StepwiseNeighbourhoodSchedule
from repro.core.tristate import DONT_CARE, TriStateWeights
from repro.eval.stats import _rank_with_ties


binary_vectors = arrays(np.int8, st.integers(4, 64), elements=st.integers(0, 1))
tristate_vectors = arrays(np.int8, st.integers(4, 64), elements=st.sampled_from([0, 1, DONT_CARE]))


@given(binary_vectors)
def test_hamming_distance_to_self_is_zero(x):
    assert hamming_distance(x, x) == 0


@given(st.data())
def test_hamming_distance_symmetry_and_bounds(data):
    n = data.draw(st.integers(4, 64))
    a = data.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    b = data.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    d = hamming_distance(a, b)
    assert d == hamming_distance(b, a)
    assert 0 <= d <= n
    assert d == int(np.abs(a.astype(int) - b.astype(int)).sum())


@given(st.data())
def test_triangle_inequality(data):
    n = data.draw(st.integers(4, 32))
    vectors = [data.draw(arrays(np.int8, n, elements=st.integers(0, 1))) for _ in range(3)]
    a, b, c = vectors
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


@given(st.data())
def test_masked_distance_never_exceeds_committed_bits(data):
    n = data.draw(st.integers(4, 64))
    weights = data.draw(arrays(np.int8, n, elements=st.sampled_from([0, 1, DONT_CARE])))
    x = data.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    distance = masked_hamming_distance(weights, x)
    committed = int(np.count_nonzero(weights != DONT_CARE))
    assert 0 <= distance <= committed


@given(st.data())
def test_masked_distance_monotone_in_wildcards(data):
    """Turning a committed bit into '#' can never increase the distance."""
    n = data.draw(st.integers(4, 32))
    weights = data.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    x = data.draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    index = data.draw(st.integers(0, n - 1))
    before = masked_hamming_distance(weights, x)
    relaxed = weights.copy()
    relaxed[index] = DONT_CARE
    after = masked_hamming_distance(relaxed, x)
    assert after <= before


@given(st.data())
@settings(max_examples=25)
def test_batch_masked_matches_scalar(data):
    n_neurons = data.draw(st.integers(1, 8))
    n_bits = data.draw(st.integers(4, 32))
    weights = data.draw(
        arrays(np.int8, (n_neurons, n_bits), elements=st.sampled_from([0, 1, DONT_CARE]))
    )
    x = data.draw(arrays(np.int8, n_bits, elements=st.integers(0, 1)))
    oracle = NaiveBackend()
    batch = oracle.batch_one(oracle.prepare(weights), x)
    assert batch.tolist() == [masked_hamming_distance(row, x) for row in weights]


@given(st.data())
@settings(max_examples=25)
def test_tristate_bitplane_roundtrip(data):
    n_neurons = data.draw(st.integers(1, 6))
    n_bits = data.draw(st.integers(1, 48))
    values = data.draw(
        arrays(np.int8, (n_neurons, n_bits), elements=st.sampled_from([0, 1, DONT_CARE]))
    )
    weights = TriStateWeights(values)
    assert TriStateWeights.from_bitplanes(*weights.to_bitplanes()) == weights


@given(st.data())
@settings(max_examples=25)
def test_tristate_string_roundtrip(data):
    n_neurons = data.draw(st.integers(1, 5))
    n_bits = data.draw(st.integers(1, 40))
    values = data.draw(
        arrays(np.int8, (n_neurons, n_bits), elements=st.sampled_from([0, 1, DONT_CARE]))
    )
    weights = TriStateWeights(values)
    assert TriStateWeights.from_strings(weights.to_strings()) == weights


@given(st.integers(2, 60), st.integers(0, 10))
def test_linear_neighbourhood_is_window(n_neurons, radius):
    topology = LinearTopology(n_neurons)
    winner = n_neurons // 2
    members = topology.neighbourhood(winner, radius)
    expected = [j for j in range(n_neurons) if abs(j - winner) <= radius]
    assert members.tolist() == expected


@given(st.integers(3, 40), st.integers(0, 8))
def test_ring_neighbourhood_size(n_neurons, radius):
    topology = RingTopology(n_neurons)
    members = topology.neighbourhood(0, radius)
    assert members.size == min(2 * radius + 1, n_neurons)


@given(st.integers(1, 500), st.integers(1, 6))
def test_stepwise_schedule_always_in_range(total, max_radius):
    schedule = StepwiseNeighbourhoodSchedule(max_radius=max_radius)
    radii = [schedule.radius(i, total) for i in range(total)]
    assert all(min(1, max_radius) <= r <= max_radius for r in radii)
    assert radii[0] == max_radius


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_bsom_winner_committed_bits_match_input_after_update(data):
    """Invariant of the full rule: after a winner update every committed bit
    of the winner equals the corresponding input bit."""
    n_bits = data.draw(st.integers(8, 48))
    n_neurons = data.draw(st.integers(2, 8))
    som = BinarySom(n_neurons, n_bits, seed=data.draw(st.integers(0, 1000)))
    x = data.draw(arrays(np.int8, n_bits, elements=st.integers(0, 1)))
    winner = som.partial_fit(x, 0, 10)
    row = som.weights.values[winner]
    committed = row != DONT_CARE
    assert np.all(row[committed] == x[committed])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=30))
def test_rank_with_ties_properties(values):
    ranks = _rank_with_ties(np.array(values, dtype=np.float64))
    n = len(values)
    # Ranks always sum to n(n+1)/2 regardless of ties.
    assert float(ranks.sum()) == n * (n + 1) / 2
    assert ranks.min() >= 1.0
    assert ranks.max() <= n
