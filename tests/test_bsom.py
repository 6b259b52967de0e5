"""Unit tests for the tri-state binary SOM."""

import copy
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import bsom as oracle
from repro.core import bsom as bsom_module
from repro.core import native
from repro.core.backends import PackedBackend
from repro.core.bsom import BinarySom, BsomUpdateRule
from repro.core.topology import (
    ConstantNeighbourhoodSchedule,
    Grid2DTopology,
    LinearTopology,
    RingTopology,
    StepwiseNeighbourhoodSchedule,
)
from repro.core.tristate import DONT_CARE, TriStateWeights
from repro.errors import ConfigurationError, DataError, DimensionMismatchError


@pytest.fixture()
def small_bsom():
    return BinarySom(n_neurons=8, n_bits=32, seed=0)


class TestConstruction:
    def test_initial_weights_are_binary(self, small_bsom):
        assert small_bsom.weights.dont_care_fraction() == 0.0

    def test_dont_care_initialisation(self):
        som = BinarySom(8, 64, dont_care_probability=0.5, seed=1)
        assert 0.3 < som.weights.dont_care_fraction() < 0.7

    def test_seed_reproducibility(self):
        a = BinarySom(8, 32, seed=5)
        b = BinarySom(8, 32, seed=5)
        assert a.weights == b.weights

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            BinarySom(0, 32)
        with pytest.raises(ConfigurationError):
            BinarySom(8, 0)

    def test_topology_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            BinarySom(8, 32, topology=RingTopology(10))

    def test_invalid_update_rule(self):
        with pytest.raises(ConfigurationError):
            BsomUpdateRule(winner_rule="bogus")
        with pytest.raises(ConfigurationError):
            BsomUpdateRule(neighbour_rule="bogus")
        with pytest.raises(ConfigurationError):
            BsomUpdateRule(neighbour_strength=0.0)


class TestQueries:
    def test_distances_shape(self, small_bsom, rng):
        x = rng.integers(0, 2, 32)
        assert small_bsom.distances(x).shape == (8,)

    def test_winner_is_argmin(self, small_bsom, rng):
        x = rng.integers(0, 2, 32)
        distances = small_bsom.distances(x)
        assert small_bsom.winner(x) == int(np.argmin(distances))

    def test_winner_tie_break_prefers_lower_index(self):
        som = BinarySom(3, 4, seed=0)
        weights = TriStateWeights(np.array(
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.int8
        ))
        som.set_weights(weights)
        assert som.winner(np.array([0, 0, 0, 0])) == 0

    def test_input_validation(self, small_bsom):
        with pytest.raises(DimensionMismatchError):
            small_bsom.distances(np.zeros(16, dtype=np.int8))
        with pytest.raises(DataError):
            small_bsom.distances(np.full(32, 2))

    def test_distance_matrix_matches_distances(self, small_bsom, rng):
        X = rng.integers(0, 2, size=(10, 32))
        matrix = small_bsom.distance_matrix(X)
        for i, x in enumerate(X):
            assert matrix[i].tolist() == small_bsom.distances(x).tolist()

    def test_all_dont_care_neuron_wins_everything(self):
        som = BinarySom(2, 8, seed=0)
        values = np.ones((2, 8), dtype=np.int8)
        values[1, :] = DONT_CARE
        som.set_weights(TriStateWeights(values))
        x = np.zeros(8, dtype=np.int8)
        # The paper notes a neuron with all '#' has Hamming distance 0.
        assert som.distances(x)[1] == 0
        assert som.winner(x) == 1


class TestWeightManagement:
    def test_set_weights_roundtrip(self, small_bsom):
        weights = small_bsom.weights
        other = BinarySom(8, 32, seed=99)
        other.set_weights(weights)
        assert other.weights == weights

    def test_set_weights_shape_check(self, small_bsom):
        with pytest.raises(ConfigurationError):
            small_bsom.set_weights(np.zeros((4, 32), dtype=np.int8))

    def test_weights_is_a_copy_of_the_map(self, rng):
        som = BinarySom(8, 32, dont_care_probability=0.3, seed=3)
        som.fit(rng.integers(0, 2, size=(20, 32)), epochs=2, seed=0)
        version = som.weights_version
        weights = som.weights
        assert np.array_equal(weights.values, som._weights)
        assert weights.values is not som._weights
        weights.values[:] = DONT_CARE  # a holder's write stays its own
        assert not np.array_equal(som.weights.values, weights.values)
        assert som.weights_version == version
        assert som.dont_care_fraction() < 1.0

    def test_set_weights_still_rejects_invalid_states(self, small_bsom):
        values = small_bsom.weights.values
        values[0, 0] = DONT_CARE + 1  # neither 0, 1 nor '#'
        with pytest.raises(DataError):
            small_bsom.set_weights(values)


class TestTraining:
    def test_partial_fit_returns_winner(self, small_bsom, rng):
        x = rng.integers(0, 2, 32)
        winner = small_bsom.partial_fit(x, 0, 10)
        assert 0 <= winner < 8

    def test_winner_update_full_rule(self):
        """After a full-rule update the winner has no mismatching committed bits."""
        som = BinarySom(4, 16, seed=0)
        x = np.random.default_rng(1).integers(0, 2, 16).astype(np.int8)
        winner = som.partial_fit(x, 0, 10)
        row = som.weights.values[winner]
        committed = row != DONT_CARE
        assert np.all(row[committed] == x[committed])

    def test_winner_update_resolves_dont_cares(self):
        som = BinarySom(2, 8, seed=0, schedule=ConstantNeighbourhoodSchedule(0))
        values = np.full((2, 8), DONT_CARE, dtype=np.int8)
        values[1] = 1  # make neuron 0 the sure winner (distance 0)
        som.set_weights(TriStateWeights(values))
        x = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int8)
        som.partial_fit(x, 0, 10)
        assert som.weights.values[0].tolist() == x.tolist()

    def test_mismatches_become_dont_care(self):
        som = BinarySom(2, 4, seed=0, schedule=ConstantNeighbourhoodSchedule(0))
        values = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=np.int8)
        som.set_weights(TriStateWeights(values))
        x = np.array([0, 1, 0, 0], dtype=np.int8)
        # Neuron 0 has distance 1, neuron 1 distance 3: neuron 0 wins.
        som.partial_fit(x, 0, 10)
        assert som.weights.values[0].tolist() == [DONT_CARE, 1, 0, 0]

    def test_commit_rule_never_erodes(self):
        rule = BsomUpdateRule(winner_rule="commit", neighbour_rule="commit")
        som = BinarySom(4, 32, seed=0, update_rule=rule)
        before = som.weights.dont_care_fraction()
        X = np.random.default_rng(2).integers(0, 2, size=(50, 32))
        som.fit(X, epochs=2, seed=3)
        assert som.weights.dont_care_fraction() <= before

    def test_fit_validates_epochs(self, small_bsom, rng):
        X = rng.integers(0, 2, size=(10, 32))
        with pytest.raises(ConfigurationError):
            small_bsom.fit(X, epochs=0)

    def test_fit_validates_data(self, small_bsom):
        with pytest.raises(DataError):
            small_bsom.fit(np.full((4, 32), 3), epochs=1)

    def test_fit_records_history(self, rng):
        som = BinarySom(8, 32, seed=0)
        X = rng.integers(0, 2, size=(30, 32))
        som.fit(X, epochs=3, seed=1, record_history=True)
        assert som.history.epochs == 3
        assert len(som.history.neighbourhood_radii) == 3
        assert som.trained_epochs == 3

    def test_training_reduces_quantisation_error(self, cluster_data):
        X, _ = cluster_data
        som = BinarySom(16, X.shape[1], seed=0)
        before = som.quantisation_error(X)
        som.fit(X, epochs=5, seed=1)
        after = som.quantisation_error(X)
        assert after < before

    def test_training_is_reproducible(self, cluster_data):
        X, _ = cluster_data
        a = BinarySom(8, X.shape[1], seed=4).fit(X, epochs=3, seed=9)
        b = BinarySom(8, X.shape[1], seed=4).fit(X, epochs=3, seed=9)
        assert a.weights == b.weights

    def test_neuron_usage_sums_to_samples(self, cluster_data):
        X, _ = cluster_data
        som = BinarySom(8, X.shape[1], seed=0).fit(X, epochs=2, seed=1)
        assert som.neuron_usage(X).sum() == X.shape[0]

    def test_stochastic_neighbour_rule_spreads_usage(self, cluster_data):
        """The default rule must not collapse onto a single winning neuron."""
        X, _ = cluster_data
        som = BinarySom(16, X.shape[1], seed=0).fit(X, epochs=5, seed=1)
        assert (som.neuron_usage(X) > 0).sum() >= 5


def _fit_winners(som, X, epochs, shuffle, seed):
    """``som.fit``, returning the winners its passes reported."""
    winners = []
    train_pass = som._train_pass

    def recording_pass(*args):
        winners.append(train_pass(*args))
        return winners[-1]

    som._train_pass = recording_pass
    try:
        som.fit(X, epochs, shuffle=shuffle, seed=seed, record_history=False)
    finally:
        del som._train_pass
    return np.concatenate(winners)


def _assert_same_map(som, reference):
    assert np.array_equal(som.weights.values, reference.weights.values)
    assert som.weights_version == reference.weights_version
    assert som._update_rng.bit_generator.state == reference._update_rng.bit_generator.state


def _assert_trains_as_oracle(som, X, *, epochs, shuffle, order_seed, total, block_start,
                             block_iteration):
    """``fit``, one-row ``partial_fit`` and a ``partial_fit`` block on ``som``
    equal the per-step int8 oracle run on a copy."""
    reference = copy.deepcopy(som)
    winners = _fit_winners(som, X, epochs, shuffle, order_seed)
    expected = oracle.fit(reference, X, epochs, shuffle=shuffle, seed=order_seed)
    assert np.array_equal(winners, expected)
    _assert_same_map(som, reference)

    for step, x in enumerate(X[:8]):
        iteration = step % total
        assert som.partial_fit(x, iteration, total) == oracle.train_one(
            reference, x, iteration, total
        )
    _assert_same_map(som, reference)

    # A block is one pass: the oracle's per-row steps, in order.
    block = X[block_start:]
    winners = som.partial_fit(block, block_iteration, total)
    expected = [oracle.train_one(reference, x, block_iteration, total) for x in block]
    assert np.array_equal(winners, expected)
    _assert_same_map(som, reference)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_plane_training_matches_int8_oracle(training_pass, data):
    """``fit`` and ``partial_fit`` (one row or a block) on packed planes equal
    the per-step int8 oracle in weights, weights version, winners and
    random-stream position."""
    kind = data.draw(st.sampled_from(["linear", "ring", "grid"]))
    if kind == "grid":
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        topology = Grid2DTopology(rows, cols)
    else:
        n = data.draw(st.integers(1, 12))
        topology = LinearTopology(n) if kind == "linear" else RingTopology(n)
    n_bits = data.draw(
        st.one_of(st.integers(1, 200), st.sampled_from([64, 100, 128, 130, 192, 768]))
    )
    rule = BsomUpdateRule(
        winner_rule=data.draw(st.sampled_from(["full", "commit"])),
        neighbour_rule=data.draw(st.sampled_from(["stochastic", "full", "commit"])),
        neighbour_strength=data.draw(
            st.one_of(st.just(0.3), st.floats(0.0, 1.0, exclude_min=True))
        ),
    )
    max_radius = data.draw(st.integers(0, 4))
    som = BinarySom(
        topology.n_neurons,
        n_bits,
        topology=topology,
        schedule=StepwiseNeighbourhoodSchedule(max_radius=max_radius, min_radius=0),
        update_rule=rule,
        dont_care_probability=data.draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0))),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 2, size=(data.draw(st.integers(1, 20)), n_bits), dtype=np.int8)
    total = data.draw(st.integers(1, 4))
    _assert_trains_as_oracle(
        som,
        X,
        epochs=data.draw(st.integers(1, 4)),
        shuffle=data.draw(st.booleans()),
        order_seed=data.draw(st.integers(0, 2**32 - 1)),
        total=total,
        block_start=data.draw(st.integers(0, len(X) - 1)),
        block_iteration=data.draw(st.integers(0, total - 1)),
    )


_MATRIX_TOPOLOGIES = {
    "linear": lambda: LinearTopology(12),
    "ring": lambda: RingTopology(12),
    "grid": lambda: Grid2DTopology(3, 4),
}


#: The matrix's cases: width, neighbour strength, ``#`` share of the
#: initial weights, and whether every row starts as the one pattern
#: trained on.
_MATRIX_CASES = {
    "768": (768, 0.3, 0.2, False),
    "64": (64, 0.3, 0.2, False),
    "100": (100, 0.3, 0.2, False),
    "130": (130, 0.3, 0.2, False),
    "1": (1, 0.3, 0.2, False),
    "63": (63, 0.3, 0.2, False),
    "65": (65, 0.3, 0.2, False),
    # Threshold 2**53: every live draw selects.
    "strength-1": (100, 1.0, 0.2, False),
    # Threshold 1 at every distance: only a zero draw would select.
    "strength-2**-60": (100, 2**-60, 0.2, False),
    # Probability 0 past distance 1: threshold 0, nothing selects.
    "strength-1e-200": (100, 1e-200, 0.2, False),
    # Every bit live at first.
    "all-#": (100, 0.3, 1.0, False),
    # No bit ever live, yet the stream moves each row's full draw count.
    "rows-equal-pattern": (100, 0.3, 0.0, True),
}


@pytest.mark.parametrize("kind", sorted(_MATRIX_TOPOLOGIES))
@pytest.mark.parametrize("case", list(_MATRIX_CASES))
def test_plane_training_matrix_matches_int8_oracle(training_pass, case, kind):
    """The oracle property on a fixed matrix: each case and topology under
    every rule pair.  Beside four widths at ``neighbour_strength=0.3`` with
    ``#`` bits in the initial weights, the cases hold the edges of the
    compiled pass's skipping of draws that cannot flip a bit."""
    n_bits, strength, dont_care, rows_equal_pattern = _MATRIX_CASES[case]
    rng = np.random.default_rng(n_bits)
    X = rng.integers(0, 2, size=(15, n_bits), dtype=np.int8)
    if rows_equal_pattern:
        X[:] = X[0]
    for seed, (winner_rule, neighbour_rule) in enumerate(
        (w, n) for w in ("full", "commit") for n in ("stochastic", "full", "commit")
    ):
        som = BinarySom(
            12,
            n_bits,
            topology=_MATRIX_TOPOLOGIES[kind](),
            update_rule=BsomUpdateRule(winner_rule, neighbour_rule, strength),
            dont_care_probability=dont_care,
            seed=seed,
        )
        if rows_equal_pattern:
            som.set_weights(X[:12])
        _assert_trains_as_oracle(
            som, X, epochs=3, shuffle=True, order_seed=seed, total=4, block_start=5,
            block_iteration=1,
        )


def _train_blocks(som, blocks):
    """``partial_fit`` each ``(block, iteration, total)`` in turn."""
    for block, iteration, total in blocks:
        som.partial_fit(block, iteration, total)


def test_training_on_the_lookup_table_popcount_matches_native(training_pass, monkeypatch):
    """The NumPy pass's winner search counts through the kernel's popcount
    (the compiled pass counts in C): forced onto the 16-bit lookup table,
    training builds the same map and the same history."""
    rng = np.random.default_rng(4)
    X = rng.integers(0, 2, size=(60, 200), dtype=np.int8)
    reference = BinarySom(12, 200, dont_care_probability=0.3, seed=8)
    table = copy.deepcopy(reference)
    reference.fit(X, 4, seed=2)
    kernel = PackedBackend(use_native_popcount=False)
    counted = []
    lookup = kernel.popcount

    def counting_popcount(words, out=None):
        counted.append(words.shape)
        return lookup(words, out=out)

    kernel.popcount = counting_popcount
    monkeypatch.setattr(bsom_module, "_KERNEL", kernel)
    table.fit(X, 4, seed=2)
    # One winner search per presentation (the history's distance queries
    # count too: one per epoch).
    searches = 4 * len(X) if training_pass == "numpy" else 0
    assert counted.count((12, 4)) == searches
    assert len(counted) == searches + 4
    _assert_same_map(table, reference)
    assert table.history.quantisation_errors == reference.history.quantisation_errors


def test_interleaved_and_copied_maps_train_as_alone(training_pass):
    """Two maps trained in turn, and a copy taken between ``partial_fit``
    blocks and trained on, each end as the same map trained alone: no
    scratch or table is shared between maps, copies or passes."""
    rng = np.random.default_rng(6)
    X = rng.integers(0, 2, size=(40, 130), dtype=np.int8)
    Y = rng.integers(0, 2, size=(30, 96), dtype=np.int8)

    def first():
        return BinarySom(10, 130, seed=1)

    def second():
        return BinarySom(
            9,
            96,
            topology=RingTopology(9),
            update_rule=BsomUpdateRule(neighbour_rule="full"),
            seed=2,
        )

    first_blocks = [(X[i : i + 7], i % 3, 3) for i in range(0, 40, 7)]
    second_blocks = [(Y[i : i + 5], i % 4, 4) for i in range(0, 30, 5)]
    first_alone, second_alone = first(), second()
    _train_blocks(first_alone, first_blocks)
    _train_blocks(second_alone, second_blocks)

    a, b = first(), second()
    copies = []
    for (x_block, *x_step), (y_block, *y_step) in zip(first_blocks, second_blocks):
        a.partial_fit(x_block, *x_step)
        b.partial_fit(y_block, *y_step)
        copies.append((copy.deepcopy(a), len(copies)))
    _assert_same_map(a, first_alone)
    _assert_same_map(b, second_alone)
    for clone, done in copies:
        _train_blocks(clone, first_blocks[done + 1 :])
        _assert_same_map(clone, first_alone)


@pytest.mark.parametrize("fault", ["no compiler on PATH", "cache under a file"])
def test_a_failed_build_trains_on_the_numpy_pass(fault, tmp_path, monkeypatch):
    """Where the compiled pass cannot be built, the first fit falls back to
    the NumPy pass without raising and trains the oracle's map."""
    if fault == "no compiler on PATH":
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    monkeypatch.setattr(native, "_training_pass", native._NOT_LOADED)
    rng = np.random.default_rng(9)
    X = rng.integers(0, 2, size=(30, 100), dtype=np.int8)
    som = BinarySom(10, 100, dont_care_probability=0.1, seed=4)
    reference = copy.deepcopy(som)
    som.fit(X, 3, seed=5)
    assert native._training_pass is None
    oracle.fit(reference, X, 3, seed=5)
    _assert_same_map(som, reference)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no compiler on PATH")
def test_a_changed_compile_command_builds_a_new_library(tmp_path, monkeypatch):
    """The cached library is named by its compile command and its source:
    under a changed command the first pass builds a new library rather
    than load the one built the old way."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    libraries = []
    for command in (native._COMPILE, ("cc", "-O1", "-shared", "-fPIC")):
        monkeypatch.setattr(native, "_COMPILE", command)
        monkeypatch.setattr(native, "_training_pass", native._NOT_LOADED)
        assert native.training_pass() is not None
        libraries.append(set((tmp_path / "repro").glob("bsom_train-*.so")))
    assert len(libraries[0]) == 1
    assert len(libraries[1]) == 2 and libraries[0] < libraries[1]
