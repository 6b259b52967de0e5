"""Unit tests for the Hamming distance functions (equation 3)."""

import numpy as np
import pytest

from repro.core import BinarySom
from repro.core.backends import NaiveBackend
from repro.core.distance import hamming_distance, masked_hamming_distance
from repro.core.tristate import DONT_CARE
from repro.errors import DataError, DimensionMismatchError


class TestHammingDistance:
    def test_identical_vectors(self):
        x = np.array([0, 1, 1, 0])
        assert hamming_distance(x, x) == 0

    def test_complementary_vectors(self):
        a = np.array([0, 1, 0, 1])
        assert hamming_distance(a, 1 - a) == 4

    def test_symmetry(self):
        a = np.array([0, 1, 1, 0, 1])
        b = np.array([1, 1, 0, 0, 1])
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hamming_distance(np.array([0, 1]), np.array([0, 1, 1]))

    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            hamming_distance(np.array([0, 2]), np.array([0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            hamming_distance(np.array([]), np.array([]))


class TestMaskedHammingDistance:
    def test_dont_care_matches_everything(self):
        weights = np.full(8, DONT_CARE, dtype=np.int8)
        x = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        assert masked_hamming_distance(weights, x) == 0

    def test_committed_bits_count(self):
        weights = np.array([0, 1, DONT_CARE, 1], dtype=np.int8)
        x = np.array([1, 1, 1, 0])
        # bit 0 mismatches, bit 1 matches, bit 2 is '#', bit 3 mismatches.
        assert masked_hamming_distance(weights, x) == 2

    def test_equals_plain_hamming_without_wildcards(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(0, 2, 32).astype(np.int8)
        x = rng.integers(0, 2, 32).astype(np.int8)
        assert masked_hamming_distance(weights, x) == hamming_distance(weights, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            masked_hamming_distance(np.zeros(4, dtype=np.int8), np.zeros(5, dtype=np.int8))


class TestNaiveBackendOracle:
    """The batch oracle every other kernel is compared against."""

    @staticmethod
    def _batch(weights, x):
        backend = NaiveBackend()
        return backend.batch_one(backend.prepare(weights), x)

    def test_matches_scalar_version(self, rng):
        weights = rng.integers(0, 3, size=(10, 24)).astype(np.int8)
        x = rng.integers(0, 2, 24).astype(np.int8)
        batch = self._batch(weights, x)
        scalar = [masked_hamming_distance(row, x) for row in weights]
        assert batch.tolist() == scalar

    def test_all_dont_care_row_has_zero_distance(self, rng):
        weights = rng.integers(0, 2, size=(3, 16)).astype(np.int8)
        weights[1, :] = DONT_CARE
        x = rng.integers(0, 2, 16).astype(np.int8)
        assert self._batch(weights, x)[1] == 0

    def test_binary_weights_match_plain_hamming(self, rng):
        weights = rng.integers(0, 2, size=(6, 20)).astype(np.int8)
        x = rng.integers(0, 2, 20).astype(np.int8)
        batch = self._batch(weights, x)
        assert batch.tolist() == [hamming_distance(row, x) for row in weights]

    def test_pairwise_matches_batch_version(self, rng):
        weights = rng.integers(0, 3, size=(7, 32)).astype(np.int8)
        inputs = rng.integers(0, 2, size=(5, 32)).astype(np.int8)
        backend = NaiveBackend()
        matrix = backend.pairwise(backend.prepare(weights), inputs)
        assert matrix.shape == (5, 7)
        for i, x in enumerate(inputs):
            assert matrix[i].tolist() == self._batch(weights, x).tolist()


class TestMapBoundaryValidation:
    """Batch queries are validated once, where they enter the map."""

    def test_rejects_non_binary_inputs(self):
        som = BinarySom(3, 8, seed=0)
        with pytest.raises(DataError):
            som.distance_matrix(np.full((2, 8), 5))

    def test_batch_width_mismatch(self, rng):
        som = BinarySom(3, 8, seed=0)
        with pytest.raises(DimensionMismatchError):
            som.distance_matrix(rng.integers(0, 2, size=(2, 9)).astype(np.int8))

    def test_single_input_length_mismatch(self):
        som = BinarySom(2, 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            som.distances(np.zeros(5, dtype=np.int8))
