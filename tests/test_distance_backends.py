"""Property-style tests for the packed distance kernel.

Randomised tri-state weight matrices times binary inputs, asserting that
the packed-``uint64`` kernel -- on native and lookup-table popcount, in
``pairwise``, ``pairwise_packed`` and ``batch_one`` -- agrees
*bit-exactly* with the naive oracle in ``tests/oracles/distance.py``,
including the all-``#`` neuron edge case the paper calls out (distance 0
to everything), plus the weights-version operand cache: incremental row
refresh during training must leave the cached operands identical to a
fresh ``prepare``, and train-then-predict must return the same labels with
and without the cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.distance import NaiveBackend
from repro.core import BinarySom, KohonenSom, SomClassifier
from repro.core import bsom as bsom_module
from repro.core.backends import (
    HAS_BITWISE_COUNT,
    PackedBackend,
    pack_bits_to_words,
    popcount_words,
    unpack_words_to_bits,
    words_per_vector,
)
from repro.core.tristate import DONT_CARE
from repro.errors import DataError


def _kernels():
    """The packed kernel on both popcount paths."""
    return [PackedBackend(), PackedBackend(use_native_popcount=False)]


def _assert_matches_oracle(kernel, weights, inputs):
    """``pairwise``, ``pairwise_packed`` and ``batch_one`` against the oracle."""
    oracle = NaiveBackend()
    expected = oracle.pairwise(oracle.prepare(weights), inputs)
    prepared = kernel.prepare(weights)
    words = pack_bits_to_words(inputs.astype(np.uint8))
    assert np.array_equal(kernel.pairwise(prepared, inputs), expected)
    assert np.array_equal(kernel.pairwise_packed(prepared, words), expected)
    assert np.array_equal(kernel.batch_one(prepared, inputs[0]), expected[0])
    return expected


def _random_case(rng, n_neurons, n_samples, n_bits):
    weights = rng.integers(0, 3, size=(n_neurons, n_bits), dtype=np.int8)
    inputs = rng.integers(0, 2, size=(n_samples, n_bits), dtype=np.int8)
    return weights, inputs


class TestBackendParity:
    # Bit widths straddle the word boundary on purpose: sub-word (5, 63),
    # exact words (64, 768) and a padded tail (100, 300).
    @pytest.mark.parametrize("n_bits", [5, 63, 64, 100, 300, 768])
    def test_randomized_parity_with_oracle(self, n_bits):
        rng = np.random.default_rng(n_bits)
        for trial in range(3):
            n_neurons = int(rng.integers(1, 70))
            n_samples = int(rng.integers(1, 130))
            weights, inputs = _random_case(rng, n_neurons, n_samples, n_bits)
            for kernel in _kernels():
                _assert_matches_oracle(kernel, weights, inputs)

    def test_all_dont_care_neuron_has_distance_zero_to_everything(self):
        # The paper's edge case: a neuron whose weight vector is all '#'
        # matches every input with distance 0.
        rng = np.random.default_rng(7)
        weights, inputs = _random_case(rng, 12, 40, 768)
        weights[3] = DONT_CARE
        for kernel in _kernels():
            distances = _assert_matches_oracle(kernel, weights, inputs)
            assert not distances[:, 3].any()

    def test_fully_committed_weights_match_plain_hamming(self):
        rng = np.random.default_rng(11)
        weights = rng.integers(0, 2, size=(9, 129), dtype=np.int8)  # no '#'
        inputs = rng.integers(0, 2, size=(17, 129), dtype=np.int8)
        expected = (inputs[:, None, :] != weights[None, :, :]).sum(axis=2)
        for kernel in _kernels():
            assert np.array_equal(
                _assert_matches_oracle(kernel, weights, inputs), expected
            )

    # A many-row batch against a small map, and a two-row batch against a
    # large one.
    @pytest.mark.parametrize("n_neurons,n_samples", [(33, 65), (512, 2)])
    def test_pairwise_packed_matches_unpacked(self, n_neurons, n_samples):
        rng = np.random.default_rng(3)
        weights, inputs = _random_case(rng, n_neurons, n_samples, 200)
        for kernel in _kernels():
            # pairwise_packed and pairwise each equal the oracle.
            _assert_matches_oracle(kernel, weights, inputs)


class TestPackingHelpers:
    @pytest.mark.parametrize("n_bits", [1, 64, 100, 768])
    def test_words_roundtrip(self, n_bits):
        rng = np.random.default_rng(n_bits)
        bits = rng.integers(0, 2, size=(5, n_bits), dtype=np.uint8)
        words = pack_bits_to_words(bits)
        assert words.shape == (5, words_per_vector(n_bits))
        assert np.array_equal(unpack_words_to_bits(words, n_bits), bits)

    def test_word_bytes_match_signature_key_for_768_bits(self):
        # 768 bits are exactly 12 words, so the serving layer's word-bytes
        # cache key is byte-identical to the historical packbits key.
        from repro.signatures.packing import signature_key

        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=768, dtype=np.uint8)
        assert pack_bits_to_words(bits).tobytes() == signature_key(bits)

    @pytest.mark.skipif(not HAS_BITWISE_COUNT, reason="numpy < 2.0")
    def test_lut_popcount_matches_native(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**63, size=(31, 7), dtype=np.uint64)
        assert np.array_equal(
            popcount_words(words, use_native=False),
            popcount_words(words, use_native=True),
        )


class TestOperandCache:
    def test_training_bumps_weights_version(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(20, 48), dtype=np.int8)
        som = BinarySom(6, 48, seed=1)
        before = som.weights_version
        som.fit(X, epochs=1, seed=2, record_history=False)
        assert som.weights_version == before + X.shape[0]
        som.set_weights(som.weights)
        assert som.weights_version == before + X.shape[0] + 1
        csom = KohonenSom(6, 48, seed=1)
        csom.partial_fit(X[0], 0, 1)
        assert csom.weights_version == 1

    @pytest.mark.parametrize("use_native", [None, False], ids=["packed", "packed_lut"])
    def test_incremental_refresh_equals_fresh_prepare(self, use_native, monkeypatch):
        # Train step by step, querying between steps: each step drops the
        # cached operands and the query re-prepares them.  Distances from
        # the cache must equal a fresh naive prepare on the current
        # weights at every step, on either popcount path.
        monkeypatch.setattr(
            bsom_module, "_KERNEL", PackedBackend(use_native_popcount=use_native)
        )
        rng = np.random.default_rng(5)
        X = rng.integers(0, 2, size=(30, 96), dtype=np.int8)
        som = BinarySom(10, 96, seed=3)
        oracle = NaiveBackend()
        for step, row in enumerate(X):
            som.partial_fit(row, 0, 1)
            expected = oracle.pairwise(oracle.prepare(som.weights.values), X)
            assert np.array_equal(som.distance_matrix(X), expected), step

    def test_cache_entry_reused_across_queries(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 2, size=(16, 64), dtype=np.int8)
        som = BinarySom(8, 64, seed=0)
        som.distance_matrix(X)
        first = som._operands()
        assert som._operands() is first  # same version -> same object
        som.partial_fit(X[0], 0, 1)
        assert som._operand_cache.cached_version is None
        som.distance_matrix(X)
        # Re-prepared at the new version, not migrated in place.
        second = som._operands()
        assert second is not first
        assert som._operand_cache.cached_version == som.weights_version
        assert som._operands() is second

    def test_set_weights_invalidates_cache(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(8, 64), dtype=np.int8)
        som = BinarySom(4, 64, seed=0)
        som.distance_matrix(X)
        stale = som._operands()
        new_weights = rng.integers(0, 3, size=(4, 64), dtype=np.int8)
        som.set_weights(new_weights)
        fresh = som._operands()
        assert fresh is not stale
        oracle = NaiveBackend()
        assert np.array_equal(
            som.distance_matrix(X), oracle.pairwise(oracle.prepare(new_weights), X)
        )

    def test_train_then_predict_same_labels_with_and_without_cache(self):
        # Acceptance check: the operand cache must be semantically
        # invisible.  Train, predict through the warm cache, then drop the
        # cache and predict again -- identical labels, distances and
        # neurons.
        rng = np.random.default_rng(17)
        X = rng.integers(0, 2, size=(120, 96), dtype=np.int8)
        y = np.repeat(np.arange(4), 30)
        clf = SomClassifier(
            BinarySom(12, 96, seed=4), rejection_percentile=99.0
        ).fit(X, y, epochs=3, seed=5)
        warm = clf.predict_batch(X)
        clf.som._operand_cache.invalidate()  # cold: re-prepare from weights
        cold = clf.predict_batch(X)
        assert np.array_equal(warm.labels, cold.labels)
        assert np.array_equal(warm.neurons, cold.neurons)
        assert np.array_equal(warm.distances, cold.distances)
        assert np.array_equal(warm.rejected, cold.rejected)


class TestClassifierPackedPath:
    def test_predict_batch_packed_matches_unpacked_bsom(self):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 2, size=(80, 128), dtype=np.int8)
        y = np.repeat(np.arange(4), 20)
        clf = SomClassifier(BinarySom(8, 128, seed=1)).fit(X, y, epochs=2, seed=2)
        words = pack_bits_to_words(X.astype(np.uint8))
        plain = clf.predict_batch(X)
        packed = clf.predict_batch_packed(words)
        assert np.array_equal(plain.labels, packed.labels)
        assert np.array_equal(plain.distances, packed.distances)

    def test_predict_batch_packed_falls_back_for_csom(self):
        rng = np.random.default_rng(22)
        X = rng.integers(0, 2, size=(60, 64), dtype=np.int8)
        y = np.repeat(np.arange(3), 20)
        clf = SomClassifier(KohonenSom(6, 64, seed=1)).fit(X, y, epochs=2, seed=2)
        words = pack_bits_to_words(X.astype(np.uint8))
        assert np.array_equal(
            clf.predict_batch(X).labels, clf.predict_batch_packed(words).labels
        )


class TestValidationFastPath:
    def test_boundary_still_rejects_garbage(self):
        from repro.signatures.packing import pack_bits

        som = BinarySom(2, 8, seed=0)
        bad = np.full((1, 8), 7)
        with pytest.raises(DataError):
            som.distance_matrix(bad)
        with pytest.raises(DataError):
            pack_bits(np.full(8, 9))

    def test_fast_path_skips_the_scan(self):
        rng = np.random.default_rng(1)
        som = BinarySom(4, 16, seed=0)
        inputs = rng.integers(0, 2, size=(6, 16), dtype=np.int8)
        assert np.array_equal(
            som.distance_matrix(inputs),
            som.distance_matrix(inputs, validate=False),
        )
