"""Regression tests: the vectorised batch path matches ``predict_one`` exactly.

``SomClassifier.predict`` delegates to ``predict_batch`` (one packed
distance-kernel call for the whole batch); these tests pin the
contract that batching is purely an execution strategy -- labels, winning
neurons, distances and rejection decisions are bit-identical to looping
``predict_one``, including the ``UNKNOWN_LABEL`` cases from the rejection
threshold and from unlabelled winning neurons.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BatchPrediction,
    BinarySom,
    LabelledMap,
    SomClassifier,
    UNKNOWN_LABEL,
)
from repro.errors import ConfigurationError, DataError, NotFittedError


def _assert_batch_matches_looped(classifier: SomClassifier, X: np.ndarray) -> None:
    batch = classifier.predict_batch(X)
    assert len(batch) == X.shape[0]
    for row in range(X.shape[0]):
        single = classifier.predict_one(X[row])
        result = batch[row]
        assert result.label == single.label
        assert result.neuron == single.neuron
        assert result.rejected == single.rejected
        # Exact for the bSOM's integer Hamming distances; the cSOM's squared
        # Euclidean accumulates in a different order between the single and
        # matrix paths, so allow float rounding in the last ulps there.
        assert result.distance == pytest.approx(single.distance, rel=1e-12, abs=1e-9)
    np.testing.assert_array_equal(classifier.predict(X), batch.labels)


class TestBatchMatchesLooped:
    def test_bsom_without_rejection(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        _assert_batch_matches_looped(trained_bsom_classifier, X)

    def test_csom_without_rejection(self, trained_csom_classifier, cluster_data):
        X, _ = cluster_data
        _assert_batch_matches_looped(trained_csom_classifier, X)

    def test_with_rejection_threshold(self, cluster_data, rng):
        X, y = cluster_data
        classifier = SomClassifier(
            BinarySom(16, X.shape[1], seed=3), rejection_percentile=75.0
        ).fit(X, y, epochs=6, seed=4)
        # Mix in-distribution rows with uniform-random ones so both sides of
        # the threshold are exercised.
        noise = rng.integers(0, 2, size=(40, X.shape[1])).astype(np.uint8)
        mixed = np.vstack([X[:40], noise])
        batch = classifier.predict_batch(mixed)
        assert batch.rejected.any(), "expected some rejections from random inputs"
        assert not batch.rejected.all(), "expected some accepted in-cluster inputs"
        assert np.all(batch.labels[batch.rejected] == UNKNOWN_LABEL)
        _assert_batch_matches_looped(classifier, mixed)

    def test_unlabelled_winner_is_rejected(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(16, X.shape[1], seed=5)).fit(
            X, y, epochs=6, seed=6
        )
        # Force the winner of the first row into the unlabelled state.
        winner = classifier.predict_one(X[0]).neuron
        classifier.labelling.node_labels[winner] = LabelledMap.UNLABELLED
        single = classifier.predict_one(X[0])
        assert single.label == UNKNOWN_LABEL and single.rejected
        _assert_batch_matches_looped(classifier, X[:20])


class TestBatchPredictionObject:
    def test_confidences_bounds_and_rejection_zeroing(self, cluster_data, rng):
        X, y = cluster_data
        classifier = SomClassifier(
            BinarySom(16, X.shape[1], seed=7), rejection_percentile=60.0
        ).fit(X, y, epochs=6, seed=8)
        noise = rng.integers(0, 2, size=(30, X.shape[1])).astype(np.uint8)
        batch = classifier.predict_batch(np.vstack([X[:30], noise]))
        assert np.all(batch.confidences >= 0.0) and np.all(batch.confidences <= 1.0)
        assert np.all(batch.confidences[batch.rejected] == 0.0)
        assert np.all(batch.confidences[~batch.rejected] > 0.0)

    def test_iteration_yields_prediction_results(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        batch = trained_bsom_classifier.predict_batch(X[:5])
        results = list(batch)
        assert len(results) == 5
        assert results[2] == trained_bsom_classifier.predict_one(X[2])

    def test_single_row_promotion(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        batch = trained_bsom_classifier.predict_batch(X[0])
        assert isinstance(batch, BatchPrediction) and len(batch) == 1

    def test_unfitted_raises(self, cluster_data):
        X, _ = cluster_data
        with pytest.raises(NotFittedError):
            SomClassifier(BinarySom(8, X.shape[1], seed=0)).predict_batch(X)


class TestOnlineLearnerBatchPath:
    def test_observe_many_matches_sequential_observe(self, cluster_data, rng):
        from repro.pipeline import OnlineLearner, OnlineLearnerConfig

        X, y = cluster_data
        config = OnlineLearnerConfig(min_signatures=10, online_epochs=1)

        def build():
            classifier = SomClassifier(BinarySom(16, X.shape[1], seed=9)).fit(
                X, y, epochs=8, seed=10
            )
            return OnlineLearner(classifier, X, y, config=config)

        # A batch of known signatures plus a handful of novel (random) ones,
        # all attributed to one track so the novel evidence accumulates.
        novel = rng.integers(0, 2, size=(6, X.shape[1])).astype(np.uint8)
        batch = np.vstack([X[:12], novel])
        track_ids = np.full(batch.shape[0], 7, dtype=np.int64)

        sequential = build()
        expected = np.array(
            [sequential.observe(7, row) for row in batch], dtype=np.int64
        )
        batched = build()
        labels = batched.observe_many(track_ids, batch)
        np.testing.assert_array_equal(labels, expected)
        assert batched.pending_counts() == sequential.pending_counts()

    def test_observe_many_shape_validation(self, cluster_data):
        from repro.errors import ConfigurationError
        from repro.pipeline import OnlineLearner

        X, y = cluster_data
        classifier = SomClassifier(BinarySom(16, X.shape[1], seed=11)).fit(
            X, y, epochs=6, seed=12
        )
        learner = OnlineLearner(classifier, X, y)
        with pytest.raises(ConfigurationError):
            learner.observe_many(np.array([1, 2]), X[:3])


class TestLabelledMapBatchLookups:
    def test_labels_for_matches_label_of(self, trained_bsom_classifier):
        labelling = trained_bsom_classifier.labelling
        winners = np.arange(labelling.n_neurons)
        vectorised = labelling.labels_for(winners)
        for neuron in winners:
            expected = labelling.label_of(int(neuron))
            assert vectorised[neuron] == (
                LabelledMap.UNLABELLED if expected is None else expected
            )

    def test_confidences_for_agree_with_win_table(self, trained_bsom_classifier):
        labelling = trained_bsom_classifier.labelling
        winners = np.arange(labelling.n_neurons)
        confidences = labelling.confidences_for(winners)
        for neuron in winners:
            total = labelling.win_frequencies[neuron].sum()
            expected = (
                labelling.win_frequencies[neuron].max() / total if total else 0.0
            )
            assert confidences[neuron] == pytest.approx(expected)

    def test_out_of_range_winner_raises(self, trained_bsom_classifier):
        labelling = trained_bsom_classifier.labelling
        with pytest.raises(ConfigurationError):
            labelling.labels_for(np.array([labelling.n_neurons]))

    def test_non_integer_winners_raise(self, trained_bsom_classifier):
        with pytest.raises(DataError):
            trained_bsom_classifier.labelling.confidences_for(np.array([0.5]))
