"""Unit tests for node labelling, the classifier and novelty detection."""

import numpy as np
import pytest

from repro import api
from repro.core import (
    BinarySom,
    KohonenSom,
    NodeLabeller,
    NoveltyDetector,
    SomClassifier,
    UNKNOWN_LABEL,
    calibrate_rejection_threshold,
)
from repro.core.labelling import LabelledMap
from repro.errors import (
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    NotFittedError,
)


class TestNodeLabeller:
    def test_labels_assigned_by_majority(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(16, X.shape[1], seed=0).fit(X, epochs=5, seed=1)
        labelling = NodeLabeller().label(som, X, y)
        assert labelling.n_neurons == 16
        assert labelling.win_frequencies.sum() == X.shape[0]
        used = labelling.node_labels != LabelledMap.UNLABELLED
        assert set(labelling.node_labels[used]).issubset(set(np.unique(y)))

    def test_unused_neurons_are_unlabelled(self, cluster_data):
        X, y = cluster_data
        # An untrained map with far more neurons than clusters leaves many unused.
        som = BinarySom(64, X.shape[1], seed=0)
        labelling = NodeLabeller().label(som, X, y)
        assert labelling.unused_neurons.size + labelling.used_neuron_count == 64

    def test_purity_bounds(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(16, X.shape[1], seed=0).fit(X, epochs=5, seed=1)
        purity = NodeLabeller().label(som, X, y).purity()
        assert 0.0 < purity <= 1.0

    def test_label_of_out_of_range(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(8, X.shape[1], seed=0)
        labelling = NodeLabeller().label(som, X, y)
        with pytest.raises(ConfigurationError):
            labelling.label_of(99)

    def test_requires_integer_labels(self, cluster_data):
        X, _ = cluster_data
        som = BinarySom(8, X.shape[1], seed=0)
        with pytest.raises(DataError):
            NodeLabeller().label(som, X, np.full(X.shape[0], 0.5))

    def test_label_count_mismatch(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(8, X.shape[1], seed=0)
        with pytest.raises(DataError):
            NodeLabeller().label(som, X, y[:-1])

    def test_result_requires_label_call(self):
        with pytest.raises(NotFittedError):
            _ = NodeLabeller().result


class TestSomClassifier:
    def test_fit_and_score(self, trained_bsom_classifier, cluster_data):
        X, y = cluster_data
        assert trained_bsom_classifier.score(X, y) > 0.8

    def test_generalises_to_new_samples(self, trained_bsom_classifier):
        from repro.datasets import make_signature_clusters

        X_new, y_new = make_signature_clusters(
            n_identities=5, samples_per_identity=20, n_bits=128, core_bits=20, shared_bits=15, seed=777
        )
        assert trained_bsom_classifier.score(X_new, y_new) > 0.7

    def test_csom_classifier_works_too(self, trained_csom_classifier, cluster_data):
        X, y = cluster_data
        assert trained_csom_classifier.score(X, y) > 0.8

    def test_predict_one_matches_predict(self, trained_bsom_classifier, cluster_data):
        X, _ = cluster_data
        batch = trained_bsom_classifier.predict(X[:10])
        singles = [trained_bsom_classifier.predict_one(x).label for x in X[:10]]
        assert batch.tolist() == singles

    def test_predict_before_fit_raises(self, cluster_data):
        X, _ = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0))
        with pytest.raises(NotFittedError):
            classifier.predict(X)

    def test_rejection_threshold_flags_far_inputs(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(
            BinarySom(16, X.shape[1], seed=0), rejection_percentile=99.0
        ).fit(X, y, epochs=5, seed=1)
        assert classifier.rejection_threshold is not None
        # A signature with every bit set is unlike anything in training.
        weird = np.ones(X.shape[1], dtype=np.uint8)
        assert classifier.predict_one(weird).label == UNKNOWN_LABEL

    def test_no_rejection_by_default(self, trained_bsom_classifier):
        assert trained_bsom_classifier.rejection_threshold is None

    def test_invalid_rejection_percentile(self, cluster_data):
        X, _ = cluster_data
        with pytest.raises(ConfigurationError):
            SomClassifier(BinarySom(8, X.shape[1]), rejection_percentile=0.0)

    def test_label_mismatch_raises(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0))
        with pytest.raises(DataError):
            classifier.fit(X, y[:-1], epochs=1)

    def test_label_nodes_without_retraining(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(16, X.shape[1], seed=0).fit(X, epochs=5, seed=1)
        classifier = SomClassifier(som)
        labelling = classifier.label_nodes(X, y)
        assert labelling is classifier.labelling
        assert classifier.score(X, y) > 0.8

    def test_unlabelled_winner_maps_to_unknown(self, cluster_data):
        X, y = cluster_data
        classifier = SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(X, y, epochs=3, seed=1)
        # Force every node label to 'unlabelled' and check predictions become unknown.
        classifier.labelling.node_labels[:] = LabelledMap.UNLABELLED
        assert np.all(classifier.predict(X[:5]) == UNKNOWN_LABEL)


class TestNovelty:
    def test_calibrated_threshold_accepts_training_data(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(16, X.shape[1], seed=0).fit(X, epochs=5, seed=1)
        threshold = calibrate_rejection_threshold(som, X, percentile=100.0)
        detector = NoveltyDetector(som, threshold)
        assert not detector.novel_mask(X).any()

    def test_far_signature_is_novel(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(16, X.shape[1], seed=0).fit(X, epochs=5, seed=1)
        threshold = calibrate_rejection_threshold(som, X, percentile=99.0)
        detector = NoveltyDetector(som, threshold)
        assert detector.is_novel(np.ones(X.shape[1], dtype=np.uint8))
        assert len(detector.buffered_events) == 1
        assert detector.drain()[0].best_distance > threshold
        assert detector.buffered_events == []

    def test_invalid_threshold(self, cluster_data):
        X, _ = cluster_data
        som = BinarySom(8, X.shape[1], seed=0)
        with pytest.raises(ConfigurationError):
            NoveltyDetector(som, -1.0)

    def test_invalid_percentile(self, cluster_data):
        X, _ = cluster_data
        som = BinarySom(8, X.shape[1], seed=0)
        with pytest.raises(ConfigurationError):
            calibrate_rejection_threshold(som, X, percentile=0.0)


class TestTrainingSetScannedOnce:
    """``api.train`` checks its training set once, at the entry point the
    caller used, and hands the checked array on; a bad set fails the same
    way through every entry point."""

    @pytest.mark.parametrize("bad", [1.5, -1, 2, np.nan])
    def test_a_non_binary_set_fails_the_same_way_everywhere(self, cluster_data, bad):
        X, y = cluster_data
        X = X.astype(np.float64)
        X[3, 7] = bad
        entry_points = {
            "api.train": lambda: api.train(X, y, n_neurons=8, epochs=1, seed=0),
            "SomClassifier.fit": lambda: SomClassifier(
                BinarySom(8, X.shape[1], seed=0)
            ).fit(X, y, epochs=1),
            "BinarySom.fit": lambda: BinarySom(8, X.shape[1], seed=0).fit(X, 1),
            "NodeLabeller.label": lambda: NodeLabeller().label(
                BinarySom(8, X.shape[1], seed=0), X, y
            ),
        }
        for name, call in entry_points.items():
            with pytest.raises(DataError) as caught:
                call()
            assert type(caught.value) is DataError, name
            assert str(caught.value) == (
                "training data must contain only zeros and ones"
            ), name

    def test_a_set_of_the_wrong_width_fails_the_same_way_everywhere(self, cluster_data):
        X, y = cluster_data
        som = BinarySom(8, X.shape[1] + 1, seed=0)
        for call in (
            lambda: SomClassifier(som).fit(X, y, epochs=1),
            lambda: som.fit(X, 1),
            lambda: NodeLabeller().label(som, X, y),
        ):
            with pytest.raises(DimensionMismatchError):
                call()

    @pytest.mark.parametrize("rejection_percentile", [None, 95.0])
    def test_train_scans_the_set_once(
        self, cluster_data, monkeypatch, rejection_percentile
    ):
        X, y = cluster_data
        scans = []
        unique = np.unique

        def counting_unique(values, *args, **kwargs):
            if np.shape(values) == X.shape:
                scans.append(values)
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        api.train(X, y, n_neurons=8, epochs=2, seed=0,
                  rejection_percentile=rejection_percentile)
        assert len(scans) == 1
        scans.clear()
        SomClassifier(BinarySom(8, X.shape[1], seed=0)).fit(
            X, y, epochs=2, record_history=True
        )
        assert len(scans) == 1
