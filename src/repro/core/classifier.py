"""The identification classifier built on a SOM (section III-B).

The paper turns either SOM into an identifier with three ingredients:

1. unsupervised training of the map on binary signatures,
2. win-frequency node labelling against the labelled training set, and
3. nearest-neuron prediction with an "unknown" rejection threshold.

:class:`SomClassifier` packages those three steps behind a small
scikit-learn-like ``fit`` / ``predict`` / ``score`` surface and works with
any :class:`~repro.core.som.SelfOrganisingMap` implementation -- the
software bSOM, the cSOM baseline, or the cycle-accurate FPGA model (which
exposes the same interface through an adapter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro._rng import SeedLike
from repro.core.backends import BackendSpec, unpack_words_to_bits
from repro.core.labelling import LabelledMap, NodeLabeller
from repro.core.novelty import calibrate_rejection_threshold
from repro.core.som import SelfOrganisingMap, validate_binary_matrix
from repro.errors import ConfigurationError, DataError, NotFittedError

#: Label returned for inputs rejected as unknown.
UNKNOWN_LABEL: int = -1


@dataclass(frozen=True)
class PredictionResult:
    """Full prediction detail for a single signature.

    Attributes
    ----------
    label:
        Predicted object label, or :data:`UNKNOWN_LABEL` when rejected.
    neuron:
        Index of the winning (minimum-distance) neuron.
    distance:
        The winning distance (Hamming for the bSOM, squared Euclidean for
        the cSOM).
    rejected:
        Whether the rejection threshold fired.
    """

    label: int
    neuron: int
    distance: float
    rejected: bool


@dataclass(frozen=True)
class BatchPrediction:
    """Vectorised prediction detail for a whole batch of signatures.

    The column-oriented counterpart of :class:`PredictionResult`: every
    attribute is an array with one entry per input row.  The serving layer
    (:mod:`repro.serve`) works exclusively in this representation so that a
    micro-batch of requests costs one distance-kernel call instead of one
    SOM query per request.

    Attributes
    ----------
    labels:
        Predicted labels; :data:`UNKNOWN_LABEL` where rejected.
    neurons:
        Winning (minimum-distance) neuron index per input.
    distances:
        The winning distance per input.
    rejected:
        Boolean rejection mask (threshold fired or the winner is
        unlabelled).
    confidences:
        Win-frequency purity of each winning neuron's label (0 where
        rejected); see :meth:`LabelledMap.confidences_for`.
    """

    labels: np.ndarray
    neurons: np.ndarray
    distances: np.ndarray
    rejected: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.size)

    def __getitem__(self, index: int) -> PredictionResult:
        """Row view as the single-sample :class:`PredictionResult`."""
        return PredictionResult(
            label=int(self.labels[index]),
            neuron=int(self.neurons[index]),
            distance=float(self.distances[index]),
            rejected=bool(self.rejected[index]),
        )

    def __iter__(self) -> Iterator[PredictionResult]:
        return (self[i] for i in range(len(self)))


class SomClassifier:
    """Appearance-based object identifier backed by a SOM.

    Parameters
    ----------
    som:
        An (untrained) SOM instance -- typically
        :class:`~repro.core.bsom.BinarySom` with 40 neurons and 768-bit
        vectors, or :class:`~repro.core.csom.KohonenSom` for the baseline.
    rejection_percentile:
        Percentile of training best-matching distances used to calibrate
        the "unknown" rejection threshold; ``None`` disables rejection
        entirely (every input is assigned some known label, matching the
        accuracy protocol of Table I where all test objects are known).
    rejection_margin:
        Multiplicative margin on the calibrated threshold.
    backend:
        Distance-backend selection forwarded to the SOM when it supports
        pluggable backends (the bSOM does; the real-valued cSOM computes
        Euclidean distances and ignores it).  A name (``"gemm"``,
        ``"packed"``, ``"naive"``, ``"auto"``) or a
        :class:`~repro.core.backends.DistanceBackend` instance.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import BinarySom, SomClassifier
    >>> rng = np.random.default_rng(0)
    >>> X = np.vstack([rng.integers(0, 2, (50, 32)) for _ in range(2)])
    >>> y = np.repeat([0, 1], 50)
    >>> clf = SomClassifier(BinarySom(8, 32, seed=1))
    >>> clf = clf.fit(X, y, epochs=5)
    >>> clf.predict(X).shape
    (100,)
    """

    def __init__(
        self,
        som: SelfOrganisingMap,
        *,
        rejection_percentile: Optional[float] = None,
        rejection_margin: float = 1.0,
        backend: BackendSpec = None,
    ):
        if rejection_percentile is not None and not 0.0 < rejection_percentile <= 100.0:
            raise ConfigurationError(
                f"rejection_percentile must lie in (0, 100], got {rejection_percentile}"
            )
        self.som = som
        if backend is not None and hasattr(som, "set_backend"):
            som.set_backend(backend)
        self.rejection_percentile = rejection_percentile
        self.rejection_margin = float(rejection_margin)
        self.labelling: Optional[LabelledMap] = None
        self.rejection_threshold: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 50,
        shuffle: bool = True,
        seed: SeedLike = None,
        record_history: bool = False,
    ) -> "SomClassifier":
        """Train the map, label its neurons and calibrate rejection.

        Parameters
        ----------
        X, y:
            Binary training signatures and their integer identity labels.
        epochs:
            Training iterations (full passes), the independent variable of
            Table I.
        shuffle, seed:
            Presentation-order control forwarded to the SOM.
        record_history:
            Record per-epoch quantisation error on the underlying map.
        """
        X = validate_binary_matrix(X, self.som.n_bits)
        y = np.asarray(y)
        if y.shape[0] != X.shape[0]:
            raise DataError(
                f"got {X.shape[0]} signatures but {y.shape[0]} labels"
            )
        self.som.fit(
            X, epochs, shuffle=shuffle, seed=seed, record_history=record_history
        )
        self.labelling = NodeLabeller().label(self.som, X, y)
        if self.rejection_percentile is not None:
            self.rejection_threshold = calibrate_rejection_threshold(
                self.som,
                X,
                percentile=self.rejection_percentile,
                margin=self.rejection_margin,
            )
        return self

    def label_nodes(self, X: np.ndarray, y: np.ndarray) -> LabelledMap:
        """(Re-)label the neurons without retraining the map.

        Used by the FPGA workflow, where training may have happened on the
        hardware model and only the labelling is (re)run in software.
        """
        self.labelling = NodeLabeller().label(self.som, X, y)
        return self.labelling

    def _require_fitted(self) -> LabelledMap:
        if self.labelling is None:
            raise NotFittedError(
                "this classifier has not been fitted; call fit() or label_nodes() first"
            )
        return self.labelling

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_one(self, x: np.ndarray) -> PredictionResult:
        """Classify a single signature, returning full detail."""
        labelling = self._require_fitted()
        distances = self.som.distances(x)
        neuron = int(np.argmin(distances))
        distance = float(distances[neuron])
        rejected = (
            self.rejection_threshold is not None and distance > self.rejection_threshold
        )
        node_label = labelling.label_of(neuron)
        if rejected or node_label is None:
            label = UNKNOWN_LABEL
            rejected = True
        else:
            label = int(node_label)
        return PredictionResult(
            label=label, neuron=neuron, distance=distance, rejected=rejected
        )

    def predict_batch(self, X: np.ndarray, *, validate: bool = True) -> BatchPrediction:
        """Classify every row of ``X`` in one vectorised pass.

        A single ``distance_matrix`` call (one distance-backend kernel
        invocation for the bSOM) scores the whole batch against every
        neuron at once; the winner, rejection and label lookups are then
        pure array operations.  Semantically identical to calling
        :meth:`predict_one` per row -- the regression tests assert exact
        agreement, including rejection and unlabelled-winner cases.

        ``validate=False`` skips the zeros-and-ones scan of ``X`` for
        trusted internal callers (the serve shard validates each signature
        once at ``submit`` time); shape and width are still checked.
        """
        self._require_fitted()
        X = validate_binary_matrix(X, self.som.n_bits, validate=validate)
        # X is validated (or trusted) here, so the map may skip re-scanning.
        distances = self.som.distance_matrix(X, validate=False)
        return self._predict_from_distances(distances)

    def predict_batch_packed(self, input_words: np.ndarray) -> BatchPrediction:
        """Classify signatures already packed into ``uint64`` words.

        The zero-copy serving path: the service packs each signature once
        (deriving both the cache key and these words), the shard stacks the
        word rows, and the bSOM scores them straight against its cached
        packed bit-planes -- no per-request re-packing or re-validation.
        Maps without a packed query path (the cSOM) transparently unpack
        and fall back to :meth:`predict_batch`.
        """
        self._require_fitted()
        input_words = np.atleast_2d(np.asarray(input_words, dtype=np.uint64))
        packed_query = getattr(self.som, "distance_matrix_packed", None)
        if packed_query is None:
            return self.predict_batch(
                unpack_words_to_bits(input_words, self.som.n_bits), validate=False
            )
        return self._predict_from_distances(packed_query(input_words))

    def _predict_from_distances(self, distances: np.ndarray) -> BatchPrediction:
        """Winner/rejection/label lookups shared by the batch entry points."""
        labelling = self._require_fitted()
        neurons = np.argmin(distances, axis=1).astype(np.int64)
        best = distances[np.arange(distances.shape[0]), neurons].astype(np.float64)
        labels = labelling.labels_for(neurons)
        rejected = labels == LabelledMap.UNLABELLED
        if self.rejection_threshold is not None:
            rejected |= best > self.rejection_threshold
        labels = np.where(rejected, UNKNOWN_LABEL, labels).astype(np.int64)
        confidences = labelling.confidences_for(neurons)
        confidences = np.where(rejected, 0.0, confidences)
        return BatchPrediction(
            labels=labels,
            neurons=neurons,
            distances=best,
            rejected=rejected,
            confidences=confidences,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels for every row of ``X`` (vectorised)."""
        return self.predict_batch(X).labels

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Recognition accuracy on a labelled test set (the paper's metric)."""
        y = np.asarray(y)
        predictions = self.predict(X)
        if predictions.shape != y.shape:
            raise DataError(
                f"got {predictions.shape[0]} predictions but {y.shape[0]} labels"
            )
        return float(np.mean(predictions == y))
