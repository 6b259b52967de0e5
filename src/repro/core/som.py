"""The abstract Self-Organising Map interface shared by bSOM and cSOM.

Both the tri-state bSOM and the conventional Kohonen SOM expose the same
training and query surface so that the classifier, the node labeller, the
evaluation harness and the FPGA model can treat them interchangeably:

* ``fit(X, epochs)`` -- train on binary data for a number of epochs
  (the paper's "iterations" in Table I are full passes over the training
  set),
* ``partial_fit(x, iteration, total_iterations)`` -- present a single
  pattern, or a block of them in order (used by the on-line extension and
  by the hardware model),
* ``distances(x)`` -- the dissimilarity of every neuron to ``x``,
* ``winner(x)`` -- the index of the best-matching unit.

Both training calls validate their input once and hand it to one hook,
``_train_pass(X, order, iteration, total_iterations)``.  It presents the
rows ``X[order]`` one at a time, updating the map after each, advances the
weights version by one per pattern and returns the winners.  ``fit`` calls
it once per epoch with that epoch's presentation order, ``partial_fit``
with one pass over its row or block.  The bSOM runs a pass on packed
bit-planes; the cSOM loops its per-pattern Kohonen step.

A training set is scanned once, by the entry point the caller used
(``fit``, ``SomClassifier.fit``, ``NodeLabeller.label``, ``api.train``):
the checked ``int8`` array goes on through private paths (``_fit_checked``,
``_winners``, ``_quantisation_error``) that score it with
``distance_matrix(X, validate=False)``.

:class:`TrainingHistory` records per-epoch summary statistics so examples
and the EXPERIMENTS write-up can show how quickly each map converges.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro._rng import SeedLike, as_generator
from repro.errors import ConfigurationError, DataError, DimensionMismatchError


@dataclass
class TrainingHistory:
    """Per-epoch training statistics collected by :meth:`SelfOrganisingMap.fit`.

    Attributes
    ----------
    quantisation_errors:
        Mean best-matching distance over the training set after each epoch.
    neighbourhood_radii:
        The neighbourhood radius in force during each epoch.
    epochs:
        Number of completed epochs.
    """

    quantisation_errors: list[float] = field(default_factory=list)
    neighbourhood_radii: list[int] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.quantisation_errors)

    def record(self, quantisation_error: float, radius: int) -> None:
        """Append one epoch's statistics."""
        self.quantisation_errors.append(float(quantisation_error))
        self.neighbourhood_radii.append(int(radius))


def validate_binary_matrix(
    X: np.ndarray, n_bits: int | None = None, *, validate: bool = True
) -> np.ndarray:
    """Validate a 2-D binary training matrix and return it as ``int8``
    (the array itself, or a view of it, when it is ``int8`` already).

    Parameters
    ----------
    X:
        ``(n_samples, n_bits)`` array of zeros and ones.
    n_bits:
        When given, the expected number of columns.
    validate:
        When ``False``, skip the O(n log n) zeros-and-ones value check
        (``np.unique``/``np.isin``) and only normalise shape and dtype.
        Trusted internal callers -- ``predict_batch`` re-scoring data it
        already validated, the serve shard scoring signatures validated at
        ``submit`` time -- use this fast path; API boundaries keep the
        default.
    """
    X = np.asarray(X)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise DataError(f"training data must be a 2-D matrix, got shape {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise DataError(f"training data must be non-empty, got shape {X.shape}")
    if validate and not np.all(np.isin(np.unique(X), (0, 1))):
        raise DataError("training data must contain only zeros and ones")
    if n_bits is not None and X.shape[1] != n_bits:
        raise DimensionMismatchError(n_bits, X.shape[1], "training data")
    return X.astype(np.int8, copy=False)


def _check_epochs(epochs: int) -> None:
    if epochs <= 0:
        raise ConfigurationError(f"epochs must be positive, got {epochs}")


class SelfOrganisingMap(ABC):
    """Common interface of the bSOM and the cSOM baseline."""

    def __init__(self, n_neurons: int, n_bits: int):
        if n_neurons <= 0:
            raise ConfigurationError(f"n_neurons must be positive, got {n_neurons}")
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive, got {n_bits}")
        self.n_neurons = int(n_neurons)
        self.n_bits = int(n_bits)
        self.history = TrainingHistory()
        self._trained_epochs = 0
        self._weights_version = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @abstractmethod
    def distances(self, x: np.ndarray) -> np.ndarray:
        """Dissimilarity of every neuron to the binary input ``x``."""

    @abstractmethod
    def distance_matrix(self, X: np.ndarray, *, validate: bool = True) -> np.ndarray:
        """``(n_samples, n_neurons)`` dissimilarities for a whole dataset.

        ``validate=False`` skips the per-call zeros-and-ones scan for
        trusted callers that validated ``X`` at the API boundary already.
        """

    def winner(self, x: np.ndarray) -> int:
        """Index of the best-matching unit for ``x`` (ties -> lowest index).

        The lowest-index tie-break matches the FPGA comparator tree, which
        keeps the earlier neuron when two Hamming distances are equal.
        """
        return int(np.argmin(self.distances(x)))

    def winners(self, X: np.ndarray) -> np.ndarray:
        """Best-matching unit for every row of ``X``."""
        return self._winners(validate_binary_matrix(X, self.n_bits))

    def _winners(self, X: np.ndarray) -> np.ndarray:
        """:meth:`winners` of an ``X`` that :func:`validate_binary_matrix`
        returned."""
        distances = self.distance_matrix(X, validate=False)
        return np.argmin(distances, axis=1).astype(np.int64)

    def quantisation_error(self, X: np.ndarray) -> float:
        """Mean distance from each sample to its best-matching unit."""
        return self._quantisation_error(validate_binary_matrix(X, self.n_bits))

    def _quantisation_error(self, X: np.ndarray) -> float:
        """:meth:`quantisation_error` of an ``X`` that
        :func:`validate_binary_matrix` returned."""
        return float(self.distance_matrix(X, validate=False).min(axis=1).mean())

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _train_pass(
        self, X: np.ndarray, order: np.ndarray, iteration: int, total_iterations: int
    ) -> np.ndarray:
        """Present the validated ``int8`` rows ``X[order]`` one at a time
        during ``iteration``; returns each presentation's winner."""

    def partial_fit(
        self, x: np.ndarray, iteration: int, total_iterations: int
    ) -> int | np.ndarray:
        """Present one pattern, or a ``(k, n_bits)`` block in order in one
        pass (as ``k`` one-pattern calls would); returns the winning neuron
        index, or the ``k`` winners."""
        x = np.asarray(x)
        X = validate_binary_matrix(x, self.n_bits)
        winners = self._train_pass(X, np.arange(X.shape[0]), iteration, total_iterations)
        return winners if x.ndim == 2 else int(winners[0])

    def fit(
        self,
        X: np.ndarray,
        epochs: int,
        *,
        shuffle: bool = True,
        seed: SeedLike = None,
        record_history: bool = True,
    ) -> "SelfOrganisingMap":
        """Train on ``X`` for ``epochs`` full passes.

        Table I of the paper reports accuracy as a function of this epoch
        count ("iterations"), so the same word is used here: one iteration
        is one presentation of every training pattern.

        Parameters
        ----------
        X:
            ``(n_samples, n_bits)`` binary training matrix.
        epochs:
            Number of full passes over ``X``.
        shuffle:
            Whether to re-shuffle the presentation order each epoch (the
            usual SOM practice; disable for strictly deterministic hardware
            comparison runs).
        seed:
            Seed or generator for the shuffle order.
        record_history:
            Record per-epoch quantisation error (costs one extra pass over
            the data per epoch; disable in tight benchmark loops).
        """
        _check_epochs(epochs)
        X = validate_binary_matrix(X, self.n_bits)
        return self._fit_checked(
            X, epochs, shuffle=shuffle, seed=seed, record_history=record_history
        )

    def _fit_checked(
        self,
        X: np.ndarray,
        epochs: int,
        *,
        shuffle: bool,
        seed: SeedLike,
        record_history: bool,
    ) -> "SelfOrganisingMap":
        """:meth:`fit` on an ``X`` that :func:`validate_binary_matrix`
        returned: the path of a caller that has scanned ``X`` already."""
        _check_epochs(epochs)
        rng = as_generator(seed)
        n_samples = X.shape[0]
        for epoch in range(epochs):
            order = rng.permutation(n_samples) if shuffle else np.arange(n_samples)
            self._train_pass(X, order, epoch, epochs)
            self._trained_epochs += 1
            if record_history:
                radius = self._current_radius(epoch, epochs)
                self.history.record(self._quantisation_error(X), radius)
        return self

    @abstractmethod
    def _current_radius(self, iteration: int, total_iterations: int) -> int:
        """Neighbourhood radius in force during ``iteration``."""

    @property
    def trained_epochs(self) -> int:
        """Total number of epochs this map has been trained for."""
        return self._trained_epochs

    # ------------------------------------------------------------------ #
    # Weights versioning
    # ------------------------------------------------------------------ #
    @property
    def weights_version(self) -> int:
        """Monotonic counter bumped on every weight update.

        The bSOM caches its prepared operands (packed bit-planes) keyed on
        this counter, so the cache invalidates exactly when training or
        ``set_weights`` touches the weights and on nothing else.  Mutating the weight storage behind the map's back
        (rather than through ``set_weights``/``partial_fit``/``fit``)
        bypasses the counter and is unsupported.
        """
        return self._weights_version

    def _bump_weights_version(self, updates: int = 1) -> int:
        self._weights_version += int(updates)
        return self._weights_version

    def _restore_weights_version(self, version: int) -> None:
        """Reset the counter to a persisted value (snapshot/archive restore).

        Only the serialization layer should call this, immediately after
        ``set_weights`` -- the operand caches were invalidated by that call,
        so re-pinning the counter cannot resurrect stale operands.
        """
        self._weights_version = int(version)

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def _validate_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 1:
            raise DataError(f"input must be a one-dimensional vector, got shape {x.shape}")
        if x.shape[0] != self.n_bits:
            raise DimensionMismatchError(self.n_bits, x.shape[0])
        if not np.all(np.isin(np.unique(x), (0, 1))):
            raise DataError("input vector must contain only zeros and ones")
        return x.astype(np.int8)
