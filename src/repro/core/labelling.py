"""Win-frequency node labelling (section III-B of the paper).

After the SOM has been trained (unsupervised), the labelled training set is
replayed through the map once more.  For every neuron a *win frequency*
table is accumulated: how many times each object label was associated with
that neuron in a winner-takes-all competition.  Each neuron is then assigned
the label it won most often; neurons that never win any training pattern
stay unlabelled (the paper observes such unused neurons for large maps).

The labeller is deliberately independent of the SOM class -- it only needs a
``winners(X)`` function -- so the same code labels the software bSOM, the
cSOM baseline and the cycle-accurate FPGA model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.som import SelfOrganisingMap, validate_binary_matrix
from repro.errors import ConfigurationError, DataError, NotFittedError


@dataclass
class LabelledMap:
    """The result of node labelling.

    Attributes
    ----------
    node_labels:
        Array of length ``n_neurons``; entry ``j`` is the label assigned to
        neuron ``j`` or ``-1`` when the neuron never won a training pattern.
    win_frequencies:
        ``(n_neurons, n_labels)`` count matrix: how often each label was
        associated with each neuron during labelling.
    labels:
        Sorted array of the distinct training labels, giving the meaning of
        the columns of :attr:`win_frequencies`.
    """

    node_labels: np.ndarray
    win_frequencies: np.ndarray
    labels: np.ndarray

    UNLABELLED: int = field(default=-1, init=False, repr=False)

    # Lazily computed per-neuron confidence vector; win_frequencies is
    # fixed once labelling has run, so computing it once per map (instead
    # of once per predict_batch call) is safe.
    _confidence_cache: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_neurons(self) -> int:
        return int(self.node_labels.size)

    @property
    def unused_neurons(self) -> np.ndarray:
        """Indices of neurons that never won a training pattern."""
        return np.flatnonzero(self.node_labels == self.UNLABELLED)

    @property
    def used_neuron_count(self) -> int:
        """Number of neurons that won at least one training pattern."""
        return int(np.count_nonzero(self.node_labels != self.UNLABELLED))

    def label_of(self, neuron: int) -> Optional[int]:
        """Label of ``neuron``, or ``None`` if it is unlabelled."""
        if not 0 <= neuron < self.n_neurons:
            raise ConfigurationError(
                f"neuron index {neuron} out of range for {self.n_neurons} neurons"
            )
        value = int(self.node_labels[neuron])
        return None if value == self.UNLABELLED else value

    def _validate_winners(self, winners: np.ndarray) -> np.ndarray:
        winners = np.asarray(winners)
        if winners.ndim != 1:
            raise DataError(
                f"winners must be a one-dimensional index vector, got shape {winners.shape}"
            )
        if not np.issubdtype(winners.dtype, np.integer):
            raise DataError("winners must be integer neuron indices")
        if winners.size and (winners.min() < 0 or winners.max() >= self.n_neurons):
            raise ConfigurationError(
                f"winner indices must lie in [0, {self.n_neurons}), got range "
                f"[{winners.min()}, {winners.max()}]"
            )
        return winners.astype(np.int64)

    def labels_for(self, winners: np.ndarray) -> np.ndarray:
        """Node labels for a whole vector of winning-neuron indices.

        The vectorised counterpart of :meth:`label_of`: entry ``i`` is the
        label of neuron ``winners[i]``, or :attr:`UNLABELLED` when that
        neuron never won a training pattern.  This is the lookup the batch
        classification path uses, one ``take`` instead of a Python loop.
        """
        winners = self._validate_winners(winners)
        return self.node_labels[winners].astype(np.int64)

    def confidences_for(self, winners: np.ndarray) -> np.ndarray:
        """Win-frequency confidence of each winning neuron's label.

        For neuron ``j`` the confidence is the fraction of labelling-time
        wins that agree with its assigned label (its per-neuron purity);
        unlabelled neurons score 0.  The serving layer reports this next to
        every batched prediction so downstream consumers can threshold on
        evidence quality without re-deriving it from the win table.
        """
        winners = self._validate_winners(winners)
        if self._confidence_cache is None:
            totals = self.win_frequencies.sum(axis=1).astype(np.float64)
            best = self.win_frequencies.max(axis=1).astype(np.float64)
            self._confidence_cache = np.divide(
                best, totals, out=np.zeros_like(best), where=totals > 0
            )
        return self._confidence_cache[winners]

    def purity(self) -> float:
        """Fraction of labelling-time wins that agree with the node label.

        A purity of 1.0 means every neuron only ever won patterns of a
        single class; lower values indicate neurons shared between classes,
        which is the main source of identification errors.
        """
        total = self.win_frequencies.sum()
        if total == 0:
            return 0.0
        best = self.win_frequencies.max(axis=1).sum()
        return float(best) / float(total)


class NodeLabeller:
    """Assigns object labels to SOM neurons by win frequency."""

    def __init__(self) -> None:
        self._result: Optional[LabelledMap] = None

    def label(
        self,
        som: SelfOrganisingMap,
        X: np.ndarray,
        y: np.ndarray,
    ) -> LabelledMap:
        """Label every neuron of ``som`` from the labelled set ``(X, y)``.

        Parameters
        ----------
        som:
            A trained map exposing ``winners`` and ``n_neurons``.
        X:
            ``(n_samples, n_bits)`` binary training signatures.
        y:
            Integer labels, one per row of ``X`` (the paper uses the nine
            manually assigned person identities).
        """
        return self._label_checked(som, validate_binary_matrix(X, som.n_bits), y)

    def _label_checked(
        self, som: SelfOrganisingMap, X: np.ndarray, y: np.ndarray
    ) -> LabelledMap:
        """:meth:`label` on an ``X`` that
        :func:`~repro.core.som.validate_binary_matrix` returned."""
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DataError(
                f"labels must be a vector with one entry per sample; got shape "
                f"{y.shape} for {X.shape[0]} samples"
            )
        if not np.issubdtype(y.dtype, np.integer):
            raise DataError("labels must be integers")

        labels, columns = np.unique(y, return_inverse=True)
        win_frequencies = np.zeros((som.n_neurons, labels.size), dtype=np.int64)
        # A map scores the checked X without scanning it again; another
        # source of winners (the FPGA model) checks its own input.
        if isinstance(som, SelfOrganisingMap):
            winners = som._winners(X)
        else:
            winners = som.winners(X)
        np.add.at(win_frequencies, (winners, columns), 1)

        node_labels = np.full(som.n_neurons, LabelledMap.UNLABELLED, dtype=np.int64)
        used = win_frequencies.sum(axis=1) > 0
        best_columns = np.argmax(win_frequencies, axis=1)
        node_labels[used] = labels[best_columns[used]]

        self._result = LabelledMap(
            node_labels=node_labels,
            win_frequencies=win_frequencies,
            labels=labels,
        )
        return self._result

    @property
    def result(self) -> LabelledMap:
        """The most recent labelling (raises if :meth:`label` was never called)."""
        if self._result is None:
            raise NotFittedError("NodeLabeller.label() has not been called yet")
        return self._result
