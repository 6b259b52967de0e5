"""On-line learning extension (the paper's conclusion / future work).

"A full implementation of an identification system would require on-line
training and automatic labelling.  The additional stages required ... are:
to use the novelty detection capability of the bSOM to identify
previously-unlabelled objects; to use positional tracking to follow such
objects for a period and to record the corresponding signatures; and to
update the bSOM through on-line training when sufficient new signatures are
available."

:class:`OnlineLearner` implements exactly that loop on top of a fitted
classifier:

1. every incoming signature is checked against the rejection threshold;
   novel signatures are buffered per track,
2. once a track has accumulated ``min_signatures`` novel signatures, the
   map is updated on-line (a few extra training passes restricted to those
   signatures), a fresh label is allocated for the new object, and
3. the affected neurons are relabelled from the accumulated evidence so the
   object is recognised from then on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from repro.core.classifier import SomClassifier, UNKNOWN_LABEL
from repro.core.labelling import NodeLabeller
from repro.core.novelty import NoveltyDetector, calibrate_rejection_threshold
from repro.core.snapshot import DeltaSnapshot, ModelSnapshot
from repro.errors import ConfigurationError, NotFittedError

#: What the learner's periodic publisher receives: the first publication is
#: a full snapshot (the base); every later one is a row-level delta.
PublishedModel = Union[ModelSnapshot, DeltaSnapshot]


@dataclass
class OnlineLearnerConfig:
    """Configuration of the on-line learning loop.

    Attributes
    ----------
    min_signatures:
        How many novel signatures a track must accumulate before the map is
        updated (the paper's "when sufficient new signatures are
        available").
    online_epochs:
        Training passes run over the accumulated signatures when the update
        fires.
    rejection_percentile, rejection_margin:
        Parameters for calibrating the novelty threshold when the
        classifier does not already have one.
    publish_every:
        When set (and the learner has a ``publisher``), republish the
        model every N observed signatures: a full snapshot first (the
        base), then row-level :class:`~repro.core.snapshot.DeltaSnapshot`
        objects against the previously published version -- only the
        neuron rows the on-line updates actually touched are carried.
        ``None`` disables periodic publishing.
    """

    min_signatures: int = 20
    online_epochs: int = 3
    rejection_percentile: float = 99.0
    rejection_margin: float = 1.2
    publish_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_signatures <= 0:
            raise ConfigurationError(
                f"min_signatures must be positive, got {self.min_signatures}"
            )
        if self.online_epochs <= 0:
            raise ConfigurationError(
                f"online_epochs must be positive, got {self.online_epochs}"
            )
        if self.publish_every is not None and self.publish_every <= 0:
            raise ConfigurationError(
                f"publish_every must be positive or None, got {self.publish_every}"
            )


@dataclass(frozen=True)
class OnlineUpdateReport:
    """Record of one on-line map update."""

    track_id: int
    new_label: int
    signatures_used: int
    neurons_relabelled: int


class OnlineLearner:
    """Adds automatic labelling of new objects to a fitted classifier.

    Parameters
    ----------
    classifier:
        A fitted :class:`SomClassifier` over a bSOM (the on-line update uses
        the map's ``partial_fit``).
    train_signatures, train_labels:
        The original labelled training data, kept so that relabelling after
        an on-line update does not forget the known objects.
    config:
        Loop configuration.
    publisher:
        Optional callback invoked every ``config.publish_every``
        observations with the current model: a full
        :class:`~repro.core.snapshot.ModelSnapshot` on the first
        publication, then :class:`~repro.core.snapshot.DeltaSnapshot`
        objects against the previously published version.  Exceptions
        raised by the callback propagate to the caller of
        :meth:`observe` / :meth:`observe_many`.
    """

    def __init__(
        self,
        classifier: SomClassifier,
        train_signatures: np.ndarray,
        train_labels: np.ndarray,
        config: OnlineLearnerConfig | None = None,
        publisher: Optional[Callable[[PublishedModel], None]] = None,
    ):
        if classifier.labelling is None:
            raise NotFittedError("the classifier must be fitted before on-line learning")
        self.classifier = classifier
        self.config = config or OnlineLearnerConfig()
        self._X = np.asarray(train_signatures, dtype=np.uint8).copy()
        self._y = np.asarray(train_labels, dtype=np.int64).copy()
        threshold = classifier.rejection_threshold
        if threshold is None:
            threshold = calibrate_rejection_threshold(
                classifier.som,
                self._X,
                percentile=self.config.rejection_percentile,
                margin=self.config.rejection_margin,
            )
            classifier.rejection_threshold = threshold
        self.detector = NoveltyDetector(classifier.som, threshold)
        self._pending: dict[int, list[np.ndarray]] = defaultdict(list)
        self._next_label = int(self._y.max()) + 1 if self._y.size else 0
        self.updates: list[OnlineUpdateReport] = []
        self.publisher = publisher
        self._observed = 0
        self._published_at = 0
        self._published_base: Optional[ModelSnapshot] = None

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def observe(self, track_id: int, signature: np.ndarray) -> int:
        """Process one signature from one track.

        Returns the current identity decision for the signature: a known
        label, a newly created label (after an on-line update), or
        :data:`UNKNOWN_LABEL` while evidence is still being accumulated.
        """
        signature = np.asarray(signature, dtype=np.uint8)
        prediction = self.classifier.predict_one(signature)
        if prediction.label != UNKNOWN_LABEL and not self.detector.is_novel(signature):
            self._note_observations(1)
            return prediction.label

        # Novel: buffer the signature against its track.
        self._pending[track_id].append(signature.copy())
        label = UNKNOWN_LABEL
        if len(self._pending[track_id]) >= self.config.min_signatures:
            label = self._learn_track(track_id)
        self._note_observations(1)
        return label

    def observe_many(
        self, track_ids: np.ndarray, signatures: np.ndarray
    ) -> np.ndarray:
        """Process one micro-batch of signatures from many tracks at once.

        The whole batch is first screened in one vectorised pass
        (:meth:`~repro.core.SomClassifier.predict_batch` plus the novelty
        mask); confidently-known signatures are answered immediately, and
        only the novel remainder goes through the sequential
        :meth:`observe` path with its buffering and on-line updates.  When
        an update fires mid-batch, signatures screened earlier keep the
        answer of the pre-update map -- the same outcome as if they had
        been answered just before the update, which is exactly the
        ordering a micro-batched serving front-end produces.
        """
        signatures = np.asarray(signatures, dtype=np.uint8)
        if signatures.ndim == 1:
            signatures = signatures[np.newaxis, :]
        track_ids = np.asarray(track_ids)
        if track_ids.ndim != 1 or track_ids.shape[0] != signatures.shape[0]:
            raise ConfigurationError(
                f"got {signatures.shape[0]} signatures but track_ids of shape "
                f"{track_ids.shape}"
            )
        prediction = self.classifier.predict_batch(signatures)
        # The learner keeps detector.threshold synchronised with the
        # classifier's rejection threshold, so predict_batch has already
        # folded the novelty decision into the rejection mask: the slow
        # path is exactly the UNKNOWN_LABEL rows.
        labels = prediction.labels.copy()
        slow = np.flatnonzero(labels == UNKNOWN_LABEL)
        for index in slow:
            labels[index] = self.observe(int(track_ids[index]), signatures[index])
        # observe() already counted the slow rows; credit the fast path too
        # so publish_every measures total observed signatures.
        self._note_observations(int(labels.size - slow.size))
        return labels

    def _learn_track(self, track_id: int) -> int:
        """Fold a track's accumulated novel signatures into the map."""
        signatures = np.vstack(self._pending.pop(track_id))
        new_label = self._next_label
        self._next_label += 1

        # On-line training: a few passes over just the new signatures, one
        # partial_fit block per epoch.
        som = self.classifier.som
        for epoch in range(self.config.online_epochs):
            som.partial_fit(signatures, epoch, self.config.online_epochs)

        # Extend the labelled pool and relabel every neuron from scratch so
        # known objects keep their labels and the new object gets its own.
        new_labels = np.full(signatures.shape[0], new_label, dtype=np.int64)
        self._X = np.vstack([self._X, signatures])
        self._y = np.concatenate([self._y, new_labels])
        labelling = NodeLabeller().label(som, self._X, self._y)
        previous = self.classifier.labelling
        self.classifier.labelling = labelling
        relabelled = (
            int(np.count_nonzero(labelling.node_labels != previous.node_labels))
            if previous is not None
            else som.n_neurons
        )

        # Recalibrate the rejection threshold over the extended pool.
        threshold = calibrate_rejection_threshold(
            som,
            self._X,
            percentile=self.config.rejection_percentile,
            margin=self.config.rejection_margin,
        )
        self.classifier.rejection_threshold = threshold
        self.detector = NoveltyDetector(som, threshold)

        self.updates.append(
            OnlineUpdateReport(
                track_id=track_id,
                new_label=new_label,
                signatures_used=int(signatures.shape[0]),
                neurons_relabelled=relabelled,
            )
        )
        return new_label

    # ------------------------------------------------------------------ #
    # Publishing to a serving registry
    # ------------------------------------------------------------------ #
    def snapshot(self, *, metadata: Optional[dict] = None) -> ModelSnapshot:
        """Freeze the learner's current classifier as a :class:`ModelSnapshot`.

        This closes the loop the paper's conclusion sketches: once the
        on-line update has folded a new object into the map, the learner
        emits an immutable snapshot that a serving deployment hot-swaps in
        (:meth:`repro.serve.StreamingInferenceService.swap_model` /
        :func:`repro.api.swap`) without dropping queued requests.  The
        snapshot records the on-line update history in its metadata.
        """
        annotations = {
            "online_updates": str(len(self.updates)),
            "known_labels": str(int(self.known_labels.size)),
        }
        annotations.update(metadata or {})
        return ModelSnapshot.of(self.classifier, metadata=annotations)

    def snapshot_delta(self, base: ModelSnapshot) -> DeltaSnapshot:
        """Diff the current model against a previously published ``base``.

        Only the neuron rows the on-line updates actually touched are
        carried; :meth:`DeltaSnapshot.apply` reconstructs the full
        snapshot bit-exactly (checksum-verified).  Both endpoints must
        carry a ``weights_version`` -- format-v2 snapshots always do.
        """
        return DeltaSnapshot.between(base, self.snapshot())

    def _note_observations(self, count: int) -> None:
        """Count observed signatures and publish when the period elapses."""
        if count <= 0:
            return
        self._observed += count
        period = self.config.publish_every
        if self.publisher is None or period is None:
            return
        while self._observed - self._published_at >= period:
            self._publish()

    def _publish(self) -> None:
        current = self.snapshot(
            metadata={"published_at_observation": str(self._observed)}
        )
        if self._published_base is None:
            self.publisher(current)
        else:
            self.publisher(DeltaSnapshot.between(self._published_base, current))
        self._published_base = current
        self._published_at = self._observed

    @property
    def observed(self) -> int:
        """Total signatures seen through :meth:`observe` / :meth:`observe_many`."""
        return self._observed

    @property
    def published_base(self) -> Optional[ModelSnapshot]:
        """The most recently published snapshot (delta base), if any."""
        return self._published_base

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def known_labels(self) -> np.ndarray:
        """All labels the classifier can currently produce."""
        return np.unique(self._y)

    def pending_counts(self) -> dict[int, int]:
        """Novel signatures buffered per track, awaiting an update."""
        return {track: len(rows) for track, rows in self._pending.items()}
