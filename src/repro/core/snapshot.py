"""The immutable :class:`ModelSnapshot` -- the unit that ships to serving.

The paper's deployment story is train-offline / serve-from-BlockRAM: what
moves from the training PC to the FPGA is a frozen bundle of weights, node
labels and the rejection threshold.  :class:`ModelSnapshot` is the software
equivalent and the *single currency* of the model lifecycle:

* training produces one (:func:`repro.api.train` + :func:`repro.api.snapshot`),
* persistence writes and reads one (:func:`repro.core.serialization.save_model`
  and :func:`~repro.core.serialization.load_snapshot` -- the ``.npz`` format
  v2 is just a snapshot on disk),
* serving consumes one (:meth:`repro.serve.ModelRegistry.register` /
  :meth:`~repro.serve.ModelRegistry.swap` accept snapshots directly), and
* the on-line learner emits one after each map update
  (:meth:`repro.pipeline.OnlineLearner.snapshot`) so a freshly learned
  object can be hot-swapped into the registry without dropping requests.

A snapshot is deliberately *dead data*: plain arrays and config mappings,
no live SOM, no threads, no operand caches.  Arrays are defensively copied
and marked read-only, so a snapshot taken before an on-line update is not
silently mutated by it -- reflashing semantics, not shared-pointer
semantics.  :meth:`ModelSnapshot.to_model` / :meth:`~ModelSnapshot.to_classifier`
materialise a fresh, independent live model on demand.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import DataError, SnapshotCorruptionError

#: Current on-disk format version written by the v2 codec layer.
SNAPSHOT_FORMAT_VERSION = 2


def _frozen_array(values: np.ndarray) -> np.ndarray:
    frozen = np.array(values, copy=True)
    frozen.setflags(write=False)
    return frozen


@dataclass(frozen=True)
class SnapshotLabelling:
    """Frozen copy of a :class:`~repro.core.labelling.LabelledMap`'s arrays."""

    node_labels: np.ndarray
    win_frequencies: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_labels", _frozen_array(self.node_labels))
        object.__setattr__(
            self, "win_frequencies", _frozen_array(self.win_frequencies)
        )
        object.__setattr__(self, "labels", _frozen_array(self.labels))


@dataclass(frozen=True)
class ModelSnapshot:
    """Immutable, self-describing state of a (possibly fitted) model.

    Attributes
    ----------
    kind:
        Registered SOM codec kind (``"BinarySom"`` or ``"KohonenSom"``; new
        map types join by registering a codec with
        :func:`repro.core.serialization.register_som_codec`).
    n_neurons, n_bits:
        Map shape.
    weights:
        Read-only copy of the weight matrix (``int8`` tri-state for the
        bSOM, ``float64`` for the cSOM).
    topology, schedule:
        Codec-encoded topology / neighbourhood-schedule configuration
        (``{"kind": ..., ...}`` mappings).
    config:
        SOM-kind-specific extra configuration (the bSOM's update rule, the
        cSOM's learning-rate schedule and neighbour decay).
    weights_version:
        The map's monotonic weights-version counter at snapshot time;
        restored on :meth:`to_model` so operand-cache bookkeeping and
        telemetry survive a save/load round-trip.  ``None`` for snapshots
        read from format-v1 archives, which did not record it.
    classifier:
        Whether the snapshot carries classifier state (rejection config and
        possibly a labelling) on top of the bare map.
    rejection_percentile, rejection_margin, rejection_threshold:
        The classifier's rejection configuration (meaningful only when
        :attr:`classifier` is true).
    labelling:
        Frozen node-labelling arrays, or ``None`` for an unfitted
        classifier or a bare map.
    format_version:
        On-disk format version this snapshot was read from (or will be
        written as): 2 for snapshots taken in-process, 1 for legacy
        archives.
    metadata:
        Free-form string-keyed annotations carried through save/load
        (provenance, training-data notes, ...).
    """

    kind: str
    n_neurons: int
    n_bits: int
    weights: np.ndarray
    topology: Mapping[str, Any]
    schedule: Mapping[str, Any]
    config: Mapping[str, Any] = field(default_factory=dict)
    weights_version: Optional[int] = None
    classifier: bool = False
    rejection_percentile: Optional[float] = None
    rejection_margin: float = 1.0
    rejection_threshold: Optional[float] = None
    labelling: Optional[SnapshotLabelling] = None
    format_version: int = SNAPSHOT_FORMAT_VERSION
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        object.__setattr__(self, "topology", dict(self.topology))
        object.__setattr__(self, "schedule", dict(self.schedule))
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "metadata", dict(self.metadata))
        if self.weights.shape != (self.n_neurons, self.n_bits):
            raise DataError(
                f"snapshot weights of shape {self.weights.shape} do not match "
                f"{self.n_neurons} neurons of {self.n_bits} bits"
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether the snapshot can serve (classifier with a labelling)."""
        return self.classifier and self.labelling is not None

    # ------------------------------------------------------------------ #
    # Conversions (delegated to the codec layer in core.serialization)
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, model, *, metadata: Optional[Mapping[str, Any]] = None) -> "ModelSnapshot":
        """Snapshot a live model (map or classifier); snapshots pass through."""
        from repro.core.serialization import snapshot_model

        return snapshot_model(model, metadata=metadata)

    def to_model(self):
        """Materialise a fresh live model (classifier if one was captured)."""
        from repro.core.serialization import build_model

        return build_model(self)

    def to_classifier(self):
        """Materialise a fresh :class:`~repro.core.classifier.SomClassifier`.

        Raises :class:`~repro.errors.DataError` when the snapshot holds a
        bare map -- serving requires the classifier state.
        """
        from repro.core.classifier import SomClassifier
        from repro.core.serialization import build_model

        if not self.classifier:
            raise DataError(
                f"snapshot holds a bare {self.kind}, not a classifier; snapshot "
                "the fitted SomClassifier, not just its map"
            )
        model = build_model(self)
        assert isinstance(model, SomClassifier)
        return model

    def save(self, path) -> "Path":  # noqa: F821 - forward ref for docs
        """Write this snapshot to ``path`` as a format-v2 ``.npz`` archive."""
        from repro.core.serialization import save_model

        return save_model(self, path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = "fitted" if self.is_fitted else ("classifier" if self.classifier else "map")
        return (
            f"ModelSnapshot({self.kind}, {self.n_neurons}x{self.n_bits}, {fitted}, "
            f"weights_version={self.weights_version}, "
            f"v{self.format_version})"
        )


def weights_crc32(weights: np.ndarray) -> int:
    """CRC32 over a weight matrix's raw bytes (row-major, contiguous)."""
    return zlib.crc32(np.ascontiguousarray(weights).tobytes()) & 0xFFFFFFFF


@dataclass(frozen=True)
class DeltaSnapshot:
    """A model update expressed as touched neuron rows against a base.

    The on-line learner updates only the rows of the winning neuron and its
    neighbours per observation, so between two nearby weights-versions most
    of the matrix is unchanged.  A delta ships just the changed rows plus
    the full (small) labelling and rejection state, and records a CRC32 of
    the *complete* materialised weight matrix: :meth:`apply` patches the
    base, re-derives the checksum and refuses
    (:class:`~repro.errors.SnapshotCorruptionError`) if they disagree, so a
    delta applied to the wrong base, or corrupted in transit, never becomes
    a servable model.

    Deltas are transport, not currency: :meth:`apply` produces an ordinary
    :class:`ModelSnapshot`, which is what the registry and rollout machinery
    consume.
    """

    kind: str
    n_neurons: int
    n_bits: int
    base_weights_version: int
    weights_version: int
    row_indices: np.ndarray
    rows: np.ndarray
    full_weights_crc32: int
    topology: Mapping[str, Any]
    schedule: Mapping[str, Any]
    config: Mapping[str, Any] = field(default_factory=dict)
    classifier: bool = False
    rejection_percentile: Optional[float] = None
    rejection_margin: float = 1.0
    rejection_threshold: Optional[float] = None
    labelling: Optional[SnapshotLabelling] = None
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row_indices", _frozen_array(np.asarray(self.row_indices, dtype=np.int64))
        )
        object.__setattr__(self, "rows", _frozen_array(self.rows))
        object.__setattr__(self, "topology", dict(self.topology))
        object.__setattr__(self, "schedule", dict(self.schedule))
        object.__setattr__(self, "config", dict(self.config))
        object.__setattr__(self, "metadata", dict(self.metadata))
        if self.rows.shape != (len(self.row_indices), self.n_bits):
            raise DataError(
                f"delta rows of shape {self.rows.shape} do not match "
                f"{len(self.row_indices)} touched rows of {self.n_bits} bits"
            )

    @property
    def n_rows(self) -> int:
        """Number of touched neuron rows carried by this delta."""
        return int(len(self.row_indices))

    @classmethod
    def between(
        cls,
        base: ModelSnapshot,
        current: ModelSnapshot,
        *,
        metadata: Optional[Mapping[str, Any]] = None,
    ) -> "DeltaSnapshot":
        """Diff two snapshots of the same map into a row-level delta.

        ``base`` must be an earlier snapshot of the *same* model (same kind
        and shape, with a recorded weights-version); ``current`` supplies
        the rows, labelling and rejection state the delta carries.
        """
        if base.kind != current.kind:
            raise DataError(
                f"cannot delta a {current.kind} against a {base.kind} base"
            )
        if (base.n_neurons, base.n_bits) != (current.n_neurons, current.n_bits):
            raise DataError(
                f"cannot delta a {current.n_neurons}x{current.n_bits} map "
                f"against a {base.n_neurons}x{base.n_bits} base"
            )
        if base.weights_version is None or current.weights_version is None:
            raise DataError(
                "delta snapshots need both endpoints to carry a "
                "weights_version (format-v2 snapshots)"
            )
        changed = np.flatnonzero(
            np.any(np.asarray(base.weights) != np.asarray(current.weights), axis=1)
        )
        return cls(
            kind=current.kind,
            n_neurons=current.n_neurons,
            n_bits=current.n_bits,
            base_weights_version=int(base.weights_version),
            weights_version=int(current.weights_version),
            row_indices=changed,
            rows=np.asarray(current.weights)[changed],
            full_weights_crc32=weights_crc32(current.weights),
            topology=current.topology,
            schedule=current.schedule,
            config=current.config,
            classifier=current.classifier,
            rejection_percentile=current.rejection_percentile,
            rejection_margin=current.rejection_margin,
            rejection_threshold=current.rejection_threshold,
            labelling=current.labelling,
            metadata=metadata if metadata is not None else current.metadata,
        )

    def apply(self, base: ModelSnapshot) -> ModelSnapshot:
        """Materialise a full :class:`ModelSnapshot` by patching ``base``.

        Validates that ``base`` really is the snapshot this delta was taken
        against (kind, shape, weights-version), patches the touched rows
        into a copy of its weights, and verifies the recorded CRC32 of the
        complete matrix before handing the result back.  Any mismatch
        raises :class:`~repro.errors.SnapshotCorruptionError` -- a delta
        never silently produces a wrong model.
        """
        if base.kind != self.kind:
            raise DataError(
                f"delta for a {self.kind} cannot apply to a {base.kind} base"
            )
        if (base.n_neurons, base.n_bits) != (self.n_neurons, self.n_bits):
            raise DataError(
                f"delta for a {self.n_neurons}x{self.n_bits} map cannot apply "
                f"to a {base.n_neurons}x{base.n_bits} base"
            )
        if base.weights_version != self.base_weights_version:
            raise DataError(
                f"delta was taken against weights_version "
                f"{self.base_weights_version}, but the base snapshot is at "
                f"{base.weights_version}"
            )
        weights = np.array(base.weights, copy=True)
        if self.n_rows:
            weights[np.asarray(self.row_indices)] = np.asarray(self.rows)
        actual = weights_crc32(weights)
        if actual != self.full_weights_crc32:
            raise SnapshotCorruptionError(
                None,
                f"materialised weights CRC32 {actual:#010x} does not match "
                f"the recorded {self.full_weights_crc32:#010x} "
                f"(weights_version {self.weights_version})",
            )
        return ModelSnapshot(
            kind=self.kind,
            n_neurons=self.n_neurons,
            n_bits=self.n_bits,
            weights=weights,
            topology=self.topology,
            schedule=self.schedule,
            config=self.config,
            weights_version=self.weights_version,
            classifier=self.classifier,
            rejection_percentile=self.rejection_percentile,
            rejection_margin=self.rejection_margin,
            rejection_threshold=self.rejection_threshold,
            labelling=self.labelling,
            metadata=self.metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaSnapshot({self.kind}, {self.n_rows}/{self.n_neurons} rows, "
            f"v{self.base_weights_version}->v{self.weights_version})"
        )
