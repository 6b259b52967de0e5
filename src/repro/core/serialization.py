"""Saving and loading trained maps and classifiers (format v2, codec-based).

Models are stored as ``.npz`` archives with a JSON header describing the
model class and its configuration.  The format stores everything a deployed
identification system needs to resume: the weight matrix (tri-state or
real), the node labels, the win-frequency table, the rejection threshold,
and -- new in format v2 -- the map's weights-version counter, so a loaded
model serves exactly like the one that was saved.  This mirrors the paper's deployment story: the map is trained
off-line on a PC and the resulting weights/labels are what actually lives
in the FPGA's BlockRAM.

The module is organised around two ideas:

* :class:`~repro.core.snapshot.ModelSnapshot` is the single currency: a
  live model is first frozen into a snapshot (:func:`snapshot_model`), the
  snapshot is what goes to and comes from disk (:func:`load_snapshot`), and
  :func:`build_model` materialises a live model from one.
* Codec registries map model / topology / schedule *classes* to their
  encoded configuration and back (:func:`register_som_codec`,
  :func:`register_topology_codec`, :func:`register_schedule_codec`).  New
  map types, topologies or schedules join the format by registering a
  codec -- no ``isinstance`` chain to extend.

Format-v1 archives (written before the codec layer existed) remain
loadable; they simply come back with ``weights_version=None``.  Archives
and deltas written while maps had selectable distance kernels name one in
a ``backend`` header field; readers ignore it, as every map scores on the
one packed kernel.  Schedules without a registered codec are
collapsed to a constant-radius stepwise schedule, with an explicit
:class:`LossySerializationWarning` so the loss is never silent.
"""

from __future__ import annotations

import json
import os
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from repro.core.bsom import BinarySom, BsomUpdateRule
from repro.core.classifier import SomClassifier
from repro.core.csom import KohonenSom, LearningRateSchedule
from repro.core.labelling import LabelledMap
from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    DeltaSnapshot,
    ModelSnapshot,
    SnapshotLabelling,
)
from repro.core.som import SelfOrganisingMap
from repro.core.topology import (
    ConstantNeighbourhoodSchedule,
    Grid2DTopology,
    LinearTopology,
    RingTopology,
    StepwiseNeighbourhoodSchedule,
)
from repro.errors import DataError, SnapshotCorruptionError

PathLike = Union[str, Path]

#: Fault-injection site name fired by :func:`load_snapshot` when an armed
#: :class:`repro.serve.resilience.FaultInjector` is passed in.  Declared
#: here (and mirrored as ``repro.serve.resilience.SNAPSHOT_CORRUPT``) so the
#: core layer never imports the serve layer.
SNAPSHOT_CORRUPT_SITE = "snapshot_corrupt"


class LossySerializationWarning(UserWarning):
    """A model component could not round-trip exactly and was approximated.

    Emitted (never silently) when e.g. a custom neighbourhood schedule has
    no registered codec and is collapsed to a constant-radius stepwise
    schedule in the archive.
    """


# --------------------------------------------------------------------------- #
# Component codec registries (topologies and schedules)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ComponentCodec:
    """One class's encode/decode pair in a :class:`CodecRegistry`."""

    kind: str
    cls: type
    encode: Callable[[Any], dict]
    decode: Callable[[Mapping[str, Any]], Any]


class CodecRegistry:
    """Class-keyed codec lookup replacing ``isinstance`` dispatch chains."""

    def __init__(self, what: str):
        self.what = what
        self._by_class: dict[type, ComponentCodec] = {}
        self._by_kind: dict[str, ComponentCodec] = {}

    def register(self, codec: ComponentCodec) -> ComponentCodec:
        self._by_class[codec.cls] = codec
        self._by_kind[codec.kind] = codec
        return codec

    def codec_for(self, obj: Any) -> Optional[ComponentCodec]:
        """Codec registered for ``type(obj)`` (exact class match), if any."""
        return self._by_class.get(type(obj))

    def codec_for_kind(self, kind: str) -> Optional[ComponentCodec]:
        """Codec registered under ``kind``, if any."""
        return self._by_kind.get(kind)

    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_kind))

    def encode(self, obj: Any) -> dict:
        codec = self.codec_for(obj)
        if codec is None:
            raise DataError(
                f"cannot serialise {self.what} of type {type(obj).__name__}; "
                f"registered kinds: {', '.join(self.kinds())}"
            )
        config = dict(codec.encode(obj))
        config["kind"] = codec.kind
        return config

    def decode(self, config: Mapping[str, Any]) -> Any:
        kind = config.get("kind")
        codec = self._by_kind.get(kind)
        if codec is None:
            raise DataError(
                f"unknown {self.what} kind {kind!r} in saved model; "
                f"registered kinds: {', '.join(self.kinds())}"
            )
        return codec.decode(config)


TOPOLOGY_CODECS = CodecRegistry("topology")
SCHEDULE_CODECS = CodecRegistry("neighbourhood schedule")


def register_topology_codec(
    kind: str, cls: type, encode: Callable[[Any], dict], decode: Callable[[Mapping], Any]
) -> None:
    """Register a topology class with the archive format."""
    TOPOLOGY_CODECS.register(ComponentCodec(kind, cls, encode, decode))


def register_schedule_codec(
    kind: str, cls: type, encode: Callable[[Any], dict], decode: Callable[[Mapping], Any]
) -> None:
    """Register a neighbourhood-schedule class with the archive format."""
    SCHEDULE_CODECS.register(ComponentCodec(kind, cls, encode, decode))


register_topology_codec(
    "grid2d",
    Grid2DTopology,
    lambda topology: {"rows": topology.rows, "cols": topology.cols},
    lambda config: Grid2DTopology(config["rows"], config["cols"]),
)
register_topology_codec(
    "ring",
    RingTopology,
    lambda topology: {"n_neurons": topology.n_neurons},
    lambda config: RingTopology(config["n_neurons"]),
)
register_topology_codec(
    "linear",
    LinearTopology,
    lambda topology: {"n_neurons": topology.n_neurons},
    lambda config: LinearTopology(config["n_neurons"]),
)

register_schedule_codec(
    "stepwise",
    StepwiseNeighbourhoodSchedule,
    lambda schedule: {
        "max_radius": schedule.max_radius,
        "min_radius": schedule.min_radius,
    },
    lambda config: StepwiseNeighbourhoodSchedule(
        max_radius=config["max_radius"], min_radius=config["min_radius"]
    ),
)
register_schedule_codec(
    "constant",
    ConstantNeighbourhoodSchedule,
    lambda schedule: {"radius": schedule.radius(0, 1)},
    lambda config: ConstantNeighbourhoodSchedule(radius=config["radius"]),
)


def _encode_schedule(schedule) -> dict:
    try:
        return SCHEDULE_CODECS.encode(schedule)
    except DataError:
        pass
    # No codec for this schedule class: collapse to its iteration-0 radius.
    radius = schedule.radius(0, 1)
    warnings.warn(
        f"neighbourhood schedule of type {type(schedule).__name__} has no "
        f"registered codec and was lossily collapsed to a stepwise schedule "
        f"with constant radius {radius}; register_schedule_codec() makes it "
        f"round-trip exactly",
        LossySerializationWarning,
        stacklevel=3,
    )
    return {"kind": "stepwise", "max_radius": radius, "min_radius": radius}


# --------------------------------------------------------------------------- #
# SOM codecs (per-model-class)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SomCodec:
    """Encode/build pair for one :class:`SelfOrganisingMap` subclass.

    ``encode_config`` extracts the kind-specific configuration mapping;
    ``build`` constructs a fresh map from a :class:`ModelSnapshot` (weights
    already validated against the snapshot's shape).
    """

    kind: str
    cls: type
    encode_config: Callable[[Any], dict]
    build: Callable[[ModelSnapshot], SelfOrganisingMap]


SOM_CODECS = CodecRegistry("model")


def register_som_codec(codec: SomCodec) -> None:
    """Register a SOM class with the snapshot/archive layer."""
    SOM_CODECS.register(
        ComponentCodec(codec.kind, codec.cls, codec.encode_config, codec.build)
    )


def _build_bsom(snapshot: ModelSnapshot) -> BinarySom:
    som = BinarySom(
        snapshot.n_neurons,
        snapshot.n_bits,
        topology=TOPOLOGY_CODECS.decode(snapshot.topology),
        schedule=SCHEDULE_CODECS.decode(snapshot.schedule),
        update_rule=BsomUpdateRule(**snapshot.config["update_rule"]),
    )
    som.set_weights(np.asarray(snapshot.weights).astype(np.int8))
    return som


def _build_csom(snapshot: ModelSnapshot) -> KohonenSom:
    som = KohonenSom(
        snapshot.n_neurons,
        snapshot.n_bits,
        topology=TOPOLOGY_CODECS.decode(snapshot.topology),
        schedule=SCHEDULE_CODECS.decode(snapshot.schedule),
        learning_rate=LearningRateSchedule(**snapshot.config["learning_rate"]),
        neighbour_decay=snapshot.config["neighbour_decay"],
    )
    som.set_weights(np.asarray(snapshot.weights, dtype=np.float64))
    return som


register_som_codec(
    SomCodec(
        kind="BinarySom",
        cls=BinarySom,
        encode_config=lambda som: {
            "update_rule": {
                "winner_rule": som.update_rule.winner_rule,
                "neighbour_rule": som.update_rule.neighbour_rule,
                "neighbour_strength": som.update_rule.neighbour_strength,
            }
        },
        build=_build_bsom,
    )
)
register_som_codec(
    SomCodec(
        kind="KohonenSom",
        cls=KohonenSom,
        encode_config=lambda som: {
            "learning_rate": {
                "initial": som.learning_rate.initial,
                "final": som.learning_rate.final,
            },
            "neighbour_decay": som.neighbour_decay,
        },
        build=_build_csom,
    )
)


# --------------------------------------------------------------------------- #
# Live model <-> snapshot
# --------------------------------------------------------------------------- #
def _raw_weights(som) -> np.ndarray:
    weights = som.weights
    # The bSOM's `weights` property wraps the matrix in TriStateWeights.
    return getattr(weights, "values", weights)


def snapshot_model(
    model: Union[ModelSnapshot, SelfOrganisingMap, SomClassifier],
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> ModelSnapshot:
    """Freeze a live map or classifier into a :class:`ModelSnapshot`.

    Snapshots pass through unchanged (with ``metadata`` merged in when
    given), so every lifecycle entry point can accept either form.
    """
    if isinstance(model, ModelSnapshot):
        if not metadata:
            return model
        import dataclasses

        return dataclasses.replace(
            model, metadata={**model.metadata, **dict(metadata)}
        )

    if isinstance(model, SomClassifier):
        inner = model.som
        classifier = True
    else:
        inner = model
        classifier = False

    codec = SOM_CODECS.codec_for(inner)
    if codec is None:
        raise DataError(
            f"cannot serialise model of type {type(inner).__name__}; "
            f"registered kinds: {', '.join(SOM_CODECS.kinds())}"
        )

    labelling = None
    rejection_percentile: Optional[float] = None
    rejection_margin = 1.0
    rejection_threshold: Optional[float] = None
    if classifier:
        rejection_percentile = model.rejection_percentile
        rejection_margin = model.rejection_margin
        rejection_threshold = model.rejection_threshold
        if model.labelling is not None:
            labelling = SnapshotLabelling(
                node_labels=model.labelling.node_labels,
                win_frequencies=model.labelling.win_frequencies,
                labels=model.labelling.labels,
            )

    return ModelSnapshot(
        kind=codec.kind,
        n_neurons=inner.n_neurons,
        n_bits=inner.n_bits,
        weights=_raw_weights(inner),
        topology=TOPOLOGY_CODECS.encode(inner.topology),
        schedule=_encode_schedule(inner.schedule),
        config=dict(codec.encode(inner)),
        weights_version=inner.weights_version,
        classifier=classifier,
        rejection_percentile=rejection_percentile,
        rejection_margin=rejection_margin,
        rejection_threshold=rejection_threshold,
        labelling=labelling,
        metadata=dict(metadata or {}),
    )


def build_model(
    snapshot: ModelSnapshot,
) -> Union[BinarySom, KohonenSom, SomClassifier]:
    """Materialise a fresh live model from a snapshot.

    Returns the bare map for map snapshots and a
    :class:`~repro.core.classifier.SomClassifier` (with its labelling and
    rejection state restored) for classifier snapshots.  The map's
    weights-version counter is restored when the snapshot recorded it
    (format v2).
    """
    codec = SOM_CODECS.codec_for_kind(snapshot.kind)
    if codec is None:
        raise DataError(
            f"unknown model kind {snapshot.kind!r} in snapshot; "
            f"registered kinds: {', '.join(SOM_CODECS.kinds())}"
        )
    som = codec.decode(snapshot)
    if snapshot.weights_version is not None:
        som._restore_weights_version(snapshot.weights_version)
    if not snapshot.classifier:
        return som
    classifier = SomClassifier(
        som,
        rejection_percentile=snapshot.rejection_percentile,
        rejection_margin=snapshot.rejection_margin,
    )
    classifier.rejection_threshold = snapshot.rejection_threshold
    if snapshot.labelling is not None:
        classifier.labelling = LabelledMap(
            node_labels=snapshot.labelling.node_labels.copy(),
            win_frequencies=snapshot.labelling.win_frequencies.copy(),
            labels=snapshot.labelling.labels.copy(),
        )
    return classifier


# --------------------------------------------------------------------------- #
# Snapshot <-> .npz archive
# --------------------------------------------------------------------------- #
def _array_crc32(values: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(values).tobytes()) & 0xFFFFFFFF


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry so an atomic rename survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on directories
        pass
    finally:
        os.close(fd)


def _atomic_write_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write an ``.npz`` crash-safely: temp file, fsync, atomic rename.

    A reader racing a writer (or a writer killed mid-save) either sees the
    complete previous archive or the complete new one -- never a truncated
    in-between state under the final name.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def _with_checksums(
    header: dict, arrays: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Record per-array CRC32s in the header and append the header array."""
    header["checksums"] = {
        name: _array_crc32(values) for name, values in arrays.items()
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    return arrays


def save_model(
    model: Union[ModelSnapshot, BinarySom, KohonenSom, SomClassifier],
    path: PathLike,
) -> Path:
    """Serialise ``model`` to ``path`` (``.npz``, format v2); return the path.

    Accepts a bare map, a (fitted or unfitted) :class:`SomClassifier`, or a
    :class:`ModelSnapshot` -- everything is first frozen into a snapshot,
    which is what the archive actually stores.
    """
    snapshot = snapshot_model(model)
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")

    header: dict[str, Any] = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "kind": snapshot.kind,
        "n_neurons": snapshot.n_neurons,
        "n_bits": snapshot.n_bits,
        "topology": dict(snapshot.topology),
        "schedule": dict(snapshot.schedule),
        "config": dict(snapshot.config),
        "weights_version": snapshot.weights_version,
        "classifier": snapshot.classifier,
        "metadata": dict(snapshot.metadata),
    }
    arrays: dict[str, np.ndarray] = {"weights": np.asarray(snapshot.weights)}
    if snapshot.classifier:
        header["rejection"] = {
            "percentile": snapshot.rejection_percentile,
            "margin": snapshot.rejection_margin,
            "threshold": snapshot.rejection_threshold,
        }
        if snapshot.labelling is not None:
            arrays["node_labels"] = np.asarray(snapshot.labelling.node_labels)
            arrays["win_frequencies"] = np.asarray(
                snapshot.labelling.win_frequencies
            )
            arrays["labels"] = np.asarray(snapshot.labelling.labels)

    _atomic_write_npz(path, _with_checksums(header, arrays))
    return path


def save_delta(delta: DeltaSnapshot, path: PathLike) -> Path:
    """Serialise a :class:`~repro.core.snapshot.DeltaSnapshot` to ``path``.

    Delta archives reuse the ``.npz``-with-JSON-header layout (and the same
    crash-safe write and per-array checksums) but are a distinct artefact:
    :func:`load_delta` reads them back, and :func:`load_snapshot` refuses
    them with a pointer here, since a delta cannot serve without its base.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")

    header: dict[str, Any] = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "delta": True,
        "kind": delta.kind,
        "n_neurons": delta.n_neurons,
        "n_bits": delta.n_bits,
        "base_weights_version": delta.base_weights_version,
        "weights_version": delta.weights_version,
        "full_weights_crc32": delta.full_weights_crc32,
        "topology": dict(delta.topology),
        "schedule": dict(delta.schedule),
        "config": dict(delta.config),
        "classifier": delta.classifier,
        "metadata": dict(delta.metadata),
    }
    arrays: dict[str, np.ndarray] = {
        "row_indices": np.asarray(delta.row_indices),
        "rows": np.asarray(delta.rows),
    }
    if delta.classifier:
        header["rejection"] = {
            "percentile": delta.rejection_percentile,
            "margin": delta.rejection_margin,
            "threshold": delta.rejection_threshold,
        }
        if delta.labelling is not None:
            arrays["node_labels"] = np.asarray(delta.labelling.node_labels)
            arrays["win_frequencies"] = np.asarray(
                delta.labelling.win_frequencies
            )
            arrays["labels"] = np.asarray(delta.labelling.labels)

    _atomic_write_npz(path, _with_checksums(header, arrays))
    return path


def _snapshot_from_v2(header: dict, archive) -> ModelSnapshot:
    labelling = None
    if "node_labels" in archive:
        labelling = SnapshotLabelling(
            node_labels=archive["node_labels"],
            win_frequencies=archive["win_frequencies"],
            labels=archive["labels"],
        )
    rejection = header.get("rejection") or {}
    return ModelSnapshot(
        kind=header["kind"],
        n_neurons=header["n_neurons"],
        n_bits=header["n_bits"],
        weights=archive["weights"],
        topology=header["topology"],
        schedule=header["schedule"],
        config=header["config"],
        weights_version=header.get("weights_version"),
        classifier=bool(header.get("classifier")),
        rejection_percentile=rejection.get("percentile"),
        rejection_margin=rejection.get("margin", 1.0),
        rejection_threshold=rejection.get("threshold"),
        labelling=labelling,
        format_version=2,
        metadata=header.get("metadata") or {},
    )


def _snapshot_from_v1(header: dict, archive) -> ModelSnapshot:
    """Translate a legacy (format-v1) archive into a snapshot.

    v1 did not record the weights version; it comes back as ``None`` and
    :func:`build_model` leaves the loaded map's counter in force.
    """
    kind = header["som"]
    if kind == "BinarySom":
        config = {"update_rule": header["update_rule"]}
    elif kind == "KohonenSom":
        config = {
            "learning_rate": header["learning_rate"],
            "neighbour_decay": header["neighbour_decay"],
        }
    else:
        raise DataError(f"unknown SOM type {kind!r} in saved model")

    labelling = None
    if "node_labels" in archive:
        labelling = SnapshotLabelling(
            node_labels=archive["node_labels"],
            win_frequencies=archive["win_frequencies"],
            labels=archive["labels"],
        )
    classifier = header.get("model") == "SomClassifier"
    return ModelSnapshot(
        kind=kind,
        n_neurons=header["n_neurons"],
        n_bits=header["n_bits"],
        weights=archive["weights"],
        topology=header["topology"],
        schedule=header["schedule"],
        config=config,
        weights_version=None,
        classifier=classifier,
        rejection_percentile=header.get("rejection_percentile"),
        rejection_margin=header.get("rejection_margin", 1.0),
        rejection_threshold=header.get("rejection_threshold"),
        labelling=labelling,
        format_version=1,
        metadata={},
    )


#: Low-level failures that mean "the archive's bytes are damaged" rather
#: than "the caller made a mistake": truncated or bit-flipped zip members
#: (``BadZipFile``), short reads (``EOFError``/``OSError``), and malformed
#: pickled/JSON payloads surfacing as ``ValueError``.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    ValueError,
    EOFError,
    OSError,
    KeyError,
)


def _read_archive(path: Path, fault_injector=None) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an archive's header and arrays, verifying recorded checksums.

    Every byte-level failure mode -- unreadable zip, missing members,
    undecodable header, CRC mismatch -- surfaces as
    :class:`~repro.errors.SnapshotCorruptionError`, so callers fail closed
    instead of deserializing garbage.  ``fault_injector`` (an armed
    :class:`repro.serve.resilience.FaultInjector`, duck-typed so the core
    layer stays serve-free) lets the chaos gate exercise this path
    deterministically via the :data:`SNAPSHOT_CORRUPT_SITE` site.
    """
    if fault_injector is not None and fault_injector.fires(SNAPSHOT_CORRUPT_SITE):
        raise SnapshotCorruptionError(
            path, f"injected fault at site {SNAPSHOT_CORRUPT_SITE!r}"
        )
    try:
        with np.load(path, allow_pickle=False) as archive:
            if "header" not in archive.files:
                raise SnapshotCorruptionError(path, "archive has no header member")
            header = json.loads(
                bytes(archive["header"].tobytes()).decode("utf-8")
            )
            arrays = {
                name: archive[name] for name in archive.files if name != "header"
            }
    except SnapshotCorruptionError:
        raise
    except FileNotFoundError:
        raise DataError(f"model file {path} does not exist") from None
    except _CORRUPTION_ERRORS as exc:
        raise SnapshotCorruptionError(
            path, f"unreadable archive ({type(exc).__name__}: {exc})"
        ) from exc

    checksums = header.get("checksums")
    if checksums:
        for name, expected in checksums.items():
            if name not in arrays:
                raise SnapshotCorruptionError(
                    path, f"array {name!r} recorded in header is missing"
                )
            actual = _array_crc32(arrays[name])
            if actual != int(expected):
                raise SnapshotCorruptionError(
                    path,
                    f"array {name!r} CRC32 {actual:#010x} does not match the "
                    f"recorded {int(expected):#010x}",
                )
    return header, arrays


def load_snapshot(path: PathLike, *, fault_injector=None) -> ModelSnapshot:
    """Read a ``.npz`` archive (format v1 or v2) into a :class:`ModelSnapshot`.

    Verifies the per-array CRC32 checksums recorded in the v2 header (older
    archives without checksums still load) and raises
    :class:`~repro.errors.SnapshotCorruptionError` on truncated, bit-flipped
    or otherwise damaged files instead of deserializing garbage.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file {path} does not exist")
    header, arrays = _read_archive(path, fault_injector=fault_injector)
    if header.get("delta"):
        raise DataError(
            f"{path} holds a delta snapshot, not a full model; read it with "
            "load_delta() and apply() it to its base snapshot"
        )
    version = header.get("format_version")
    if version == 2:
        return _snapshot_from_v2(header, arrays)
    if version == 1:
        return _snapshot_from_v1(header, arrays)
    raise DataError(f"unsupported model format version {version!r}")


def load_delta(path: PathLike, *, fault_injector=None) -> DeltaSnapshot:
    """Read a delta archive written by :func:`save_delta`.

    The same integrity guarantees as :func:`load_snapshot` apply; the
    returned :class:`~repro.core.snapshot.DeltaSnapshot` additionally
    verifies the full-matrix checksum when :meth:`~DeltaSnapshot.apply`-ed
    to its base.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"delta file {path} does not exist")
    header, arrays = _read_archive(path, fault_injector=fault_injector)
    if not header.get("delta"):
        raise DataError(
            f"{path} holds a full model archive, not a delta; read it with "
            "load_snapshot()"
        )
    labelling = None
    if "node_labels" in arrays:
        labelling = SnapshotLabelling(
            node_labels=arrays["node_labels"],
            win_frequencies=arrays["win_frequencies"],
            labels=arrays["labels"],
        )
    rejection = header.get("rejection") or {}
    return DeltaSnapshot(
        kind=header["kind"],
        n_neurons=header["n_neurons"],
        n_bits=header["n_bits"],
        base_weights_version=header["base_weights_version"],
        weights_version=header["weights_version"],
        row_indices=arrays["row_indices"],
        rows=arrays["rows"],
        full_weights_crc32=int(header["full_weights_crc32"]),
        topology=header["topology"],
        schedule=header["schedule"],
        config=header["config"],
        classifier=bool(header.get("classifier")),
        rejection_percentile=rejection.get("percentile"),
        rejection_margin=rejection.get("margin", 1.0),
        rejection_threshold=rejection.get("threshold"),
        labelling=labelling,
        metadata=header.get("metadata") or {},
    )


def load_model(path: PathLike) -> Union[BinarySom, KohonenSom, SomClassifier]:
    """Load a live model previously written by :func:`save_model`.

    Reads both format v2 and legacy v1 archives.  Prefer
    :func:`load_snapshot` (or :func:`repro.api.load`) when the model is
    headed for the serving registry -- the snapshot is the currency
    :meth:`repro.serve.ModelRegistry.register` and
    :meth:`~repro.serve.ModelRegistry.swap` accept directly.
    """
    return build_model(load_snapshot(path))
