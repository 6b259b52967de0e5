"""The documented public surface of the model lifecycle.

The paper's workflow is train-offline / serve-from-BlockRAM: a map is
trained and labelled on a PC, frozen, and the frozen unit is what the FPGA
serves.  This facade packages that whole lifecycle behind five verbs, with
the immutable :class:`~repro.core.snapshot.ModelSnapshot` as the single
currency everything exchanges:

``train``
    Fit a bSOM (or cSOM) identifier on labelled binary signatures.
``save`` / ``load``
    Move snapshots to and from self-describing ``.npz`` archives (format
    v2: weights version and update-rule config round-trip; legacy v1
    archives still load).
``serve``
    Stand up a :class:`~repro.serve.StreamingInferenceService` -- micro-
    batching, sharding, signature cache, in-flight dedup, telemetry --
    over one or more named snapshots.
``swap``
    Hot-reload a served model with zero dropped requests (the software
    "reflash": queued requests ride through and resolve on the map current
    at their micro-batch boundary).
``rollout``
    The guarded path to ``swap``: shadow-evaluate a candidate against live
    traffic, optionally canary a seeded fraction of requests, and let the
    rollout policy promote or demote it automatically -- with a bounded
    rollback ring of the versions it replaced.

End to end::

    from repro import api

    classifier = api.train(X, y, epochs=15, seed=0)
    api.save(classifier, "hall.npz")

    service = api.serve({"hall": api.load("hall.npz")})
    future = service.submit(signature, model="hall", stream_id="cam-0")
    print(future.result().label)

    better = api.train(X, y, epochs=50, seed=0)
    api.swap(service, "hall", api.snapshot(better))   # zero-drop hot-reload
    service.stop()

Everything here is a thin veneer: the underlying classes
(:class:`~repro.core.SomClassifier`, :class:`~repro.serve.ModelRegistry`,
:class:`~repro.serve.StreamingInferenceService`) remain public for callers
that need the knobs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional, Union

import numpy as np

from repro._rng import SeedLike
from repro.core.bsom import BinarySom, BsomUpdateRule
from repro.core.classifier import SomClassifier
from repro.core.csom import KohonenSom
from repro.core.serialization import (
    PathLike,
    load_delta as _load_delta,
    load_snapshot,
    save_delta as _save_delta,
    save_model,
    snapshot_model,
)
from repro.core.snapshot import DeltaSnapshot, ModelSnapshot
from repro.core.som import SelfOrganisingMap
from repro.core.topology import NeighbourhoodSchedule, Topology
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.serve.registry import ModelRegistry, ModelSource
from repro.serve.service import ServiceConfig, StreamingInferenceService

#: What the serving entry points accept per model: a snapshot, a fitted
#: classifier, or a path to a saved archive.
ServeSource = Union[ModelSnapshot, SomClassifier, str, Path]

_SOM_KINDS = ("bsom", "csom")


def train(
    X: np.ndarray,
    y: np.ndarray,
    *,
    som: Union[str, SelfOrganisingMap] = "bsom",
    n_neurons: int = 40,
    epochs: int = 10,
    topology: Optional[Topology] = None,
    schedule: Optional[NeighbourhoodSchedule] = None,
    update_rule: Optional[BsomUpdateRule] = None,
    rejection_percentile: Optional[float] = None,
    rejection_margin: float = 1.0,
    seed: SeedLike = None,
    shuffle: bool = True,
) -> SomClassifier:
    """Train an identifier on labelled binary signatures; return it fitted.

    The paper's recipe in one call: unsupervised SOM training, win-frequency
    node labelling, and (optionally) rejection-threshold calibration.

    Parameters
    ----------
    X, y:
        ``(n_samples, n_bits)`` binary signatures and their identity labels.
    som:
        ``"bsom"`` (the paper's tri-state map, default), ``"csom"`` (the
        Kohonen baseline), or an already-constructed
        :class:`~repro.core.som.SelfOrganisingMap` instance.
    n_neurons:
        Map size when ``som`` is a kind name (40 in the paper).
    epochs:
        Full training passes (Table I's "iterations").
    topology, schedule, update_rule:
        Map construction knobs, forwarded when ``som`` is a kind name
        (``update_rule`` is bSOM-only).
    rejection_percentile, rejection_margin:
        "Unknown" rejection calibration; ``None`` disables rejection.
    seed:
        Seed for weight initialisation and presentation order.
    shuffle:
        Re-shuffle the presentation order each epoch.
    """
    X = np.asarray(X)
    if isinstance(som, SelfOrganisingMap):
        if update_rule is not None or topology is not None or schedule is not None:
            raise ConfigurationError(
                "pass topology/schedule/update_rule when constructing the map, "
                "not alongside an already-built SOM instance"
            )
        map_instance = som
    elif som == "bsom":
        map_instance = BinarySom(
            n_neurons,
            X.shape[1],
            topology=topology,
            schedule=schedule,
            update_rule=update_rule,
            seed=seed,
        )
    elif som == "csom":
        if update_rule is not None:
            raise ConfigurationError("update_rule applies to the bSOM only")
        map_instance = KohonenSom(
            n_neurons, X.shape[1], topology=topology, schedule=schedule, seed=seed
        )
    else:
        raise ConfigurationError(
            f"som must be one of {_SOM_KINDS} or a SelfOrganisingMap instance, "
            f"got {som!r}"
        )
    classifier = SomClassifier(
        map_instance,
        rejection_percentile=rejection_percentile,
        rejection_margin=rejection_margin,
    )
    return classifier.fit(X, y, epochs=epochs, shuffle=shuffle, seed=seed)


def snapshot(
    model: Union[ModelSnapshot, SelfOrganisingMap, SomClassifier],
    *,
    metadata: Optional[Mapping[str, str]] = None,
) -> ModelSnapshot:
    """Freeze a live model into an immutable :class:`ModelSnapshot`.

    The snapshot is a deep, read-only copy: later training (e.g. the
    on-line learner) does not mutate it, so it is safe to hand to a serving
    registry or keep as a rollback point.
    """
    return snapshot_model(model, metadata=metadata)


def save(
    model: Union[ModelSnapshot, SelfOrganisingMap, SomClassifier],
    path: PathLike,
) -> Path:
    """Write a model or snapshot to ``path`` as a format-v2 ``.npz`` archive."""
    return save_model(model, path)


def load(path: PathLike) -> ModelSnapshot:
    """Read an archive (format v1 or v2) back as a :class:`ModelSnapshot`.

    The snapshot goes straight into :func:`serve` / :func:`swap`, or
    :meth:`~repro.core.snapshot.ModelSnapshot.to_classifier` materialises a
    live classifier for local use.

    Every archive write is crash-safe (temp file + fsync + atomic rename)
    and every array carries a CRC32 recorded at save time; a truncated or
    bit-flipped archive raises
    :class:`~repro.errors.SnapshotCorruptionError` here instead of ever
    reaching a registry.
    """
    return load_snapshot(path)


def save_delta(delta: DeltaSnapshot, path: PathLike) -> Path:
    """Write a row-level :class:`DeltaSnapshot` to a (crash-safe) archive.

    Deltas are what the on-line learner publishes between full snapshots
    (:class:`~repro.pipeline.OnlineLearner` with ``publish_every``): only
    the neuron rows the updates touched, plus a full-matrix checksum.
    """
    return _save_delta(delta, path)


def load_delta(path: PathLike) -> DeltaSnapshot:
    """Read a delta archive back; apply it with ``delta.apply(base)``.

    Materialisation is checksum-verified: applying a delta to the wrong
    base (or a corrupted delta) raises
    :class:`~repro.errors.SnapshotCorruptionError` rather than serving
    silently wrong weights.
    """
    return _load_delta(path)


def _coerce_source(source: ServeSource) -> ModelSource:
    if isinstance(source, (str, Path)):
        return load_snapshot(source)
    return source


def serve(
    models: Mapping[str, ServeSource],
    *,
    config: Optional[ServiceConfig] = None,
    registry: Optional[ModelRegistry] = None,
    obs: Optional[Observability] = None,
    start: bool = True,
) -> StreamingInferenceService:
    """Stand up a streaming service over named models and (by default) start it.

    Parameters
    ----------
    models:
        Mapping of registry name to a :class:`ModelSnapshot`, a fitted
        :class:`~repro.core.SomClassifier`, or a path to a saved archive.
    config:
        Service tuning knobs (:class:`~repro.serve.ServiceConfig`).  The
        resilience layer lives here too: ``default_deadline_s`` (shed
        requests whose latency budget expired), ``retry`` (jittered
        backoff for transient overload refusals), ``breaker``
        (per-(model, shard) circuit breakers with stale-cache
        degradation), ``supervisor`` (watchdog restarting dead/wedged
        worker shards; on by default) and ``fault_injector``
        (deterministic chaos testing; ``None`` in production).
    registry:
        Pre-built registry to serve from; built from ``config`` when
        omitted.
    obs:
        A shared :class:`~repro.obs.Observability` bundle (metric registry
        + tracer + event log), whose ``sample_every`` is the service's
        trace sampling rate; built with its defaults (every 16th request
        traced) when omitted.  Retrieve a sampled request's trace with
        ``service.obs.trace(response.trace_id)`` once it has settled.
    start:
        Start the dispatcher and shard threads before returning (pass
        ``False`` to register only; the service also works as a context
        manager).
    """
    service = StreamingInferenceService(registry=registry, config=config, obs=obs)
    for name, source in models.items():
        service.register_model(name, _coerce_source(source))
    if start:
        service.start()
    return service


def swap(
    service: Union[StreamingInferenceService, ModelRegistry],
    name: str,
    model: ServeSource,
) -> SomClassifier:
    """Hot-reload served model ``name``; returns the classifier it replaced.

    Zero-drop by construction: ready queues are untouched and each worker
    flips to the new (operand-pre-warmed) model at a micro-batch boundary,
    so every request queued across the swap resolves successfully.  When
    ``service`` is a :class:`StreamingInferenceService`, its signature
    cache is invalidated and its swap/generation telemetry updated;  a bare
    :class:`ModelRegistry` is swapped directly.
    """
    source = _coerce_source(model)
    if isinstance(service, ModelRegistry):
        return service.swap(name, source)
    return service.swap_model(name, source)


def rollout(
    service: StreamingInferenceService,
    name: str,
    candidate: ServeSource,
    *,
    config=None,
):
    """Begin a guarded rollout of ``candidate`` against served model ``name``.

    Enables the service's :class:`~repro.serve.RolloutManager` (idempotent)
    and starts the candidate in the shadow stage: it mirrors live traffic
    without affecting responses, accumulating agreement/latency statistics,
    and is automatically promoted -- optionally through a seeded canary
    traffic split -- or demoted by the configured
    :class:`~repro.serve.RolloutPolicy`.  Returns the manager, whose
    ``status(name)`` / ``promote`` / ``demote`` / ``rollback`` drive the
    rest of the lifecycle by hand when automatic guarding is off.
    """
    manager = service.enable_rollouts(config)
    manager.begin(name, _coerce_source(candidate))
    return manager


__all__ = [
    "DeltaSnapshot",
    "ModelSnapshot",
    "Observability",
    "ServeSource",
    "train",
    "snapshot",
    "save",
    "load",
    "save_delta",
    "load_delta",
    "serve",
    "swap",
    "rollout",
]
