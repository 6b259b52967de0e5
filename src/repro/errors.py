"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch a single base class at
API boundaries while still being able to distinguish configuration mistakes
from data problems and hardware-model violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters.

    Examples include a SOM with zero neurons, a histogram with a
    non-positive number of bins, or an FPGA design whose vector width does
    not match the configured image size.
    """


class DimensionMismatchError(ReproError):
    """An input vector's length does not match what the model expects."""

    def __init__(self, expected: int, actual: int, what: str = "input vector"):
        self.expected = int(expected)
        self.actual = int(actual)
        self.what = what
        super().__init__(
            f"{what} has length {actual}, but the model expects length {expected}"
        )


class NotFittedError(ReproError):
    """A model was asked to predict or label before it was trained."""


class DataError(ReproError):
    """Input data is malformed (wrong dtype, empty, non-binary values...)."""


class SnapshotCorruptionError(DataError):
    """A snapshot archive or delta failed an integrity check.

    Raised by the serialization layer when an ``.npz`` archive is truncated,
    bit-flipped or otherwise unreadable, when a per-array CRC32 recorded in
    the format-v2 header does not match the bytes actually read back, or
    when materialising a delta snapshot produces weights whose checksum
    disagrees with the one recorded at capture time.  Loading fails closed:
    a corrupt model never reaches the serving registry.
    """

    def __init__(self, path, detail: str):
        self.path = path
        self.detail = detail
        where = f"{path}: " if path is not None else ""
        super().__init__(f"snapshot corrupt: {where}{detail}")


class HardwareModelError(ReproError):
    """The cycle-accurate hardware simulation was driven incorrectly.

    Raised for protocol violations such as presenting a new pattern while
    the winner-take-all block is still busy, or configuring a design that
    does not fit on the selected device.
    """


class DeviceCapacityError(HardwareModelError):
    """A synthesised design exceeds the resources of the target device."""

    def __init__(self, resource: str, required: int, available: int):
        self.resource = resource
        self.required = int(required)
        self.available = int(available)
        super().__init__(
            f"design requires {required} {resource}, but the device only has "
            f"{available}"
        )


class TrackingError(ReproError):
    """The object tracker was driven with inconsistent frame data."""


class ServiceError(ReproError):
    """Base class for errors raised by the streaming inference service."""


class UnknownModelError(ServiceError):
    """A request named a model that is not registered with the service.

    Carries the unknown name and the names that *are* registered so callers
    can report a useful error to the camera stream that sent the request.
    """

    def __init__(
        self, name: str, available: tuple[str, ...] = (), message: str | None = None
    ):
        self.name = name
        self.available = tuple(available)
        known = ", ".join(sorted(self.available)) or "none"
        super().__init__(
            message or f"no model named {name!r} is registered (available: {known})"
        )


class ModelEvictedError(UnknownModelError):
    """The model serving a queued request was evicted before its batch ran.

    Delivered to every future still queued behind an evicted model, so a
    caller waiting on ``result()`` gets a clear, catchable answer instead of
    hanging until its timeout.  Derives from :class:`UnknownModelError`
    because by the time the caller sees it, the name really is unknown.
    """

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        known = ", ".join(sorted(tuple(available))) or "none"
        super().__init__(
            name,
            available,
            message=(
                f"model {name!r} was evicted while requests were still queued "
                f"(available: {known})"
            ),
        )


class ServiceOverloadedError(ServiceError):
    """Backpressure: the service is saturated.

    Raised at submit when the service-wide pending budget, the one
    admission point, cannot take a block; never to an admitted request.
    Callers are expected to shed load or retry after a delay.
    """

    def __init__(self, what: str, pending: int, capacity: int):
        self.what = what
        self.pending = int(pending)
        self.capacity = int(capacity)
        super().__init__(
            f"{what} saturated: {pending} pending against a capacity of {capacity}"
        )


class CircuitOpenError(ServiceOverloadedError):
    """Every shard circuit breaker of the requested model is open.

    A batch is queued while any enabled shard's breaker allows it; this
    error means no shard of the model is currently accepting work and no
    stale cache entry could answer the request.  Derives from
    :class:`ServiceOverloadedError` because the remedy is the same: back
    off and retry -- a half-open probe will test the shards again after the
    breaker's reset timeout.
    """

    def __init__(self, model: str, open_shards: int = 0, total_shards: int = 0):
        self.model = model
        self.open_shards = int(open_shards)
        self.total_shards = int(total_shards)
        self.what = f"model {model!r} circuit"
        self.pending = self.open_shards
        self.capacity = self.total_shards
        ServiceError.__init__(
            self,
            f"model {model!r} is unavailable: {open_shards}/{total_shards} "
            "shard circuit breakers are open",
        )


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before its batch reached a kernel.

    Expired requests are shed -- once before batching (at dispatch) and
    once more just before kernel launch -- so a deadline-carrying caller is
    guaranteed a terminal answer within its budget instead of paying for a
    classification it can no longer use.
    """

    def __init__(self, model: str = "", deadline_s: float | None = None):
        self.model = model
        self.deadline_s = deadline_s
        budget = f" of {deadline_s:.3f}s" if deadline_s is not None else ""
        super().__init__(
            f"request deadline{budget} expired before classification"
            + (f" (model {model!r})" if model else "")
        )


class ShardFailedError(ServiceError):
    """A worker shard died or wedged while a batch was in flight.

    Delivered by the shard supervisor to the futures of the batch the
    failed worker was holding; the shard itself is restarted (under a
    bounded restart budget), and the model's other workers pull its queued
    batches.  A stop that finds every worker dead fails those too.
    """

    def __init__(self, shard: str, reason: str = "failed"):
        self.shard = shard
        self.reason = reason
        super().__init__(f"worker shard {shard!r} {reason} while a batch was in flight")


class InjectedFaultError(ServiceError):
    """A deterministic test fault fired at a named injection site.

    Raised only when a :class:`repro.serve.resilience.FaultInjector` is
    armed (chaos tests and ``scripts/check_resilience.py``); production
    configurations never construct one.
    """

    def __init__(self, site: str, **context):
        self.site = site
        self.context = dict(context)
        detail = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        super().__init__(
            f"injected fault at site {site!r}" + (f" ({detail})" if detail else "")
        )


class ResultTimeoutError(ServiceError):
    """``PendingResult.result(timeout)`` gave up waiting.

    Distinguishes "the caller stopped waiting" from terminal service
    errors (shed, evicted, deadline-exceeded...): seeing this error means
    the future itself never completed -- the chaos gate treats it as a hung
    request, which the resilience layer must never produce.
    """

    def __init__(self, timeout: float | None):
        self.timeout = timeout
        super().__init__(f"request did not complete within {timeout} seconds")
