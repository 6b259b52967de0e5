"""Request/response value objects for the streaming inference service.

A camera stream submits one :class:`ClassificationRequest` per silhouette
signature and receives a :class:`PendingResult` -- a small future that is
settled with a :class:`ClassificationResponse` once the request's
micro-batch has been classified (or immediately, on a cache hit).

In the serve layer, :func:`resolve_requests` is the one place futures are
settled: it finishes each request's trace and sets its future, and its
dedup followers', exactly once -- a second settle of a
:class:`PendingResult` raises.  All scheduling, caching and routing policy
lives in :mod:`repro.serve.service` and friends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.classifier import BatchPrediction
from repro.errors import ResultTimeoutError, ServiceError
from repro.obs.trace import Trace
from repro.serve.cache import CachedOutcome

#: What settles a batch: kernel rows, one memoised outcome for every
#: request, or an error delivered to every future.
Outcome = Union[BatchPrediction, CachedOutcome, BaseException]

# Makes the settled check and the settle one step, so two threads racing
# to settle one future cannot both succeed.
_settle_lock = threading.Lock()

# Trace attributes of a dedup follower's answer.
_FOLLOWER = {"deduplicated": True}


@dataclass(frozen=True)
class ClassificationResponse:
    """The service's answer to one classification request.

    Attributes
    ----------
    label:
        Predicted identity (``UNKNOWN_LABEL`` when rejected).
    neuron:
        Winning neuron index (``-1`` for cache hits recorded before the
        winning neuron was known -- never the case in practice, cached
        entries store the full outcome).
    distance:
        Winning (masked Hamming) distance.
    rejected:
        Whether the unknown-rejection threshold fired.
    confidence:
        Win-frequency purity of the winning neuron's label.
    model:
        Name of the registry model that served the request.
    stream_id:
        The camera stream the request came from.
    request_id:
        Service-wide monotonically increasing request number.
    cached:
        ``True`` when the answer came from the signature LRU cache and the
        SOM was never consulted.
    latency_s:
        Submit-to-resolve wall-clock latency in seconds.
    deduplicated:
        ``True`` when the answer was fanned out from another in-flight
        request with an identical packed signature -- the SOM executed one
        kernel for the whole group and this response rode along.
    stale:
        ``True`` when the answer came from the *stale* tier of the
        signature cache while every shard circuit breaker of the model was
        open (graceful degradation) -- the outcome may predate a hot-swap.
        Always ``cached=True`` as well.
    trace_id:
        Id of the request's trace when it was sampled
        (:class:`repro.obs.Tracer`); retrieve the full span breakdown with
        ``service.obs.trace(response.trace_id)``.  ``None`` when the
        request was not sampled.
    """

    label: int
    neuron: int
    distance: float
    rejected: bool
    confidence: float
    model: str
    stream_id: str
    request_id: int
    cached: bool
    latency_s: float
    deduplicated: bool = False
    stale: bool = False
    trace_id: Optional[int] = None


class PendingResult:
    """A minimal thread-safe future for one in-flight request.

    ``concurrent.futures.Future`` would work, but this variant is a few
    lines, cannot be cancelled half-way through a shard's resolve loop, and
    keeps the serving layer dependency-free.  It settles exactly once: a
    second ``set_result``/``set_exception`` raises
    :class:`~repro.errors.ServiceError` instead of overwriting the answer.
    """

    __slots__ = ("_event", "_response", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: Optional[ClassificationResponse] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        """Whether a response (or error) has been delivered."""
        return self._event.is_set()

    def set_result(self, response: ClassificationResponse) -> None:
        self._settle(response, None)

    def set_exception(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(
        self, response: Optional[ClassificationResponse], error: Optional[BaseException]
    ) -> None:
        with _settle_lock:
            if self._event.is_set():
                raise ServiceError("request already settled; a future settles once")
            self._response = response
            self._error = error
            self._event.set()

    def result(self, timeout: Optional[float] = None) -> ClassificationResponse:
        """Block until the response arrives; re-raise shard-side errors."""
        if not self._event.wait(timeout):
            raise ResultTimeoutError(timeout)
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


@dataclass
class ClassificationRequest:
    """One signature queued for micro-batched classification.

    ``packed`` carries the signature as ``uint64`` words
    (:func:`repro.signatures.packing.packed_signature_words`), produced
    once at submit time together with ``cache_key`` (the words' raw
    bytes).  Shards score an all-packed batch straight against the bSOM's
    cached bit-planes without re-packing or re-validating; ``signature``
    is retained for models without a packed query path.

    ``generation`` stamps the model generation current at submit time (the
    service bumps it on every hot-swap/evict) so the settle step never
    memoises a prediction that might predate a swap.  ``followers`` holds
    deduplicated requests with an identical in-flight packed signature:
    they never reach a shard; the one kernel execution of this (primary)
    request resolves them all.

    ``trace`` rides along when the request was sampled: the scheduler, the
    worker shard and the settle step each stamp their stage spans onto
    it, so a single object reference carries the whole queue -> batch ->
    kernel -> resolve attribution across threads.

    ``deadline_at`` is the absolute monotonic clock value after which the
    caller no longer wants an answer (``None`` = no deadline).  The service
    sheds expired requests at dispatch time and the shard sheds again just
    before kernel launch, each with a terminal
    :class:`~repro.errors.DeadlineExceededError`.
    """

    signature: np.ndarray
    model: str
    stream_id: str
    request_id: int
    cache_key: bytes
    enqueued_at: float
    packed: Optional[np.ndarray] = None
    pending: PendingResult = field(default_factory=PendingResult)
    generation: int = 0
    followers: list["ClassificationRequest"] = field(default_factory=list)
    trace: Optional[Trace] = None
    deadline_at: Optional[float] = None

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed at clock value ``now``."""
        return self.deadline_at is not None and now > self.deadline_at

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None


def resolve_requests(
    requests: Sequence[ClassificationRequest],
    outcome: Outcome,
    *,
    clock: Callable[[], float],
    stale: bool = False,
    shed: Optional[str] = None,
    record: Optional[Callable[[list[ClassificationResponse]], None]] = None,
) -> list[ClassificationResponse]:
    """Settle every request of a batch, and its dedup followers, once.

    ``outcome`` is a :class:`~repro.core.classifier.BatchPrediction` whose
    rows answer ``requests`` in order, a
    :class:`~repro.serve.cache.CachedOutcome` answering every request (a
    cache hit; ``stale`` marks the stale tier), or an error delivered to
    every future -- its traces then finish ``"shed"`` with ``reason=shed``
    when ``shed`` names one, else ``"error"``.  Followers share their
    primary's answer, marked ``deduplicated``, or its error.

    Every response is built before the first future is set, so a fault
    while building leaves the batch unsettled for the caller to fail.  The
    traces are finished, and ``record`` (when given) is called with the
    responses, before the futures are set, so a caller woken by
    ``result()`` can retrieve its complete trace and finds its answer
    counted.  Returns the responses built: the primaries in request
    order, then the followers.
    """
    now = clock()
    if isinstance(outcome, BaseException):
        status = "error" if shed is None else "shed"
        attrs = {"error": type(outcome).__name__}
        if shed is not None:
            attrs["reason"] = shed
        for request in requests:
            for each in (request, *request.followers):
                if each.trace is not None:
                    each.trace.finish(status, **attrs)
                each.pending.set_exception(outcome)
        return []
    cached = not isinstance(outcome, BatchPrediction)
    if cached:
        rows = [(outcome.label, outcome.neuron, outcome.distance, outcome.rejected,
                 outcome.confidence)] * len(requests)
        attrs = {"cached": True, "stale": True} if stale else {"cached": True}
    else:
        rows = list(zip(outcome.labels.tolist(), outcome.neurons.tolist(),
                        outcome.distances.tolist(), outcome.rejected.tolist(),
                        outcome.confidences.tolist()))
        attrs = {}
    settled = [
        (request, attrs, _response(request, row, now, cached=cached, stale=stale))
        for request, row in zip(requests, rows)
    ]
    settled += [
        (follower, _FOLLOWER, _response(follower, row, now, deduplicated=True))
        for request, row in zip(requests, rows)
        for follower in request.followers
    ]
    for request, attrs, response in settled:
        if request.trace is not None:
            if cached:
                request.trace.span("cache", start=request.enqueued_at, end=now, hit=True,
                                   **({"stale": True} if stale else {}))
            request.trace.finish("ok", label=response.label, **attrs)
    responses = [response for *_, response in settled]
    if record is not None:
        record(responses)
    for request, _, response in settled:
        request.pending.set_result(response)
    return responses


def _response(
    request: ClassificationRequest,
    row: tuple,
    now: float,
    *,
    cached: bool = False,
    stale: bool = False,
    deduplicated: bool = False,
) -> ClassificationResponse:
    label, neuron, distance, rejected, confidence = row
    return ClassificationResponse(
        label=int(label),
        neuron=int(neuron),
        distance=float(distance),
        rejected=bool(rejected),
        confidence=float(confidence),
        model=request.model,
        stream_id=request.stream_id,
        request_id=request.request_id,
        cached=cached,
        latency_s=max(0.0, now - request.enqueued_at),
        deduplicated=deduplicated,
        stale=stale,
        trace_id=request.trace_id,
    )
