"""Request/response value objects for the streaming inference service.

A camera stream submits one :class:`ClassificationRequest` per silhouette
signature and receives a :class:`PendingResult` -- a small future that is
settled with a :class:`ClassificationResponse` once the request's
micro-batch has been classified (or immediately, on a cache hit).

In the serve layer, :func:`resolve_requests` is the one place futures are
settled: it builds each sampled request's trace and sets its future, and
its dedup followers', exactly once -- a second settle of a
:class:`PendingResult` raises.  All scheduling, caching and routing policy
lives in :mod:`repro.serve.service` and friends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.classifier import BatchPrediction
from repro.errors import ResultTimeoutError, ServiceError
from repro.obs.trace import ROOT_SPAN, Span, Trace, Tracer
from repro.serve.cache import CachedOutcome

if TYPE_CHECKING:
    from repro.serve.batching import MicroBatch

#: What settles a batch: kernel rows, one memoised outcome for every
#: request, or an error delivered to every future.
Outcome = Union[BatchPrediction, CachedOutcome, BaseException]

# Makes the settled check and the settle one step, so two threads racing
# to settle one future cannot both succeed.  Taken once per batch.
_settle_lock = threading.Lock()

# Trace attributes of a dedup follower's answer.
_FOLLOWER = {"deduplicated": True}


class ClassificationResponse(NamedTuple):
    """The service's answer to one classification request.

    An immutable named tuple with value equality: a batch's responses are
    built from its arrays in C loops, with no per-row ``__init__`` call.

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
        (:meth:`repro.obs.Tracer.sample`); the settle step that built this
        response built the trace too, so ``service.obs.trace(trace_id)``
        returns the full span breakdown (until the ring drops it).
        ``None`` when the request was not sampled.
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

    It settles exactly once: a second ``set_result``/``set_exception``
    raises :class:`~repro.errors.ServiceError` instead of overwriting the
    answer, and it cannot be cancelled half-way through a shard's resolve
    loop.  Both are batches of one for the one settle primitive, which
    :func:`resolve_requests` takes once per batch.  Every request builds
    one, so it is kept to one lock (the *latch*) and a settled flag, where
    ``concurrent.futures.Future`` or a ``threading.Event`` builds a
    condition, its lock and a waiter list, and notifies under the
    condition lock on every settle.  The latch is held from construction
    until the settle releases it; a waiter on an unsettled future blocks
    acquiring it and releases it at once for the next waiter, so every
    waiter wakes.
    """

    __slots__ = ("_latch", "_settled", "_response", "_error")

    def __init__(self) -> None:
        # _response and _error are first written by the settle.
        self._latch = latch = threading.Lock()
        latch.acquire()
        self._settled = False

    def done(self) -> bool:
        """Whether a response (or error) has been delivered."""
        return self._settled

    def set_result(self, response: ClassificationResponse) -> None:
        _settle_futures(((self, response, None),))

    def set_exception(self, error: BaseException) -> None:
        _settle_futures(((self, None, error),))

    def _settle(
        self, response: Optional[ClassificationResponse], error: Optional[BaseException]
    ) -> None:
        # The caller holds _settle_lock (see _settle_futures).
        if self._settled:
            raise ServiceError("request already settled; a future settles once")
        self._response = response
        self._error = error
        self._settled = True
        self._latch.release()

    def result(self, timeout: Optional[float] = None) -> ClassificationResponse:
        """Block until the response arrives; re-raise shard-side errors.

        ``timeout`` is in seconds (``None`` waits indefinitely, ``0`` only
        polls); :class:`~repro.errors.ResultTimeoutError` when it runs out.
        """
        if not self._settled:
            if self._latch.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                self._latch.release()
            elif not self._settled:
                # Re-checked: after the settle, another waiter may hold
                # the latch for the instant it takes to pass it on.
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
    once per admitted block together with ``cache_key`` (the words' raw
    bytes); it is all a shard scores, straight against the bSOM's cached
    bit-planes, without re-packing or re-validating.

    ``generation`` stamps the model generation current at submit time (the
    service bumps it on every hot-swap/evict) so the settle step never
    memoises a prediction that might predate a swap.  ``followers`` holds
    deduplicated requests with an identical in-flight packed signature
    (``None`` until the first one attaches): they never reach a shard; the
    one kernel execution of this (primary) request resolves them all.

    A request carries no trace: ``enqueued_at``, with its batch's stamps,
    is all the settle step needs to build one when the request is
    sampled.

    ``deadline_at`` is the absolute monotonic clock value after which the
    caller no longer wants an answer (``None`` = no deadline).  The service
    sheds expired requests at dispatch time and the shard sheds again just
    before kernel launch, each with a terminal
    :class:`~repro.errors.DeadlineExceededError`.
    """

    packed: np.ndarray
    model: str
    stream_id: str
    request_id: int
    cache_key: bytes
    enqueued_at: float
    pending: PendingResult = field(default_factory=PendingResult)
    generation: int = 0
    followers: Optional[list["ClassificationRequest"]] = field(default=None, init=False)
    deadline_at: Optional[float] = None

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed at clock value ``now``."""
        return self.deadline_at is not None and now > self.deadline_at


def _settle_futures(
    settles: Iterable[
        tuple[PendingResult, Optional[ClassificationResponse], Optional[BaseException]]
    ],
) -> None:
    """The one settle primitive: deliver each ``(future, response, error)``
    in one ``_settle_lock`` section.  A future settled before raises
    :class:`~repro.errors.ServiceError`, leaving those after it unsettled."""
    with _settle_lock:
        for future, response, error in settles:
            future._settle(response, error)


def resolve_requests(
    requests: Sequence[ClassificationRequest],
    outcome: Union[Outcome, list[CachedOutcome]],
    *,
    clock: Callable[[], float],
    stale: bool = False,
    shed: Optional[str] = None,
    record: Optional[Callable[[list[ClassificationResponse]], None]] = None,
    tracer: Optional[Tracer] = None,
    batch: Optional["MicroBatch"] = None,
) -> list[ClassificationResponse]:
    """Settle every request of a batch, and its dedup followers, once.

    ``outcome`` is a :class:`~repro.core.classifier.BatchPrediction` whose
    rows answer ``requests`` in order, the list of those rows when the
    caller has built it already (:meth:`CachedOutcome.rows
    <repro.serve.cache.CachedOutcome.rows>`; the service's settle writes
    the same list to the cache), a :class:`~repro.serve.cache.CachedOutcome`
    answering every request (a cache hit; ``stale`` marks the stale tier),
    or an error delivered to every future -- its traces then end
    ``"shed"`` with ``reason=shed`` when ``shed`` names one, else
    ``"error"``.  Followers share their primary's answer, marked
    ``deduplicated``, or its error.

    With a ``tracer``, each sampled request's trace is built here, whole,
    from its own and ``batch``'s stamps (:func:`_build_traces`).

    One pass: every response is built before the first future is set, so a
    fault while building leaves the batch unsettled for the caller to
    fail.  The traces are kept, and ``record`` (when given) is called
    with the responses, before the futures are set in one section, so a
    caller woken by ``result()`` can retrieve its complete trace and finds
    its answer counted.  Returns the responses built: the primaries in
    request order, then the followers.
    """
    now = clock()
    led = list(compress(range(len(requests)), map(_FOLLOWERS, requests)))
    owners = [row for row in led for _ in requests[row].followers]
    followers = [follower for row in led for follower in requests[row].followers]
    everyone = [*requests, *followers]
    trace_ids = tracer.sample(map(_REQUEST_ID, everyone)) if tracer is not None else {}
    if isinstance(outcome, BaseException):
        if trace_ids:
            failure = {"error": type(outcome).__name__}
            if shed is not None:
                failure["reason"] = shed
            tracer.keep(_build_traces(trace_ids, everyone, owners, batch, now,
                                      "error" if shed is None else "shed", failure=failure))
        _settle_futures(zip(map(_PENDING, everyone), repeat(None), repeat(outcome)))
        return []
    cached = isinstance(outcome, CachedOutcome)
    if cached:
        answers = [outcome] * len(requests)
    elif isinstance(outcome, BatchPrediction):
        answers = CachedOutcome.rows(outcome)
    else:
        answers = outcome
    column = list(map(trace_ids.get, range(len(everyone)))) if trace_ids else None
    responses = _respond(requests, answers, now, column, cached=cached, stale=stale)
    if followers:
        shared = list(map(answers.__getitem__, owners))
        responses += _respond(followers, shared, now, column and column[len(requests):],
                              deduplicated=True)
    if trace_ids:
        tracer.keep(_build_traces(trace_ids, everyone, owners, batch, now, "ok",
                                  responses=responses, cached=cached, stale=stale))
    if record is not None:
        record(responses)
    _settle_futures(zip(map(_PENDING, everyone), responses, repeat(None)))
    return responses


def _build_traces(
    trace_ids: dict[int, int],
    everyone: list[ClassificationRequest],
    owners: list[int],
    batch: Optional["MicroBatch"],
    now: float,
    status: str,
    *,
    responses: Optional[list[ClassificationResponse]] = None,
    cached: bool = False,
    stale: bool = False,
    failure: Optional[dict[str, str]] = None,
) -> list[Trace]:
    """The trace of each sampled row of ``everyone`` (``trace_ids`` maps
    those rows to trace ids): a batch's requests, then their followers,
    the ``k``-th following the request at row ``owners[k]``.

    A root runs from ``enqueued_at`` to ``now``, the settle's clock read,
    with ``label`` from ``responses`` and the answer's kind, or the
    ``failure`` attributes of an error.  A follower's one stage is
    ``dedup`` at its admission instant, linked to its primary's ``kernel``
    span when that is sampled.  A request's stages come from ``batch``:
    ``cache`` for a cached answer; none when refused at admission;
    ``queue`` until the cut once it headed for a lane; ``batch`` from the
    cut once dispatched; ``kernel`` from the shard's stamp, read for a
    scored batch only (its stamping thread delivered it).  The last stage
    ends at ``now`` but for the kernel's.
    """
    tail, follower_tail = (failure, failure) if failure is not None else ({}, _FOLLOWER)
    if cached:
        tail = {"cached": True, "stale": True} if stale else {"cached": True}
        stages = [("cache", None, now, {"hit": True, "stale": True} if stale else {"hit": True})]
    elif batch is None or batch.flushed_by == "submit":
        stages = []
    elif not batch.dispatched:
        stages = [("queue", None, now, None)]
    elif responses is None or batch.kernel is None:
        stages = [("queue", None, batch.cut_at, None), ("batch", batch.cut_at, now, None)]
    else:
        kernel = batch.kernel
        stages = [("queue", None, batch.cut_at, None),
                  ("batch", batch.cut_at, kernel.start_s, None),
                  ("kernel", kernel.start_s, kernel.end_s,
                   {"shard": kernel.shard, "model": batch.model, "batch_size": len(batch),
                    "weights_version": kernel.weights_version})]
    primaries = len(everyone) - len(owners)
    traces = []
    for row, trace_id in trace_ids.items():
        request = everyone[row]
        start = request.enqueued_at
        attrs = {"model": request.model, "stream_id": request.stream_id,
                 "request_id": request.request_id}
        if responses is not None:
            attrs["label"] = responses[row].label
        spans = [Span(0, ROOT_SPAN, start, now, None, attrs)]
        if row < primaries:
            for name, begin, end, stage_attrs in stages:
                spans.append(Span(len(spans), name, start if begin is None else begin, end, 0,
                                  None if stage_attrs is None else dict(stage_attrs)))
            attrs.update(tail)
        else:
            owner = owners[row - primaries]
            linked = trace_ids.get(owner)
            spans.append(Span(1, "dedup", start, start, 0,
                              {"primary_request_id": everyone[owner].request_id},
                              None if linked is None else [{"trace_id": linked, "span": "kernel"}]))
            attrs.update(follower_tail)
        traces.append(Trace(trace_id, spans, status))
    return traces


_FOLLOWERS = attrgetter("followers")
_PENDING = attrgetter("pending")
_REQUEST_ID = attrgetter("request_id")
_RESPONSE_FIELDS = attrgetter("model", "stream_id", "request_id", "enqueued_at")
#: A response from its thirteen field values, in field order.
_new_response = partial(tuple.__new__, ClassificationResponse)


def _respond(
    requests: Sequence[ClassificationRequest],
    answers: Sequence[CachedOutcome],
    now: float,
    trace_ids: Optional[list[Optional[int]]],
    *,
    cached: bool = False,
    stale: bool = False,
    deduplicated: bool = False,
) -> list[ClassificationResponse]:
    """The responses answering ``requests[i]`` with ``answers[i]``, with
    trace id ``trace_ids[i]`` (``None``: no request sampled).

    Built column-wise with ``map``/``zip``, so the per-row work runs in C
    loops: one answer tuple joined to the request's own fields.
    """
    if not requests:
        return []
    models, streams, ids, enqueued = zip(*map(_RESPONSE_FIELDS, requests))
    latencies = [now - enqueued_at for enqueued_at in enqueued]
    if min(latencies) < 0.0:  # stamped on another clock than this settle's
        latencies = [max(0.0, latency) for latency in latencies]
    own = zip(models, streams, ids, repeat(cached), latencies, repeat(deduplicated),
              repeat(stale), repeat(None) if trace_ids is None else trace_ids)
    return list(map(_new_response, map(tuple.__add__, answers, own)))
