"""The micro-batching scheduler at the heart of the serving layer.

The FPGA earns its throughput by scoring one signature against all neurons
in parallel; the software batch path earns its own by scoring *many
signatures* against all neurons in one distance-kernel call.
The scheduler's job is to manufacture those batches from a trickle of
single-signature requests arriving from many camera streams:

* a batch is flushed as soon as it reaches ``batch_size`` requests
  (size-bounded), or
* when its oldest request has waited ``max_delay_s`` (deadline-bounded),
  so a lone camera at 3 a.m. still gets answers within the deadline.

Each registered model gets its own accumulation lane, because batches can
only be scored by one classifier.  The scheduler is purely passive -- it
never starts threads and owns no clock beyond the injectable ``clock``
callable -- which keeps flush behaviour exactly testable; the service's
dispatcher thread drives :meth:`due` off :meth:`next_deadline`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.serve.request import ClassificationRequest


@dataclass(frozen=True)
class MicroBatch:
    """A flushed group of requests for one model.

    Attributes
    ----------
    model:
        Registry model the batch is destined for.
    requests:
        The member requests, in arrival order.
    capacity:
        The scheduler's ``batch_size`` when the batch was cut; with
        :attr:`fill_fraction` this is the batch-fill telemetry signal.
    flushed_by:
        ``"size"``, ``"deadline"`` or ``"drain"`` -- why the batch was cut;
        ``"submit"`` for the one-request batch of a request the service
        settles at submit (a cache answer or a refusal).
    cut_at:
        Scheduler clock value at the moment the batch was cut; request
        traces use it as the queue-wait / batch-wait span boundary.
    """

    model: str
    requests: tuple[ClassificationRequest, ...]
    capacity: int
    flushed_by: str
    cut_at: float = 0.0

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def fill_fraction(self) -> float:
        """How full the batch was when cut (1.0 = size-triggered flush)."""
        return len(self.requests) / float(self.capacity)

    def partition_expired(
        self, now: float
    ) -> tuple[Optional["MicroBatch"], Optional["MicroBatch"]]:
        """Split into ``(live, expired)`` sub-batches by request deadline.

        Deadline shedding happens twice -- at dispatch and again just
        before kernel launch -- and both sites use this split so the live
        remainder keeps its batch metadata (capacity, flush reason, cut
        time) for telemetry.  The common no-deadline case returns
        ``(self, None)`` without allocating.
        """
        if all(r.deadline_at is None for r in self.requests):
            return self, None
        live = tuple(r for r in self.requests if not r.expired(now))
        if len(live) == len(self.requests):
            return self, None
        expired = tuple(r for r in self.requests if r.expired(now))
        live_batch = (
            dataclasses.replace(self, requests=live) if live else None
        )
        expired_batch = dataclasses.replace(self, requests=expired)
        return live_batch, expired_batch


class MicroBatchScheduler:
    """Size/deadline-bounded request accumulator, one lane per model.

    Parameters
    ----------
    batch_size:
        Flush as soon as a lane holds this many requests.
    max_delay_s:
        Flush a lane once its oldest request has waited this long.
    clock:
        Monotonic time source; injectable so tests can step time manually.
    """

    def __init__(
        self,
        batch_size: int = 32,
        max_delay_s: float = 0.005,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        if max_delay_s <= 0:
            raise ConfigurationError(
                f"max_delay_s must be positive, got {max_delay_s}"
            )
        self.batch_size = int(batch_size)
        self.max_delay_s = float(max_delay_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._lanes: dict[str, list[ClassificationRequest]] = {}
        self._oldest: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Submission and flushing
    # ------------------------------------------------------------------ #
    def submit(self, request: ClassificationRequest) -> Optional[MicroBatch]:
        """Queue one request; returns a batch when it filled the lane."""
        with self._lock:
            lane = self._lanes.setdefault(request.model, [])
            if not lane:
                self._oldest[request.model] = self._clock()
            lane.append(request)
            if len(lane) >= self.batch_size:
                return self._cut(request.model, "size")
        return None

    def due(self) -> list[MicroBatch]:
        """Cut every lane whose oldest request has exceeded the deadline."""
        now = self._clock()
        batches: list[MicroBatch] = []
        with self._lock:
            for model in list(self._lanes):
                if self._lanes[model] and now - self._oldest[model] >= self.max_delay_s:
                    batches.append(self._cut(model, "deadline"))
        return batches

    def drain(self) -> list[MicroBatch]:
        """Cut every non-empty lane regardless of size or age (shutdown)."""
        with self._lock:
            return [
                self._cut(model, "drain")
                for model in list(self._lanes)
                if self._lanes[model]
            ]

    def cut_lane(self, model: str) -> Optional[MicroBatch]:
        """Cut one model's lane immediately (empty lane returns ``None``).

        Model eviction uses this to pull the evicted model's buffered
        requests out of the scheduler so their futures can be failed
        promptly instead of waiting for the deadline flush to discover the
        name no longer routes.
        """
        with self._lock:
            if self._lanes.get(model):
                return self._cut(model, "drain")
        return None

    def _cut(self, model: str, reason: str) -> MicroBatch:
        # Caller holds the lock.
        requests = tuple(self._lanes[model])
        self._lanes[model] = []
        self._oldest.pop(model, None)
        return MicroBatch(
            model=model,
            requests=requests,
            capacity=self.batch_size,
            flushed_by=reason,
            cut_at=self._clock(),
        )

    # ------------------------------------------------------------------ #
    # Introspection for the dispatcher
    # ------------------------------------------------------------------ #
    def next_deadline(self) -> Optional[float]:
        """Clock value at which the earliest lane becomes due, if any."""
        with self._lock:
            if not self._oldest:
                return None
            return min(self._oldest.values()) + self.max_delay_s

    def pending_count(self, model: Optional[str] = None) -> int:
        """Requests currently buffered (for one model, or in total)."""
        with self._lock:
            if model is not None:
                return len(self._lanes.get(model, ()))
            return sum(len(lane) for lane in self._lanes.values())
