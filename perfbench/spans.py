"""Spans recorded around the calls into each layer, and their arithmetic.

:class:`SpanLog` wraps public callables -- module functions, methods of one
object, or methods of a class -- so every call leaves a span ``(id,
parent, name, start, end, cpu)`` in memory.  The parent is the innermost span
open on the calling thread, so nesting needs no cooperation from the
program.  Work that crosses threads (queue waits, kernels, settling) is
attached to its root afterwards by request id.

Each span has a wall interval and the CPU time its thread spent inside
it.  Wall times use ``time.monotonic``, the clock the service stamps its
own trace spans with, so both sets of spans share one timeline; CPU times
use ``time.thread_time``, which leaves out the time a thread waited for
the interpreter lock or for the host.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Iterable, NamedTuple, Optional

import numpy as np

clock = time.monotonic
cpu_clock = time.thread_time

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p99 needs 1000 samples).
MIN_TAIL_SAMPLES = 10


def tail_supported(n: int, q: float) -> bool:
    """Whether percentile ``q`` (0-100) of ``n`` samples has enough tail."""
    return n * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9


def percentile(values, q: float) -> float:
    """Percentile ``q`` of ``values`` (``inf`` entries count as misses)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.percentile(values, q, method="higher"))


def union_length(intervals: Iterable[tuple[float, float]],
                 lo: float = -np.inf, hi: float = np.inf) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may come from several threads and overlap each other; only
    the union of their intervals inside the parent is subtracted.
    """
    return (end - start) - union_length(children, start, end)


def due_latencies(due: np.ndarray, done: np.ndarray, answered: np.ndarray) -> np.ndarray:
    """Latency from each request's due time; refused or failed ones are ``inf``."""
    return np.where(answered, done - due, np.inf)


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    cpu: float


class SpanLog:
    """In-memory spans of wrapped calls; :meth:`restore` unwraps them all."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Extra facts a wrapper captured from a call's result, by span id.
        self.notes: dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> "_Open":
        """A context manager recording one span (used for root spans)."""
        return _Open(self, name)

    def wrap(self, owner, attr: str, name: str, *,
             note: Optional[Callable[[Any, tuple], Any]] = None,
             skip: Optional[Callable[[], bool]] = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``note(result, args)`` may derive a fact from each call to keep in
        :attr:`notes`; ``skip()`` returning true lets a call through
        unrecorded (e.g. calls made on threads outside the measured path).
        """
        inner = getattr(owner, attr)
        own = vars(owner)
        spans, notes, ids, stack_of = self.spans, self.notes, self._ids, self._stack

        def recorded(*args, **kwargs):
            if skip is not None and skip():
                return inner(*args, **kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            cpu = cpu_clock()
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu
                stack.pop()
                spans.append(Span(sid, parent, name, start, end, cpu))
            if note is not None:
                notes[sid] = note(result, args)
            return result

        if attr in own:  # a module, a class, or an instance's own attribute
            original = own[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # a bound method: deleting the shadow restores the class's
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, recorded)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def children(self) -> dict[int, list[Span]]:
        """Same-thread children of every span, by parent id."""
        tree: dict[int, list[Span]] = {}
        for span in self.spans:
            tree.setdefault(span.parent, []).append(span)
        return tree


class _Open:
    def __init__(self, log: SpanLog, name: str):
        self._log, self._name = log, name

    def __enter__(self) -> int:
        stack = self._log._stack()
        self._parent = stack[-1] if stack else 0
        self.sid = next(self._log._ids)
        stack.append(self.sid)
        self._cpu = cpu_clock()
        self._start = clock()
        return self.sid

    def __exit__(self, *exc_info) -> None:
        end = clock()
        cpu = cpu_clock() - self._cpu
        self._log._stack().pop()
        self._log.spans.append(
            Span(self.sid, self._parent, self._name, self._start, end, cpu))
