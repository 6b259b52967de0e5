"""Set-up and load generators of both workloads.

Load comes from this one process: the camera loop uses one thread;
the serve workload uses one submit thread plus one thread that waits on
futures and stamps their completion.  Both stamp times themselves, so a
request is timed from when it was *due*, not from inside ``submit``.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro import api
from repro.errors import ResultTimeoutError, ServiceError, ServiceOverloadedError
from repro.pipeline import RecognitionSystem, RecognitionSystemConfig
from repro.serve import RolloutConfig
from repro.vision import Frame

from inputs import MIN_SILHOUETTE_PIXELS, CameraInputs, ServeInputs
from spans import SpanLog, clock

MODEL = "hall"
N_NEURONS = 40
CAMERA_EPOCHS = 10
SERVE_EPOCHS = 8
WARM_CHUNK = 256
RESULT_TIMEOUT_S = 30.0
STREAMS = tuple(f"cam-{index}" for index in range(16))

#: serve_churn writes: a hot-swap every SWAP_EVERY_S alternating the two
#: snapshots, and a rollout begun every ROLLOUT_EVERY_S that is promoted or
#: demoted (alternately) ROLLOUT_HOLD_S later.
SWAP_EVERY_S = 0.25
ROLLOUT_EVERY_S = 3.0
ROLLOUT_HOLD_S = 1.5
#: Rate blocks and saturation blocks a serve_churn run alternates, and
#: the rate blocks' share of the measured time.
ROUNDS = 5
RATE_SHARE = 1.0 / 3.0

UNRESOLVED, ANSWERED, REFUSED, FAILED = 0, 1, 2, 3


def _train(X, y, seed: int, epochs: int):
    start = clock()
    classifier = api.train(X, y, n_neurons=N_NEURONS, epochs=epochs, seed=seed)
    return classifier, clock() - start


# --------------------------------------------------------------------- #
# camera: closed loop, four RecognitionSystems on one service
# --------------------------------------------------------------------- #
class CameraRig:
    """Trained map, running service and four attached recognition systems."""

    def __init__(self, inputs: CameraInputs, obs=None):
        classifier, self.train_s = _train(
            inputs.train_X, inputs.train_y, seed=0, epochs=CAMERA_EPOCHS
        )
        snapshot = api.snapshot(classifier)
        self.service = api.serve({MODEL: snapshot}, obs=obs)
        self.systems = [
            self._system(snapshot, camera.background, f"cam-{index}")
            for index, camera in enumerate(inputs.cameras)
        ]
        # Warm-up on a throwaway system, so the measured ones start fresh.
        spare = self._system(snapshot, inputs.cameras[0].background, "warm-up")
        for frame in inputs.cameras[0].frames[:3]:
            spare.process_frame(frame)
        self.service.classify(MODEL, inputs.train_X[:WARM_CHUNK])
        self.snapshots = (snapshot,)

    def _system(self, snapshot, background, stream_id):
        system = RecognitionSystem(
            snapshot, RecognitionSystemConfig(min_blob_area=MIN_SILHOUETTE_PIXELS)
        )
        system.initialise_background(background)
        system.attach_service(self.service, MODEL, stream_id=stream_id)
        return system

    def close(self) -> None:
        self.service.stop()


class Seen(NamedTuple):
    """What the checks need of one observation, kept compact so the run's
    memory does not grow with the number of frames it processed."""

    bits: np.ndarray  # the signature, np.packbits-packed
    label: int
    distance: float
    box: tuple  # the blob's bounding box
    mask: Optional[np.ndarray]  # the blob's cropped silhouette (first replay only)


@dataclass
class CameraRun:
    frame_s: list[float] = field(default_factory=list)
    errors: int = 0
    #: (camera, sequence position, first replay?, [Seen, ...]) per frame.
    records: list = field(default_factory=list)


def drive_camera(rig: CameraRig, inputs: CameraInputs, seconds: float,
                 log: Optional[SpanLog] = None) -> CameraRun:
    """Feed the cameras round-robin until ``seconds`` passed and every
    camera played its sequence at least once.

    A camera's next frame goes only after its previous one returned: its
    tracker and background model need frame k before frame k+1.  Each
    replay of a sequence is brightened by one more grey level, as a slow
    lighting drift would, so no silhouette repeats a signature the cache
    has seen.  A frame is an error if it raised or the service did not
    accept exactly one request per silhouette (a retry or an in-process
    fallback).
    """
    requests = rig.service.obs.registry.get("serve_requests_total")
    length = len(inputs.cameras[0].frames)
    views = [Frame(index=0, image=camera.frames[0].image) for camera in inputs.cameras]
    run = CameraRun()
    deadline = clock() + seconds
    position = 0
    while position < length or clock() < deadline:
        replay, k = divmod(position, length)
        drift = np.minimum(np.arange(256) + replay, 255).astype(np.uint8)
        for cam, system in enumerate(rig.systems):
            view = views[cam]
            image = inputs.cameras[cam].frames[k].image
            view.image = np.take(drift, image) if replay else image
            view.index = position
            accepted = requests.value
            with log.open("frame") if log is not None else contextlib.nullcontext():
                began = clock()
                try:
                    observations = system.process_frame(view)
                except Exception:  # counted; the run reports it as failed
                    observations = None
                run.frame_s.append(clock() - began)
            if observations is None or requests.value - accepted != len(observations):
                run.errors += 1
            if observations is not None:
                first = replay == 0
                run.records.append((cam, k, first, [
                    Seen(np.packbits(obs.signature.bits), obs.label, obs.distance,
                         obs.blob.bounding_box, obs.blob.cropped if first else None)
                    for obs in observations
                ]))
        position += 1
    return run


# --------------------------------------------------------------------- #
# serve_churn: open-loop rate phase, then a closed-loop saturation phase
# --------------------------------------------------------------------- #
class ServeRig:
    """Two trained snapshots; the first behind one running service with
    default config and rollouts enabled, the second for the writes."""

    def __init__(self, inputs: ServeInputs, obs=None):
        self.train_s = 0.0
        snapshots = []
        for seed in (0, 1):
            classifier, seconds = _train(
                inputs.train_X, inputs.train_y, seed=seed, epochs=SERVE_EPOCHS
            )
            self.train_s += seconds
            snapshots.append(api.snapshot(classifier))
        self.snapshots = tuple(snapshots)
        self.service = api.serve({MODEL: snapshots[0]}, obs=obs)
        self.service.enable_rollouts(RolloutConfig(auto=False))
        for begin in range(0, len(inputs.warm_keys), WARM_CHUNK):
            keys = inputs.warm_keys[begin : begin + WARM_CHUNK]
            self.service.classify(MODEL, inputs.pool[keys])

    def close(self) -> None:
        self.service.stop()


class Ledger:
    """Due, submit-start and completion times plus the answer of each request."""

    def __init__(self, keys: np.ndarray):
        n = len(keys)
        self.keys = keys
        self.offered = 0
        self.due = np.zeros(n)
        self.start = np.zeros(n)
        self.done = np.zeros(n)
        self.status = np.zeros(n, dtype=np.int8)
        self.label = np.full(n, -2, dtype=np.int64)
        self.neuron = np.full(n, -2, dtype=np.int64)
        self.distance = np.full(n, np.nan)
        self.rejected = np.zeros(n, dtype=bool)
        self.request_id = np.full(n, -1, dtype=np.int64)

    def view(self, name: str) -> np.ndarray:
        return getattr(self, name)[: self.offered]


def _settle(ledger: Ledger, i: int, future) -> None:
    try:
        response = future.result(RESULT_TIMEOUT_S)
    except ResultTimeoutError:
        return  # stays UNRESOLVED, which fails the run
    except ServiceOverloadedError:
        ledger.status[i] = REFUSED
    except Exception:  # any other failure is counted, not raised
        ledger.status[i] = FAILED
    else:
        ledger.label[i] = response.label
        ledger.neuron[i] = response.neuron
        ledger.distance[i] = response.distance
        ledger.rejected[i] = response.rejected
        ledger.request_id[i] = response.request_id
        ledger.status[i] = ANSWERED
    ledger.done[i] = clock()


class Completer:
    """The one thread that waits on futures and stamps their completion.

    Futures are awaited in submission order, so one resolved ahead of an
    earlier one is stamped when the earlier one resolves (at most one
    micro-batch later).
    """

    def __init__(self) -> None:
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="bench-completer")
        self._thread.start()

    def put(self, ledger: Ledger, i: int, future, slot) -> None:
        self._queue.put((ledger, i, future, slot))

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            ledger, i, future, slot = item
            _settle(ledger, i, future)
            if slot is not None:
                slot.release()

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join(RESULT_TIMEOUT_S + 5.0)
        if self._thread.is_alive():
            raise RuntimeError("completion thread did not finish")


def paced(offsets: np.ndarray, start_at: float, *, now=clock, sleep=time.sleep):
    """Yield ``(i, due)`` as each due time arrives.

    A generator that falls behind yields at once without catching up on
    sleep, so its lateness lands in every later request's due-time latency.
    """
    for i, offset in enumerate(offsets):
        due = start_at + float(offset)
        delay = due - now()
        if delay > 0:
            sleep(delay)
        yield i, due


class Writes:
    """serve_churn's hot-swaps and rollout cycles, run on the submit thread."""

    def __init__(self, rig: ServeRig):
        self.rig = rig
        self.offered = self.failed = 0
        self.swaps = self.rollouts = 0
        self._next_swap = SWAP_EVERY_S
        self._next_begin = 1.0
        self._end_at: Optional[float] = None
        self._active = 1  # snapshot index the next swap installs

    def run_due(self, elapsed: float) -> None:
        """Perform every write due by ``elapsed`` seconds into the window."""
        while self._next_swap <= elapsed:
            self._next_swap += SWAP_EVERY_S
            self._do(self._swap)
        if self._end_at is not None and self._end_at <= elapsed:
            self._end_at = None
            self._do(self._end_rollout)
        if self._next_begin <= elapsed:
            self._next_begin += ROLLOUT_EVERY_S
            self._end_at = elapsed + ROLLOUT_HOLD_S
            self._do(self._begin_rollout)

    def _do(self, action) -> None:
        self.offered += 1
        try:
            action()
        except Exception:  # counted; the run reports it as failed
            self.failed += 1

    def _swap(self) -> None:
        api.swap(self.rig.service, MODEL, self.rig.snapshots[self._active])
        self._active ^= 1
        self.swaps += 1

    def _begin_rollout(self) -> None:
        api.rollout(self.rig.service, MODEL, self.rig.snapshots[self._active])

    def _end_rollout(self) -> None:
        manager = self.rig.service.rollouts
        finish = manager.promote if self.rollouts % 2 == 0 else manager.demote
        if not finish(MODEL):
            raise RuntimeError("rollout was no longer active")
        self.rollouts += 1


def _offer(service, ledger: Ledger, i: int, signature, completer: Completer, slot) -> None:
    ledger.offered = i + 1
    ledger.start[i] = clock()
    try:
        future = service.submit(signature, model=MODEL, stream_id=STREAMS[i % len(STREAMS)])
    except ServiceOverloadedError:
        ledger.status[i] = REFUSED
    except ServiceError:
        ledger.status[i] = FAILED
    else:
        if not future.done():
            completer.put(ledger, i, future, slot)
            return
        _settle(ledger, i, future)
        if slot is not None:
            slot.release()
        return
    ledger.done[i] = clock()
    if slot is not None:
        slot.release()


@dataclass
class ServeRun:
    rate: Ledger
    sat: Ledger
    #: (start, end) of each saturation block.
    sat_windows: list
    #: Process CPU seconds while the saturation blocks submitted.
    sat_cpu_s: float
    writes: Writes

    def in_sat_window(self, times) -> np.ndarray:
        """Which of ``times`` fall inside a saturation block."""
        times = np.asarray(times)
        inside = np.zeros(times.shape, dtype=bool)
        for start, end in self.sat_windows:
            inside |= (times >= start) & (times < end)
        return inside

    @property
    def sat_answered_in_window(self) -> int:
        answered = self.sat.view("status") == ANSWERED
        return int(np.count_nonzero(answered & self.in_sat_window(self.sat.view("done"))))


def drive_serve(rig: ServeRig, inputs: ServeInputs, seconds: float, *,
                outstanding: int) -> ServeRun:
    """Alternate ROUNDS rate blocks and ROUNDS saturation blocks, so both
    phases sample the host over the whole run rather than one part of it
    each.  The rate blocks take RATE_SHARE of ``seconds``: their median
    latency is set by the batch deadline and steadier than the saturation
    rate, which gets the rest.

    A rate block replays its slice of the Poisson schedule.  A saturation
    block keeps at most ``outstanding`` requests in flight, below the
    pending budget and below what the shard queues hold in full batches,
    so it saturates the service without refusals; any refusal would still
    be counted and fail ``ok_ratio``.  Each saturation block drains before
    the next rate block starts, so its backlog is not billed to the rate
    phase's latency.  The writes run on their own schedule across blocks.
    """
    service = rig.service
    writes = Writes(rig)
    completer = Completer()
    rate_s = seconds * RATE_SHARE / ROUNDS
    sat_s = seconds * (1.0 - RATE_SHARE) / ROUNDS
    offsets = inputs.rate_offsets
    rate, sat = Ledger(inputs.rate_keys), Ledger(inputs.sat_keys)
    slot = threading.BoundedSemaphore(outstanding)
    windows, sat_cpu, i_sat = [], 0.0, 0
    try:
        run_start = clock()
        for block in range(ROUNDS):
            first, last = np.searchsorted(offsets, (block * rate_s, (block + 1) * rate_s))
            start_at = clock() + 0.005
            for j, due in paced(offsets[first:last] - block * rate_s, start_at):
                i = first + j
                writes.run_due(due - run_start)
                rate.due[i] = due
                _offer(service, rate, i, inputs.pool[inputs.rate_keys[i]], completer, None)
            cpu = time.process_time()
            began = clock()
            end = began + sat_s
            while (now := clock()) < end:
                if i_sat == len(inputs.sat_keys):
                    raise RuntimeError("saturation phase ran out of scheduled keys")
                writes.run_due(now - run_start)
                slot.acquire()
                sat.due[i_sat] = clock()
                _offer(service, sat, i_sat, inputs.pool[inputs.sat_keys[i_sat]],
                       completer, slot)
                i_sat += 1
            sat_cpu += time.process_time() - cpu
            windows.append((began, end))
            for _ in range(outstanding):  # drain the block
                slot.acquire()
            for _ in range(outstanding):
                slot.release()
    finally:
        completer.close()
    return ServeRun(rate, sat, windows, sat_cpu, writes)
