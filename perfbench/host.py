"""Host fingerprint printed with every result, the keep-awake spinner and
the reference kernel that gauges the host CPU's speed."""

from __future__ import annotations

import contextlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

#: Spins at the lowest scheduling priority until its parent exits.
_SPIN = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(20000):
        pass
"""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        return "unknown"


def fingerprint(thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in thread_vars},
    }


@contextlib.contextmanager
def cpu_kept_awake():
    """Keep this process's CPU busy with a spinner of the lowest priority.

    On a virtual machine a CPU with nothing to run halts, and waking it
    waits until the host runs it again.  At 1000 req/s the service idles
    most of the time, and on a 2-vCPU virtual machine its median latency
    swung by up to half with the host's load.  The spinner (``SCHED_IDLE``,
    so any thread of the benchmark preempts it at once) keeps the CPU from
    halting.  It exits with this process, even when this one is killed.
    """
    if not hasattr(os, "SCHED_IDLE"):
        yield
        return
    spinner = subprocess.Popen([sys.executable, "-c", _SPIN, str(os.getpid())])
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


# --------------------------------------------------------------------- #
# host speed
# --------------------------------------------------------------------- #
#: The reference speed: one reference_kernel() call takes this much CPU time.
REFERENCE_KERNEL_S = 0.002
#: Seconds between two gauge readings.
GAUGE_EVERY_S = 0.2

_rng = np.random.default_rng(0)
_WEIGHTS = _rng.integers(0, 256, (40, 96), dtype=np.uint8)
_INPUTS = _rng.integers(0, 256, (256, 96), dtype=np.uint8)


def reference_kernel() -> int:
    """Fixed work of the program's kind, independent of its code.

    An interpreted loop over small NumPy calls on a 40 x 768-bit map --
    XOR, popcount, argmin, a neighbourhood update -- which is how the
    program spends its CPU in set-up (per-sample training) and in serving
    (per-request Python around small kernels).
    """
    weights = _WEIGHTS.copy()
    total = 0
    for i in range(100):
        x = _INPUTS[i % len(_INPUTS)]
        winner = int(np.argmin(np.bitwise_count(weights ^ x).sum(axis=1)))
        lo, hi = max(winner - 2, 0), min(winner + 3, len(weights))
        weights[lo:hi] = (weights[lo:hi] & 0xF0) | (x & 0x0F)
        total += winner + sum(range(40))
    return total


class SpeedGauge:
    """Gauges the speed of the CPU the benchmark runs on, while it runs.

    On a 2-vCPU virtual machine the CPU's speed flipped between two levels
    about 1.6x apart every few seconds (the host's other tenants; no steal
    time was reported), and over ten runs of one build set-up time spread
    by 0.17-0.32 of its median (IQR / median) and the saturation rate by
    0.17.  A daemon thread runs :func:`reference_kernel` every
    GAUGE_EVERY_S (about 1% of the CPU) and records the thread CPU time it
    took: CPU time, so waiting for the interpreter lock or for the
    program's threads does not count, only how fast the CPU ran.  Scaled
    by the speed over the same ten runs, those spreads were 0.05-0.08 and
    0.03.
    """

    def __init__(self) -> None:
        self._readings: list[tuple[float, float]] = []  # (monotonic end, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-gauge", daemon=True)

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5.0)

    def _run(self) -> None:
        while not self._stop.wait(GAUGE_EVERY_S):
            began = time.thread_time()
            reference_kernel()
            self._readings.append((time.monotonic(), time.thread_time() - began))

    def speed(self, start: float, end: float) -> float:
        """Speed over ``[start, end]`` (``time.monotonic``) relative to the
        reference: 1 at the reference speed, 0.8 on a CPU 25% slower.
        With no reading inside, the reading nearest the interval counts."""
        readings = list(self._readings)
        inside = [cpu for at, cpu in readings if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(readings, key=lambda reading: abs(reading[0] - middle))[1]]
        return REFERENCE_KERNEL_S / statistics.fmean(inside)
