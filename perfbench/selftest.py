"""Self-tests of the benchmark's own arithmetic and pacing.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from endtoend import block_rate  # noqa: E402
from host import REFERENCE_KERNEL_S, SpeedGauge  # noqa: E402
from spans import SpanLog, due_latencies, percentile, self_time, tail_supported  # noqa: E402
from workloads import paced  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_children_overlapping_across_threads(self):
        # Parent [0, 10]; children from two threads overlap each other and
        # one runs past the parent's end: covered = [1, 6] + [8, 10].
        children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
        self.assertAlmostEqual(self_time(0.0, 10.0, children), 3.0)

    def test_nested_and_disjoint_children(self):
        self.assertAlmostEqual(self_time(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7)]), 9.0)
        self.assertAlmostEqual(self_time(0.0, 10.0, []), 10.0)
        self.assertAlmostEqual(self_time(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]), 10.0)

    def test_spans_recorded_on_two_threads(self):
        class Layer:
            def work(self, barrier):
                barrier.wait(5.0)

        log = SpanLog()
        layer = Layer()
        log.wrap(layer, "work", "layer")
        barrier = threading.Barrier(2)
        with log.open("root"):
            worker = threading.Thread(target=layer.work, args=(barrier,))
            worker.start()
            layer.work(barrier)
            worker.join(5.0)
        self.assertFalse(worker.is_alive())
        log.restore()
        self.assertNotIn("work", vars(layer))
        (root,) = log.by_name("root")
        works = log.by_name("layer")
        self.assertEqual(len(works), 2)
        # Only the root's own thread nests under it; the worker's span is a
        # root of its own thread, yet both overlap the root in time.
        self.assertEqual(sorted(span.parent for span in works), [0, root.sid])
        covered = self_time(root.start, root.end, [(s.start, s.end) for s in works])
        self.assertLess(covered, root.end - root.start)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond_the_percentile(self):
        self.assertFalse(tail_supported(999, 99))
        self.assertTrue(tail_supported(1000, 99))
        self.assertFalse(tail_supported(19, 50))
        self.assertTrue(tail_supported(20, 50))
        self.assertTrue(tail_supported(10000, 99.9))
        self.assertFalse(tail_supported(9999, 99.9))

    def test_refused_requests_miss_every_limit(self):
        due = np.zeros(4)
        done = np.array([0.001, 0.002, 0.003, 0.004])
        latency = due_latencies(due, done, np.array([True, True, True, False]))
        self.assertEqual(percentile(latency, 99), np.inf)
        self.assertAlmostEqual(percentile(latency, 50), 0.003)  # the higher neighbour


class BlockRate(unittest.TestCase):
    def test_only_completions_inside_blocks_count(self):
        # 5 completions inside [0, 2.5) and 7 inside [10, 12); 5.0 and 12.5
        # fall outside every block.
        done = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 5.0,
                         10.1, 10.2, 10.3, 11.1, 11.2, 11.3, 11.4, 12.5])
        rate = block_rate(done, [(0.0, 2.5), (10.0, 12.0)])
        self.assertAlmostEqual(rate, 12 / 4.5)

    def test_block_lengths_scaled_to_the_reference_speed(self):
        # At half the reference speed, 4.5 s of blocks do 2.25 s of work.
        done = np.array([0.1, 0.2, 10.1])
        rate = block_rate(done, [(0.0, 2.5), (10.0, 12.0)], lambda start, end: 0.5)
        self.assertAlmostEqual(rate, 3 / 2.25)


class HostSpeed(unittest.TestCase):
    def test_speed_from_the_readings_inside_or_nearest(self):
        gauge = SpeedGauge()  # never started: readings put by hand
        gauge._readings[:] = [(1.0, 0.002), (2.0, 0.006), (10.0, 0.001)]
        self.assertAlmostEqual(gauge.speed(0.5, 2.5), REFERENCE_KERNEL_S / 0.004)
        self.assertAlmostEqual(gauge.speed(8.0, 9.0), REFERENCE_KERNEL_S / 0.001)


class DueTimeLatency(unittest.TestCase):
    def test_generator_stall_shows_in_later_requests(self):
        """A 50 ms stall at request 10 delays the requests queued behind it."""
        clock = {"t": 0.0}
        now = lambda: clock["t"]  # noqa: E731

        def sleep(seconds):
            clock["t"] += seconds

        offsets = np.arange(100) * 0.001  # one request due every millisecond
        service_s = 0.0001
        due = np.zeros(100)
        start = np.zeros(100)
        done = np.zeros(100)
        for i, due_at in paced(offsets, 1.0, now=now, sleep=sleep):
            due[i], start[i] = due_at, now()
            if i == 10:
                clock["t"] += 0.050  # the generator stalls inside this submit
            clock["t"] += service_s
            done[i] = now()
        inside_submit = done - start
        from_due = due_latencies(due, done, np.ones(100, dtype=bool))
        late = start - due
        # Timed from inside submit, only the stalled request looks slow...
        self.assertEqual(int(np.count_nonzero(inside_submit > 0.001)), 1)
        # ...timed from the due time, every request due during the stall or
        # while the backlog drains waits for it too, and the generator
        # reports itself late.
        self.assertGreaterEqual(int(np.count_nonzero(from_due > 0.001)), 50)
        self.assertAlmostEqual(from_due[11], 0.050 + service_s - 0.001 + service_s, places=9)
        self.assertGreater(percentile(late, 99), 0.040)
        self.assertAlmostEqual(late[0], 0.0)


if __name__ == "__main__":
    unittest.main()
