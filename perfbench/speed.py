"""CPU-speed probe for calibrating wall times on shared hardware.

On a virtual machine that shares physical cores with other tenants, the
speed of one virtual CPU drifts by tens of percent over tens of seconds, and
the two CPUs drift independently.  A run that lands in a slow stretch then
reads slow whatever the code does.  The harness therefore pins itself and
all its children to one CPU, and a thread of the harness times two fixed
pure-Python kernels on that CPU every ``PERIOD_S``.  Each sample gives a
relative speed, the mean over the kernels of ``REF_S[kernel] / kernel
time``.  A calibrated duration is the raw duration times the mean relative
speed over the samples taken during it, which integrates the CPU's speed
over the interval: it is the time the interval would take at the speed
where each kernel takes its ``REF_S``.  Raw times are reported next to
calibrated ones.

The two kernels track two kinds of slow-down: ``int`` (interpreter-bound
arithmetic) follows code dominated by Python overhead on small arrays, and
``mem`` (random reads over a 1M-element list, ~40 MB) follows code that
streams large data, such as JSON encoding of big arrays.  On the machine
where the benchmark was defined, each kernel alone left a 7-8 % run-to-run
spread on some workload in five-seed trials, and their mean 3-4 %.
"""

from __future__ import annotations

import random
import statistics
import threading
import time

PERIOD_S = 0.1
# Kernel times that define the reference speed: about the slow state of the
# 2-vCPU Xeon VM on which the benchmark was defined.
REF_S = {"int": 1.0e-3, "mem": 1.5e-3}
# Intervals with fewer samples than this use the samples nearest to them.
MIN_SAMPLES = 3


class SpeedProbe:
    """Samples ``(time, relative speed)`` in a background thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self):
        big = list(range(1_000_000))
        indices = list(range(0, len(big), 499))
        random.Random(0).shuffle(indices)

        def int_kernel():
            s = 0
            for i in range(10_000):
                s += i * i
            return s

        def mem_kernel():
            s = 0
            for i in indices:
                s += big[i]
            return s

        kernels = {"int": int_kernel, "mem": mem_kernel}
        while not self._stop.is_set():
            at = time.perf_counter()
            speed = 0.0
            for name, kernel in kernels.items():
                start = time.thread_time()
                kernel()
                speed += REF_S[name] / (time.thread_time() - start) / len(kernels)
            self.samples.append((at, speed))
            self._stop.wait(PERIOD_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def calibrate(self, start: float, end: float) -> float:
        """The duration ``end - start`` at the reference speed."""
        samples = list(self.samples)
        inside = [speed for at, speed in samples if start <= at <= end]
        if len(inside) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [speed for _, speed in nearest]
        return (end - start) * statistics.fmean(inside)
