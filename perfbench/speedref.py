"""Machine-speed reference: fixed kernels timed next to every request.

The benchmark's machine is a few cores of a shared host. Its speed drifts
by 20-40% over seconds to minutes as neighbours load the shared caches and
execution units, and process CPU time drifts with it, so neither wall time
nor CPU time of a request is steady from run to run. The benchmark
therefore times a fixed reference kernel, which is independent of geoflow,
next to each request, and reports each request's latency divided by the
machine's slowness at the time: the kernel's measured time over its
nominal time. A change to geoflow moves the request times but not the
kernel times, so it shows in full in the rescaled figures.

The kernel has three parts, timed separately, that stand for the kinds of
work geoflow does: interpreted Python over tiny numpy arrays (catalog
closures, right-hand sides, the stepper), FFTs (mollification), and
streaming, gathering and sorting over arrays larger than the L2 cache (mesh
build and Dijkstra). The kernel allocates nothing large, so its time does
not depend on the allocator state that a request leaves behind.

A sample is taken right after each request and, by an interval timer
(SIGALRM), every ``interval_s`` during it. The time spent sampling inside a
request is subtracted from that request's latency.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel part times (s) over long runs on a shared 2-core VM
# (Xeon, Python 3.11, numpy 2.4). They only fix the scale of the rescaled
# figures, so that those read close to wall-clock figures on that machine.
NOMINAL_S = {"interp": 1.2e-3, "fft": 0.5e-3, "stream": 1.5e-3}

_rng = np.random.default_rng(0)
_N = 1 << 16  # 512 KiB per float array, 2.5 MiB working set in all
_A, _B = _rng.random(_N), _rng.random(_N)
_OUT, _TMP = np.empty(_N), np.empty(_N)
_IDX = _rng.integers(0, _N, _N)
_FFT_IN = _rng.random(1 << 12)  # 32 KiB in, 32 KiB out: served from the heap arena
_SMALL = np.linspace(0.0, 1.0, 9)


def _interp():
    s = 0.0
    for k in range(300):
        b = _SMALL * k
        s += float(np.dot(b, _SMALL)) + sum(range(20))
    return s


def _fft():
    s = 0.0
    for _ in range(8):
        s += float(np.fft.rfft(_FFT_IN)[1].real)
    return s


def _stream():
    np.multiply(_A, _B, out=_OUT)
    np.take(_B, _IDX, out=_TMP)
    np.add(_OUT, _TMP, out=_OUT)
    np.copyto(_TMP, _A)
    _TMP.sort()
    return float(_OUT[0] + _TMP[0])


KERNELS = (("interp", _interp), ("fft", _fft), ("stream", _stream))


def sample():
    """Time each kernel part once; returns {part: seconds}."""
    out = {}
    for name, fn in KERNELS:
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def slowness(samples):
    """Machine slowness (1.0 = nominal) from a list of samples: the median
    over samples of the mean over parts of measured / nominal time."""
    return statistics.median(
        sum(s[name] / NOMINAL_S[name] for name in NOMINAL_S) / len(NOMINAL_S)
        for s in samples
    )


class SpeedProbe:
    """Samples the reference kernel during requests (by SIGALRM) and after
    them, and keeps the time it spent so it can be taken off latencies."""

    def __init__(self, interval_s=0.1):
        self.interval_s = interval_s
        self.busy_s = self.inside_s = 0.0
        self.samples = []
        self._first = 0
        for _, fn in KERNELS:  # warm up: first calls pay for imports and caches
            fn()
        # Installed for good: a SIGALRM still pending when the timer stops
        # only takes one more sample.
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _take(self):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.busy_s += time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self._take()

    def __enter__(self):
        """Start sampling during a request."""
        self._start_busy = self.busy_s
        self._first = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.inside_s = self.busy_s - self._start_busy
        return False

    def after(self):
        """Sample right after a request; returns the samples taken during
        and right after it."""
        self._take()
        return self.samples[self._first:]
