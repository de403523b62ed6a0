"""Machine-speed reference: scales measured times to a fixed nominal speed.

Shared hosts change speed by up to 1.5 times, within seconds and for minutes
at a time, and a 25-second run cannot wait that out.  So the benchmark times
a fixed pure-Python kernel next to the program, in the same process, and
reports every end-to-end time scaled to the speed at which one kernel sample
takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / kernel sample time around the measurement

A child samples the kernel on request (before and after it imports
``hotspots.cli``, between jobs) and from a SIGALRM timer every ``TIMER_S``
while a job or the import runs, so a job of several seconds still sees the
speed changes inside it.  The time the timer's samples take is subtracted
from the job or set-up they interrupted.  A program change does not change
the kernel, so a faster program still reads faster; a slower host does not.

Only ``bisect``, ``math``, ``signal`` and ``time`` are imported here: the
child starts sampling before it imports ``hotspots.cli``, inside the set-up
being timed.
"""

import bisect
import math
import signal
import time

KERNEL_ITERS = 1500
#: kernel runs per sample; a sample is their median
KERNEL_RUNS = 3
#: kernel sample time at the nominal speed.  Scaled times are not wall
#: times: a sample taken amid the program's work is slower than the kernel
#: run alone, so they read above the wall times of a fast host.
NOMINAL_S = 4.5e-4
#: a job's speed is the median sample within this many seconds of it
WINDOW_S = 0.1
#: period of the in-job sampling timer
TIMER_S = 0.05


def _kernel() -> float:
    s = 0.0
    for i in range(1, KERNEL_ITERS):
        s += math.sqrt(i) * 1.000001 / (i + 0.5)
    return s


def sample() -> tuple[float, float]:
    """(perf_counter at the start, median kernel seconds) of one sample."""
    start = time.perf_counter()
    runs = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    runs.sort()
    return start, runs[KERNEL_RUNS // 2]


def median(values):
    values = sorted(values)
    n = len(values)
    return values[n // 2] if n % 2 else 0.5 * (values[n // 2 - 1] + values[n // 2])


def scale(seconds: float, kernel_s: float) -> float:
    return seconds * NOMINAL_S / kernel_s


class Sampler:
    """The kernel samples of one process, taken on request and by timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        #: (start, seconds) of every sample the timer took
        self.interruptions: list[tuple[float, float]] = []

    def take(self) -> None:
        self.samples.append(sample())

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.take()
        self.interruptions.append((t0, time.perf_counter() - t0))

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interrupted_s(self, start: float, end: float) -> float:
        """Seconds the timer's samples took between start and end."""
        return sum(d for t, d in self.interruptions if start <= t < end)

    def scale_spans(self, spans) -> list[float]:
        """Scale each (start, seconds) span, less its interruptions.

        The kernel time of a span is the median of the samples within
        WINDOW_S of it; the last sample before the span and the first after
        it always count.
        """
        samples = sorted(self.samples)
        times = [t for t, _ in samples]
        scaled = []
        for start, seconds in spans:
            end = start + seconds
            lo = min(bisect.bisect_left(times, start - WINDOW_S),
                     max(bisect.bisect_right(times, start) - 1, 0))
            hi = max(bisect.bisect_right(times, end + WINDOW_S),
                     min(bisect.bisect_left(times, end) + 1, len(times)))
            scaled.append(scale(seconds - self.interrupted_s(start, end),
                                median([k for _, k in samples[lo:hi]])))
        return scaled
