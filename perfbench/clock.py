"""Machine-speed normalisation of the end-to-end times.

The shared host this benchmark was built on changes speed by up to 40%
within seconds (see README.md), so raw wall time measures the neighbours as
much as the program.  Both end-to-end times are therefore rescaled by a
fixed reference job of the same kind of work, timed alongside the program,
and reported in seconds of a reference machine of constant speed:

- Op time.  The timed worker interleaves a calibration unit with the
  program: a SIGALRM timer runs one unit every SAMPLE_INTERVAL_S of wall
  time, between bytecodes of whatever op is running.  Each stretch of
  program time is scaled by how long the units around it took, against
  REFERENCE_UNIT_S.  The unit is stdlib-only and does not touch tverlab, so
  no change to the program can change its cost; garbage collection is off
  while it runs so that the program's heap does not bill it either.
  Calibration time itself is cut out of the program time.
- Set-up time.  Just before each worker launch, a reference launch (a fresh
  interpreter that imports a few stdlib modules) is timed, and the worker's
  set-up is scaled by it against REFERENCE_LAUNCH_S.
"""

import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_UNIT_S = 0.0025
SAMPLE_INTERVAL_S = 0.1
REFERENCE_LAUNCH = ["-c", "import argparse, fractions, json, random"]
REFERENCE_LAUNCH_S = 0.07


def _unit_work():
    """Fraction Gauss-Jordan elimination plus tuple-keyed dict updates, the
    same kinds of work tverlab does."""
    n = 6
    a = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(n + 1)] for i in range(n)]
    for k in range(n):
        p = next(r for r in range(k, n) if a[r][k] != 0)
        a[k], a[p] = a[p], a[k]
        for r in range(n):
            if r != k and a[r][k]:
                f = a[r][k] / a[k][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return a[0][n], len(counts)


def unit_seconds():
    """Wall time of one calibration unit, with garbage collection off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _unit_work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def launch_seconds():
    """Wall time of one reference launch."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE_LAUNCH], check=True)
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs one calibration unit every SAMPLE_INTERVAL_S while started."""

    def __init__(self):
        self.samples = []  # (start, duration), in perf_counter seconds
        self._previous_handler = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self.samples.append((start, unit_seconds()))

    def start(self):
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def reference_seconds(self, start, end):
        """Program time in [start, end], calibration cut out, in reference seconds.

        The stretch between samples k and k+1 is scaled by the median duration
        of samples k-2 to k+2, about half a second of them.  No sample
        straddles start or end: the handler runs between bytecodes, and
        start and end are read by ordinary code."""
        samples = self.samples
        starts = [s for s, _ in samples]
        durations = [d for _, d in samples]
        total = 0.0
        for k in range(len(samples) - 1):
            lo = max(start, starts[k] + durations[k])
            hi = min(end, starts[k + 1])
            if hi <= lo:
                continue
            near = durations[max(0, k - 2):k + 3]
            total += (hi - lo) * REFERENCE_UNIT_S / statistics.median(near)
        return total
