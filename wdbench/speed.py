"""Speed probe: the speed of the CPU the benchmark runs on, from outside it.

On a shared host a neighbour slows this machine's CPUs by up to 2x for
stretches of seconds to minutes; wall and CPU time inflate alike.  The probe
is a separate process on the same CPU as the measured process.  Every
``PERIOD`` seconds it wakes up, runs a fixed loop once to warm its own
caches after the switch from the measured process, then runs the loop again
and times only that second run.  The speed at that moment is
``REFERENCE_LOOP_S`` over the timed duration, so it is about 1 in the
host's fast stretches.  It hardly depends on what the measured
process was doing before the switch: beside a 400x400 matrix product and
beside an interpreter loop it reads the same speed within 3 %
(``test_wdbench.py`` checks 5 %).

:class:`Speed` turns a wall interval of the measured process into reference
seconds: the interval less the probe's own bursts inside it, times the mean
speed sampled during it.  All times are ``CLOCK_MONOTONIC``, which is the
same clock in every process of the machine.

Run as a script, the probe samples until its standard input closes, then
writes its record (one ``[burst_start, burst_end, timed_s]`` triple per
sample) as JSON to ``--out``::

    python wdbench/speed.py --out FILE
"""

from __future__ import annotations

import argparse
import bisect
import json
import select
import statistics
import sys
import time

#: Seconds between two samples.
PERIOD = 0.02
#: Duration of the timed loop in the host's fast stretches: the centre of
#: its fast mode on the machine the figures in README.md come from.
REFERENCE_LOOP_S = 2.9e-4
#: Samples used for an interval that holds fewer (a set-up of ~0.1 s).
MIN_SAMPLES = 3


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loop(index, cost, u, v) -> None:
    """Bytecode, numpy scalar reads and numpy array arithmetic, in about equal parts."""
    total = 0.0
    for i in range(1500):
        total += i * 0.5
    for k in range(400):
        total += index[k % 200]
    for _ in range(6):
        total += float((cost - u.reshape(-1, 1) - v.reshape(1, -1)).argmin())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file for the JSON record")
    args = parser.parse_args(argv)
    import numpy as np

    operands = (np.arange(200), np.random.default_rng(0).random((81, 81)), np.zeros(81), np.zeros(81))
    _loop(*operands)
    print("ready", flush=True)
    samples = []
    due = clock()
    while True:
        due += PERIOD
        begin = clock()
        _loop(*operands)  # warms the probe's caches after the measured process ran
        mid = clock()
        _loop(*operands)
        end = clock()
        samples.append((begin, end, end - mid))
        wait = due - clock()
        if wait < 0:
            due, wait = clock(), 0.0
        if select.select([sys.stdin], [], [], wait)[0]:  # readable: EOF, stop
            break
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


class Speed:
    """Reference seconds of wall intervals, from a probe record."""

    def __init__(self, samples) -> None:
        samples = sorted(samples)
        self.begins = [s[0] for s in samples]
        self.ends = [s[1] for s in samples]
        self.speeds = [REFERENCE_LOOP_S / s[2] for s in samples]

    def busy(self, begin: float, end: float) -> float:
        """Probe time inside ``[begin, end]``: the measured process was waiting."""
        lo = max(bisect.bisect_left(self.begins, begin) - 1, 0)
        hi = bisect.bisect_right(self.begins, end)
        return sum(max(0.0, min(self.ends[i], end) - max(self.begins[i], begin)) for i in range(lo, hi))

    def speed(self, begin: float, end: float) -> float:
        """Mean speed sampled in ``[begin, end]``, or at the nearest samples."""
        lo = bisect.bisect_left(self.begins, begin)
        hi = bisect.bisect_right(self.begins, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.begins, (begin + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.begins) - MIN_SAMPLES))
            hi = min(len(self.begins), lo + MIN_SAMPLES)
        if lo >= hi:
            raise ValueError("the speed probe recorded no sample")
        return statistics.fmean(self.speeds[lo:hi])

    def reference_seconds(self, begin: float, end: float) -> float:
        """The measured process's own time in ``[begin, end]`` at reference speed."""
        return (end - begin - self.busy(begin, end)) * self.speed(begin, end)


if __name__ == "__main__":
    sys.exit(main())
