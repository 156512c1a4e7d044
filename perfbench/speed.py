"""CPU-speed-calibrated time for machines whose speed drifts.

On a shared 2-core machine (CPython 3.11) a fixed pure-Python loop took
anywhere from 0.26 s to 0.47 s from one second to the next, and the raw
wall time of whole benchmark passes spread by 14-41% (quartile distance
over median) across runs.  A ``SpeedProbe`` therefore times a fixed
~1 ms loop every 20 ms from a SIGALRM handler, which runs in the main
thread between bytecodes, so no second thread competes with the program.
An interval's calibrated time is its wall time minus the probe's own time,
scaled by ``NOMINAL_S`` over the mean probe time in and around the
interval: seconds at the speed at which the probe loop takes ``NOMINAL_S``.
With it the spread fell to about 5% per pass.
"""

import signal
import statistics
import time

NOMINAL_S = 0.001   # probe loop time at the reference speed
INTERVAL_S = 0.02   # time between probes
WINDOW_S = 0.1      # probes this close to a short interval still count


def _probe_loop():
    s = 0
    for i in range(10_000):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (start, duration) of each probe

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def calibrate(self, t0, t1):
        """Calibrated seconds of the ``perf_counter`` interval [t0, t1];
        call it once the probes just after the interval have been taken."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        near = [d for s, d in self.samples if t0 - WINDOW_S <= s < t1 + WINDOW_S]
        near = near or [d for _, d in self.samples]
        net = (t1 - t0) - sum(inside)
        return net * NOMINAL_S / statistics.fmean(near) if near else net
