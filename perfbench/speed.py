"""Machine-speed probe: times a fixed reference loop inside the calls it measures.

On a shared host the speed of one vCPU can swing by up to 1.8x within a few
seconds and drift for minutes, so the wall time of the same sweep differs
by 10-30% between runs a few minutes apart.  The probe corrects for that.
A ``SIGPROF`` timer runs a fixed loop of small NumPy operations, the same
kind of work as the program's per-step loop, every ``INTERVAL_S`` of
process CPU time.  It runs in the calling thread, on the same core and at
the same moments as the program.  A call's time at reference speed is its
own wall time, less the loops, times ``REFERENCE_LOOP_S`` over the loop's
mean time during the call.

The program must compute in the calling thread, as the benchmark's
single-caller load model has it.  The probe does not touch the program's
state: the outputs stay byte-identical, and the output check verifies that.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.1           # process CPU time between two reference loops
REFERENCE_LOOP_S = 2.5e-3  # the loop's mean time on the 2-core Xeon VM the benchmark was tuned on
LOOP_STEPS = 300


class SpeedProbe:
    """Times calls in wall seconds and in seconds at reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = 0.3 * rng.standard_normal((4, 4))
        self._b = rng.standard_normal(4)
        self._c = rng.standard_normal((2, 4))
        self._loop_s = 0.0
        self._loops = 0

    def _loop(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        x = np.zeros(4)
        acc = 0.0
        for i in range(LOOP_STEPS):
            y = self._c @ x
            x = self._a @ x + self._b * (1.0 if i % 3 else 0.0)
            acc += float(y @ y) + min(i % 7, 3)
        self._loop_s += time.perf_counter() - t0
        self._loops += 1

    def run(self, fn, *args):
        """Return ``fn(*args)``, its wall seconds and its seconds at reference speed.

        One loop runs just before and one just after the call, outside its
        timing, so that even a short call has a speed sample.
        """
        s0, n0 = self._loop_s, self._loops
        self._loop()
        previous = signal.signal(signal.SIGPROF, self._loop)
        inside = self._loop_s
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGPROF, previous)
        wall = elapsed - (self._loop_s - inside)
        self._loop()
        loop_mean = (self._loop_s - s0) / (self._loops - n0)
        return result, wall, wall * REFERENCE_LOOP_S / loop_mean
