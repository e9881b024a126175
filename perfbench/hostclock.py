"""CPU time scaled to a reference host speed.

The benchmark runs on shared cloud hosts whose speed changes by a factor
of up to two, sometimes for a tenth of a second and sometimes for
minutes, and CPU time follows wall time there: the whole vCPU slows, it
is not descheduled.  No run length averages that out, because a whole
run can fall into a slow period.  So while the benchmark works, a timer
on this process's CPU time interrupts it every SAMPLE_INTERVAL_S and
runs a fixed reference kernel; the CPU time of the work in a window is
then scaled by how much slower than nominal the kernel ran, on average,
over that window.  The kernel is the benchmark's own code and does not
call the package, so a change to the package moves a scaled time
exactly as it moves the raw time.

The kernel imitates an episode step at d=3: a 3x3 solve, a random draw,
a dot product and some interpreted bookkeeping.  On the tuning host
(Intel Xeon, 2 vCPUs), over 1480 paired samples taken through two
minutes of changing host speed, the log time of each kind of package
work was regressed on the log time of candidate kernels.  Against this
kernel the exponent was 0.96 to 1.07 for episodes, 0.95 for the d=3
closed-form solve and 0.82 for the d=20 gradient (1 means the two slow
down alike); against a pure Python loop it was 1.13 to 1.38, and
against a loop of 3x3 solves alone 0.72 to 0.95.  Scaling cut the
spread (interquartile range / median) of those samples from 0.20-0.26
to 0.05-0.08.
"""

from __future__ import annotations

import signal
import statistics
import time

# CPU seconds the kernel takes on the tuning host at its usual speed.
# Scaled times are "seconds at that speed"; the constant only fixes the
# scale and cancels from every comparison between two commits.
NOMINAL_KERNEL_S = 0.008
# CPU seconds between two kernel runs while sampling; the kernel then
# takes about a tenth of the process's time.
SAMPLE_INTERVAL_S = 0.08


def _reference_kernel(np, a) -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    for i in range(500):
        x = np.linalg.solve(a, rng.standard_normal(3))
        total += float(x @ x)
        for j in range(24):
            total += (i * j) % 7
    return total


class HostClock:
    """A CPU clock for the measured work, and the host's speed per window.

    ``cpu()`` reads this thread's CPU time minus every kernel run, so a
    unit timed with it excludes the kernel runs inside it.  It is the
    thread's clock because, while a process-wide CPU timer is armed,
    Linux reads the process's CPU clock only at scheduler-tick
    resolution; the benchmark does its timed work in one thread.  Kernel runs
    come from ``tick()`` and, between ``start()`` and ``stop()``, from
    the sampling timer.  ``close_window()`` turns the runs since its
    previous call into the factor that scales raw CPU seconds to nominal
    ones.
    """

    def __init__(self, np):
        self._args = (np, np.eye(3) + 0.1)
        _reference_kernel(*self._args)  # untimed warm-up
        self.kernel_times: list[float] = []
        self._window: list[float] = []
        self._ticks = 0.0
        self._previous_handler = None

    def cpu(self) -> float:
        return time.thread_time() - self._ticks

    def tick(self, *_signal_args) -> None:
        t0 = time.thread_time()
        _reference_kernel(*self._args)
        seconds = time.thread_time() - t0
        self._ticks += seconds
        self.kernel_times.append(seconds)
        self._window.append(seconds)

    def start(self) -> None:
        """Run the kernel every SAMPLE_INTERVAL_S of this process's CPU time."""
        self._previous_handler = signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)

    def close_window(self) -> float:
        """Nominal / mean kernel time over the runs since the last call."""
        factor = NOMINAL_KERNEL_S / statistics.fmean(self._window)
        self._window = []
        return factor

    def slowdown(self) -> float:
        """Mean kernel time over the run, as a multiple of nominal."""
        return statistics.fmean(self.kernel_times) / NOMINAL_KERNEL_S
