"""The machine's speed, which of its CPUs is fast right now, and memory peaks.

On a shared host each virtual CPU in turn runs up to half as fast again
while another guest contends for its core, for a fraction of a second to
tens of seconds at a time, the two CPUs of a small guest are often in
different states, and the whole machine drifts over minutes.  Timed work is
therefore moved to the CPU that is fast at the moment, and each timing is
scaled by the speed of a fixed calibration kernel timed on that CPU just
before it (see ``scaled``).
"""

from __future__ import annotations

import os
import resource
import time

# A scaled time reads as it would on a machine where the calibration kernel
# takes this long.
NOMINAL_CAL_MS = 1.0


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


def _kernel() -> None:
    # The kind of work the program does: build exponent tuples, sort them by
    # degree and keep the divisibility-minimal ones.
    exps = sorted({(i % 7, i % 5 + i % 3, i % 11) for i in range(600)}, key=sum)
    kept: list = []
    for e in exps:
        if not any(all(x <= y for x, y in zip(f, e)) for f in kept):
            kept.append(e)


def calibration_ms() -> float:
    """Best of three runs of the calibration kernel, about a millisecond each."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def scaled(seconds: float, cal_ms: float) -> float:
    """A time taken right after calibration_ms() read cal_ms, at the nominal speed."""
    return seconds * NOMINAL_CAL_MS / cal_ms


class CpuPicker:
    """Finds, among the CPUs this process may use, the one running fastest now."""

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # no affinity control on this system
            self.cpus = []

    def move_to_fastest(self) -> float:
        """Pin this process, and the children it starts from now on, to the fastest CPU.

        Returns the calibration time there.  Where there is no choice of CPU
        the process stays where it is and the calibration is timed there.
        """
        speed = {}
        try:
            if len(self.cpus) >= 2:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    speed[cpu] = calibration_ms()
                cpu = min(speed, key=speed.get)
                os.sched_setaffinity(0, {cpu})
                return speed[cpu]
        except OSError:
            pass
        return calibration_ms()

    def release(self) -> None:
        """Let this process, and the children it starts from now on, use every CPU again."""
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, self.cpus)


def peak_rss_kb() -> int:
    """This process's own high-water resident set, in KiB.

    ru_maxrss would not do: exec carries over the high-water mark of the
    process that started this one.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
