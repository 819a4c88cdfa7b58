"""Host-speed correction of wall times.

The host this benchmark was written on shares its CPUs, and its speed for
the same Python code drifts by tens of percent, in phases of seconds to
minutes.  A round's raw wall time follows that drift as much as it follows
the program.  To take it out, a fixed calibration kernel (fixed-point big-
integer arithmetic and dict stores, the kind of work mpmath's pure-Python
backend does) is timed every INTERVAL_S seconds from a SIGALRM handler in
the benchmark's own thread, while the program runs.  Its mean time over a
window measures the host's speed during that window, and

    corrected = (elapsed - kernel time) * REF_KERNEL_S / mean kernel time

is the window's wall time, less the kernel's own share, at the reference
speed: the speed at which the kernel takes REF_KERNEL_S.  No thread or
process is started.
"""

from __future__ import annotations

import signal
from array import array
from statistics import fmean
from time import perf_counter

#: seconds between two kernel samples
INTERVAL_S = 0.01
#: the kernel's mean time on the reference host (2-core virtual machine,
#: Python 3.11.7), so corrected times read as its wall seconds
REF_KERNEL_S = 65e-6

_PREC = 170  # bits, about 50 decimal digits
_A = ((1 << _PREC) * 12345678901234567) // 10**16
_B = ((1 << _PREC) * 99999) // 100000


def kernel() -> int:
    """A fixed amount of work, about 65 us at the reference speed, between program steps."""
    x, table = _A, {}
    for i in range(120):
        x = ((x * _B) >> _PREC) + _A
        table[i & 15] = x.bit_length() + (i * i) % 7
    return x


class Sampler:
    """Kernel times, sampled on a timer while the program runs."""

    def __init__(self):
        self.samples = array("d")
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def corrected(self, elapsed: float, since: int) -> tuple:
        """(corrected seconds, mean kernel time) of a window begun at mark ``since``.

        Every round lasts many INTERVAL_S, so its window holds samples.
        """
        window = self.samples[since:]
        mean = fmean(window)
        return (elapsed - sum(window)) * REF_KERNEL_S / mean, mean


def bracket_mean(repeats: int = 20) -> float:
    """Mean kernel time over ``repeats`` runs made now, outside the timer."""
    t = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        t.append(perf_counter() - t0)
    return fmean(t)
