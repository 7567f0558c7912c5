"""Machine-speed sampling with a fixed pure-Python kernel.

Other tenants sharing a CPU slow it by up to a factor of two, in phases
that last about half a second.  A sample longer than that cannot be
corrected from kernel timings taken only before and after it.  `measure`
therefore times a call while an interval timer runs the kernel every
`PERIOD_S` in the same thread, on the same CPU.  Each stretch of work
between two kernel timings is scaled by `REF_S` over their mean, so the
result is the call's duration on a machine where the kernel takes `REF_S`.
The kernels' own time is taken out of both figures.

It imports nothing the benchmark measures, so a fresh interpreter can use
it to time its own imports.
"""

import signal
import time

ITERATIONS = 10_000
REF_S = 0.002  # about the kernel's time on the 2-core machine of the first baseline
PERIOD_S = 0.1


def kernel() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(ITERATIONS):
        table[i % 97] = table.get(i % 89, 0) + i
    return time.perf_counter() - t0


def measure(fn):
    """Call fn() while sampling the machine's speed.

    Returns (fn's result, seconds of work, seconds scaled to reference
    speed, kernel timings).  The work seconds are the wall time minus the
    time the kernel ran inside the call.
    """
    ticks = []  # (start, end, kernel seconds)

    def tick(signum, frame):
        start = time.perf_counter()
        k = kernel()
        ticks.append((start, time.perf_counter(), k))

    first = kernel()
    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    points = [(t0, t0, first), *ticks, (t1, t1, kernel())]
    work = scaled = 0.0
    for (_, end, k0), (start, _, k1) in zip(points, points[1:]):
        work += start - end
        scaled += (start - end) * REF_S / ((k0 + k1) / 2)
    return result, work, scaled, [k for _, _, k in points]
