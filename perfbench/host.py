"""Host-speed probe: a fixed piece of work timed before and after a window.

On a machine shared with other tenants, their load can slow every kind
of work two- to three-fold for minutes at a time.  Each run records a
probe reading before and after its measured window, so a later reader of
the run records can tell a host change from a code change; the probe
only describes the host.  Steal time, sampled through the window, marks
the stretches in which other guests took this machine's CPUs; the
throughput a run reports comes from the stretches where they took least.

The probe is the benchmark's own code, never the program's, so a change
to the program cannot move it: an interpreter loop and a numpy
absolute-difference reduction, the two kinds of work the program does.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Timed repetitions per probe; the probe reports their median.
PROBE_REPS = 41
#: Probes per reading; the reading is the fastest.
READ_PROBES = 3

#: Threads the numpy work runs on: one per CPU, as the kernel pool uses
#: (at most four, to keep the probe short).
PROBE_THREADS = max(1, min(os.cpu_count() or 1, 4))

_ROWS = np.random.default_rng(0).standard_normal((200, 250))
_QUERY = np.random.default_rng(1).standard_normal(250)


def _numeric() -> None:
    for _ in range(8):
        np.abs(_ROWS - _QUERY).sum(axis=1)


def _work() -> None:
    """Interpreter work, then numpy work on every probe thread at once.

    numpy releases the GIL, so the threads run in parallel and the
    repetition waits for the slowest, as the kernel pool does.
    """
    total = 0
    for k in range(20_000):
        total += k * k % 7
    helpers = [threading.Thread(target=_numeric) for _ in range(PROBE_THREADS - 1)]
    for helper in helpers:
        helper.start()
    _numeric()
    for helper in helpers:
        helper.join()


def probe() -> float:
    """Median wall milliseconds of one repetition of the fixed work."""
    times = []
    for _ in range(PROBE_REPS):
        started = time.perf_counter()
        _work()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def reading() -> float:
    """The host's speed now: the fastest of :data:`READ_PROBES` probes."""
    return min(probe() for _ in range(READ_PROBES))


def cpu_ticks() -> tuple[int, int] | None:
    """Steal and total clock ticks of all CPUs since boot (``/proc/stat``).

    Steal is time a CPU of this machine was ready to run but the
    hypervisor ran another guest instead.  ``None`` where the kernel does
    not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(field) for field in fields[1:9]]
    return ticks[7], sum(ticks)
