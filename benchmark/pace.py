"""Host speed, read while the program runs, and times scaled by it.

The benchmark's host is shared, and its speed drifts by up to a factor of
two over minutes: identical rounds read 33 s in one run and 41 s in the
next, and a round of `derived-series` read 22 s at one time and 10.5 s at
another.  Medians within a run do not remove a drift that spans the run.

So the timed code is paced: a `Pacer` interrupts it every INTERVAL seconds
(SIGALRM) and runs a fixed reference chunk, pure-Python rational and
integer arithmetic that calls no program code.  Each stretch of program
time between two chunks is scaled by CHUNK_NOMINAL_S / (the time of the
chunk that ends it), so a stretch run while the host is slow counts for
what it would have taken while the chunk takes CHUNK_NOMINAL_S.  The sum of
the scaled stretches is the paced time; the chunks' own time is left out.
A change to the program moves the paced time as it moves the wall time,
because the chunk does not depend on the program.

`chunk_time()` gives the same reading outside timed code, for scaling
the set-up probes, which run in processes of their own.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction
from statistics import median

INTERVAL = 0.1           # seconds of program time between reference chunks
CHUNK_NOMINAL_S = 0.0044  # the chunk's time on a quiet 2-vCPU Xeon host


def _chunk_inputs():
    rng = random.Random(7)

    def poly(n):
        return {(i, j): Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                for i in range(n) for j in range(n - i)}
    rows = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
    return poly(8), poly(8), rows


_A, _B, _ROWS = _chunk_inputs()


def chunk():
    """The reference work: a product of two bivariate polynomials over Q
    and an elimination of a 24 x 24 integer matrix modulo 32003."""
    out = {}
    for (i, j), c in _A.items():
        for (k, m), d in _B.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + c * d
    rows = [r[:] for r in _ROWS]
    for col in range(len(rows[0])):
        piv = next((r for r in rows if r[col]), None)
        if piv is None:
            continue
        rows.remove(piv)
        for r in rows:
            if r[col]:
                f, g = r[col], piv[col]
                r[:] = [(x * g - y * f) % 32003 for x, y in zip(r, piv)]
    return out


def timed_chunk(clock=time.perf_counter):
    """Seconds one chunk takes, with the garbage collector held off so it
    cannot start a collection of the program's objects inside the chunk."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        chunk()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def chunk_time(n=5):
    """Median of `n` chunk times: the host's speed right now."""
    return median(timed_chunk() for _ in range(n))


class Pacer:
    """Context manager that paces the code it encloses.

    After exit: `paced_s` is the scaled time of the enclosed code (seconds
    at the nominal chunk speed), `wall_s` its plain wall time without the
    chunks, and `chunks` the chunk times read inside.
    """

    def __init__(self, interval=INTERVAL, clock=time.perf_counter,
                 timed=None):
        self.interval = interval
        self.clock = clock
        self.timed = timed or (lambda: timed_chunk(clock))
        self.active = False

    def stretch(self, seconds, chunk_s):
        self.paced_s += seconds * CHUNK_NOMINAL_S / chunk_s
        self.wall_s += seconds

    def tick(self, _signum=None, _frame=None):
        """Close the stretch since the last chunk with a new chunk."""
        if not self.active:
            return
        end = self.clock()
        c = self.timed()
        self.stretch(end - self.last, c)
        self.chunks.append(c)
        self.last = self.clock()
        # one-shot timer, re-armed after the chunk, so ticks never nest
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        self.paced_s = self.wall_s = 0.0
        self.chunks = []
        self.previous = signal.signal(signal.SIGALRM, self.tick)
        self.active = True
        self.last = self.clock()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        end = self.clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
        signal.signal(signal.SIGALRM, self.previous)
        # the last stretch is scaled by the chunks read so far
        c = median(self.chunks) if self.chunks else self.timed()
        self.stretch(end - self.last, c)
        return False
