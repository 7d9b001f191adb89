"""Machine-speed reference for the timed passes of the dpdp benchmark.

A shared host runs the same Python code at speeds that drift by a third
over spells of seconds to tens of seconds, so raw wall-clock latencies of
two runs of the same code can differ by more than any useful bound.  The
reference is a fixed pure-Python graph kernel (breadth-first searches over
dict-of-set adjacency plus a sort of edge tuples: the kind of work the dpdp
layers do).  A SIGALRM timer runs it every ``PERIOD_S`` seconds during a
pass, in the middle of an item too, and records how long it took.

The set-up time is scaled by a few samples taken right after it.  An
item's time at reference speed is its own time, minus the time the
reference took inside it, scaled by ``REF_S / t`` averaged over the
reference samples taken during the item and ``WINDOW_S`` either side of
it (the nearest sample when none is that close).  ``REF_S`` is the
kernel's time on the 2-core Xeon VM the benchmark was defined on, so the
scaled figures read as milliseconds on that machine at its fast speed.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time

PERIOD_S = 0.25
WINDOW_S = 0.3
REF_S = 0.0065  # kernel time on the reference machine, fast spell
_NODES = 2000


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj = {v: set() for v in range(_NODES)}
        for _ in range(3 * _NODES):
            a, b = rng.randrange(_NODES), rng.randrange(_NODES)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.mid: list[float] = []  # perf_counter at the middle of each sample
        self.took: list[float] = []
        self.paused = 0.0  # total time spent in the kernel so far
        for _ in range(3):  # warm up
            self.kernel()

    def kernel(self) -> int:
        adj = self.adj
        total = 0
        for src in (0, 1):
            seen = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in adj[u]:
                        if w not in seen:
                            seen[w] = seen[u] + 1
                            nxt.append(w)
                frontier = nxt
            total += sum(seen.values())
        edges = sorted((min(u, w), max(u, w)) for u in range(0, _NODES, 3) for w in adj[u])
        return total + len(edges)

    def sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the pass's heap, not the machine
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.mid.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.paused += t1 - t0

    def spot_scale(self, samples: int = 5) -> float:
        """REF_S / sample time, averaged over a few samples taken now."""
        for _ in range(samples):
            self.sample()
        return sum(REF_S / t for t in self.took[-samples:]) / samples

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Mean of REF_S / sample time over the samples near [t0, t1]."""
        lo = bisect.bisect_left(self.mid, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mid, t1 + WINDOW_S)
        if lo == hi:  # no sample that close: the nearest one
            lo = min(range(len(self.mid)), key=lambda i: abs(self.mid[i] - (t0 + t1) / 2))
            hi = lo + 1
        took = self.took[lo:hi]
        return sum(REF_S / t for t in took) / len(took)
