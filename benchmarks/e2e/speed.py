"""How fast the machine ran while a block of code ran.

On a shared host a virtual CPU's speed switches between levels up to
about 1.7x apart and stays at each for seconds at a time, so two timings
of the same call can differ by more than any regression worth catching.
:func:`sampling` times a fixed probe from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time while the block runs. The probe is a
miniature discrete-event loop (a heap of timed callbacks appending
completion records), the simulator's own kind of work, so it slows down
with the block; the block's seconds times ``NOMINAL_PROBE_S`` over the
probes' harmonic mean (:func:`scale`) is its time at one fixed speed.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional

#: Wall seconds between probes; a probe takes about 0.5% of that.
INTERVAL_S = 0.01
#: Events each probe pops off its heap.
PROBE_EVENTS = 40
#: Probe seconds at the speed host times are reported at: about the
#: probes' harmonic mean during ``serve`` on a quiet 2-vCPU Xeon VM, so
#: rescaled seconds there read about as the raw ones.
NOMINAL_PROBE_S = 57e-6


class _Record(NamedTuple):
    index: int
    lane: str
    start_s: float
    end_s: float


class _Lane:
    __slots__ = ("name", "records")

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: List[_Record] = []

    def finish(self, now: float, index: int) -> None:
        self.records.append(_Record(index, self.name, now, now + 1.0))
        if len(self.records) > 64:
            self.records.clear()


@contextmanager
def sampling() -> Iterator[List[float]]:
    """Yield a list that fills with probe durations while the block runs.

    Main thread only (signal handlers run there); the previous
    ``SIGALRM`` handler and a disarmed timer are restored on exit.
    """
    samples: List[float] = []
    rng = random.Random(0)
    lanes = [_Lane(f"lane{i}") for i in range(8)]
    clock = time.perf_counter

    def probe(signum, frame) -> None:
        start = clock()
        events = [(rng.random(), i, lanes[i].finish) for i in range(8)]
        heapq.heapify(events)
        for _ in range(PROBE_EVENTS):
            now, index, callback = heapq.heappop(events)
            callback(now, index)
            heapq.heappush(events, (now + rng.random(), index + 8,
                                    lanes[(index + 1) % 8].finish))
        samples.append(clock() - start)

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def harmonic_mean_s(samples: List[float]) -> Optional[float]:
    """Harmonic mean of probe durations, or None without probes.

    Harmonic, because the work done in each interval is proportional to
    the machine's speed, the inverse of the probe's duration.
    """
    return len(samples) / sum(1 / s for s in samples) if samples else None


def scale(probe_s: Optional[float]) -> float:
    """Factor taking host seconds measured at ``probe_s`` to the nominal
    speed; 1 for a block too short to be probed."""
    return NOMINAL_PROBE_S / probe_s if probe_s else 1.0
