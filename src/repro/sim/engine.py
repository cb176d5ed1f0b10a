"""A minimal discrete-event simulation engine.

Used to simulate streaming-dataflow pipelines (stage buffers, credit flow
control) at event granularity, validating the analytic bottleneck model in
:mod:`repro.dataflow.pipeline`. The engine is a classic event-queue design:
callbacks scheduled at absolute times, executed in time order with a
deterministic tie-break.

Bulk scheduling and logical events
----------------------------------

Three hooks let models amortize the per-event overhead that dominates
large simulations (see ``docs/PERFORMANCE.md``):

- :meth:`Simulator.schedule_many` bulk-inserts a whole batch of events
  with **one** heapify instead of one ``heappush`` per event.
- :meth:`Simulator.count_events` credits the logical events an event
  replays in a loop of its own (the serving engines' columnar drain),
  so ``events_run`` and the livelock budget stay meaningful.
- :meth:`Simulator.pending` and :meth:`Simulator.cancel` let such a
  loop take over events already scheduled (a drain re-entered
  mid-run), with the tie-break order they were scheduled in.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from repro.obs import Span, Timeline

#: One queued event: (time, tie-break counter, callback).
_Event = Tuple[float, int, Callable[[], None]]


class Simulator:
    """An event-driven simulator with a monotonic clock.

    Pass (or attach) a :class:`repro.obs.Timeline` and models built on
    the simulator can emit spans anchored to the simulated clock via
    :meth:`record_span`; without one, the hooks are free no-ops.
    """

    def __init__(self, timeline: Optional[Timeline] = None) -> None:
        self._queue: List[_Event] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._events_run = 0
        #: Per-``run()``-call event budget consumption; an event that
        #: replays many logical ones credits them via :meth:`count_events`.
        self._events_this_call = 0
        self.timeline = timeline

    def attach_timeline(self, timeline: Optional[Timeline]) -> None:
        """Install (or with ``None``, remove) the span recorder."""
        self.timeline = timeline

    def record_span(
        self,
        name: str,
        lane: str,
        category: str,
        duration_s: Optional[float] = None,
        *,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
        args: Optional[Mapping] = None,
    ) -> Optional[Span]:
        """Record a span on the attached timeline; no-op without one.

        Defaults anchor to the clock: ``start_s`` is ``now`` unless
        given, and ``end_s`` is ``start_s + duration_s``. Models with
        known durations record spans prospectively at schedule time.
        """
        if self.timeline is None:
            return None
        if start_s is None:
            start_s = self.now
        if end_s is None:
            if duration_s is None:
                raise ValueError("record_span needs duration_s or end_s")
            end_s = start_s + duration_s
        return self.timeline.record(
            name, lane=lane, category=category,
            start_s=start_s, end_s=end_s, args=args,
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # NaN fails too
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), callback)
        )

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``time``."""
        if not time >= self.now:  # NaN fails too
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        heapq.heappush(self._queue, (time, next(self._counter), callback))

    def schedule_many(
        self, events: Iterable[Tuple[float, Callable[[], None]]]
    ) -> int:
        """Bulk-schedule ``(time, callback)`` pairs, heapifying **once**.

        Returns the number of events inserted. Tie-break order among the
        batch follows iteration order, exactly as if each event had been
        :meth:`schedule_at`-ed in sequence; a single ``heapify`` over the
        extended queue replaces N ``heappush`` sift-ups, which is the
        cheaper path whenever N is comparable to the queue size. A
        rejected time schedules none of the batch.
        """
        batch: List[_Event] = []
        for time, callback in events:
            if not time >= self.now:  # NaN fails too
                raise ValueError(
                    f"cannot schedule at {time} < now {self.now}"
                )
            batch.append((time, next(self._counter), callback))
        if batch:
            self._queue.extend(batch)
            heapq.heapify(self._queue)
        return len(batch)

    def count_events(self, n: int) -> None:
        """Credit ``n`` logical events executed inside one event.

        Keeps :attr:`events_run` and the per-call livelock budget honest
        when one popped event replays many logical events in a loop.
        """
        if n < 0:
            raise ValueError(f"cannot credit {n} events")
        self._events_run += n
        self._events_this_call += n

    def pending(self) -> List[_Event]:
        """The pending ``(time, seq, callback)`` events, in the order
        they will run: of two at one time, the one scheduled first (the
        smaller ``seq``) runs first."""
        return sorted(self._queue)

    def cancel(self, events: Iterable[_Event]) -> None:
        """Remove pending events, as :meth:`pending` returned them."""
        drop = {id(event) for event in events}
        if drop:
            self._queue = [e for e in self._queue if id(e) not in drop]
            heapq.heapify(self._queue)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None when the queue is empty.

        Schedulers use this to decide how far the clock can safely jump.
        """
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Drain the event queue; returns the final simulated time.

        ``until`` stops the clock at a deadline (inclusive: an event
        scheduled at exactly ``until`` still runs); ``max_events`` guards
        against runaway simulations (deadlock-free models terminate) and
        budgets *this call* — a fresh ``run()`` gets a fresh budget, with
        the lifetime total still visible as :attr:`events_run`. When
        the queue drains before the deadline, the clock still advances to
        ``until`` — the simulated interval elapsed even if nothing
        happened in its tail.
        """
        self._events_this_call = 0
        while self._queue:
            if self._events_this_call >= max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events in one run() call — "
                    f"livelock? next event at t={self.peek_next_time()!r}, "
                    f"pending_events={self.pending_events}, "
                    f"lifetime events_run={self.events_run}"
                )
            time, _, callback = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            self.now = time
            self._events_run += 1
            self._events_this_call += 1
            callback()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def events_run(self) -> int:
        return self._events_run

    @property
    def pending_events(self) -> int:
        return len(self._queue)
