"""The policy/clock split: what decision-making code may know about time.

Every serving-layer decision component (scheduling in
:mod:`repro.coe.scheduling`, cache victim selection in
:mod:`repro.coe.cache`, cluster dispatch in
:mod:`repro.coe.cluster_engine`, deadline admission) historically typed
its time source as the concrete :class:`repro.sim.engine.Simulator`.
That coupling is what kept the whole stack sim-only. This module defines
the **narrow** surface those components are allowed to touch, so the
same policies run on either backend:

- :class:`Clock` — read-only time plus span recording: ``now``,
  ``record_span``, ``timeline``. This is all a *policy* may see; a
  policy that only reads a :class:`Clock` cannot tell a simulated run
  from a live one, which is precisely what makes the sim/live decision
  cross-check (:mod:`repro.coe.crosscheck`) possible.
- :class:`EventSource` — a :class:`Clock` that also *owns* the arrow of
  time: callbacks can be scheduled on it (``schedule``/``schedule_at``,
  or many at once with ``schedule_many``), and the serving engines'
  columnar drain takes over their pending events (``pending``,
  ``cancel``) and credits the events it replays (``count_events``).
  The serving engines bind to an :class:`EventSource`; only the
  backend *driver* (``ServingEngine.run``, ``ClusterEngine.serve``)
  may additionally pump a concrete
  :class:`~repro.sim.engine.Simulator`'s ``run()`` loop.
- :class:`WallClock` — the asyncio wall-clock :class:`Clock`
  implementation behind live serving (:mod:`repro.coe.live_engine`).
  Time is reported in **model seconds**: one model second occupies
  ``time_scale`` wall seconds, so the same config can replay a ten-hour
  trace in seconds or serve in real time, and spans recorded on a live
  timeline line up with the simulator's timestamps for the same work.

:class:`repro.sim.engine.Simulator` satisfies both protocols
structurally (asserted in ``tests/sim/test_clock.py``); it imports
nothing from here, keeping the engine dependency-free.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Callable, Iterable, List, Mapping, Optional, Protocol, Tuple,
    runtime_checkable,
)

from repro.obs import Span, Timeline


@runtime_checkable
class Clock(Protocol):
    """What a *decision-making* component may know about time.

    ``now`` is the current time in model seconds; ``record_span``
    anchors observability spans to it (a free no-op when no timeline is
    attached). Nothing here lets a policy advance time or schedule work
    — that power belongs to :class:`EventSource` and the backend driver.
    """

    timeline: Optional[Timeline]

    @property
    def now(self) -> float: ...

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
    ) -> Optional[Span]: ...


@runtime_checkable
class EventSource(Protocol):
    """A :class:`Clock` that executes scheduled callbacks in time order.

    This is the surface the serving engines bind to
    (:meth:`repro.coe.engine.ServingEngine.bind`); the concrete
    simulated implementation is :class:`repro.sim.engine.Simulator`.
    A wall-clock analogue would dispatch callbacks from an event loop —
    the live backend instead drives engines' *decision cores* directly
    from asyncio tasks, which is why the policy-facing :class:`Clock`
    is kept separate and minimal.
    """

    timeline: Optional[Timeline]

    @property
    def now(self) -> float: ...

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
    ) -> Optional[Span]: ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> None: ...

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> None: ...

    def schedule_many(
        self, events: Iterable[Tuple[float, Callable[[], None]]]
    ) -> int: ...

    def count_events(self, n: int) -> None: ...

    def pending(self) -> List[Tuple[float, int, Callable[[], None]]]: ...

    def cancel(
        self, events: Iterable[Tuple[float, int, Callable[[], None]]]
    ) -> None: ...


class WallClock:
    """An asyncio-backed :class:`Clock` reporting **model seconds**.

    ``time_scale`` is wall seconds per model second: ``1.0`` serves in
    real time, ``0.01`` compresses a 10-model-second trace into 0.1 wall
    seconds (CI smoke), ``>1`` slow-motions a fast sim for inspection.
    All public times — ``now``, ``sleep_until``/``sleep`` arguments,
    recorded span timestamps — are model seconds; only
    :attr:`wall_elapsed_s` speaks raw wall time.

    The clock anchors on :func:`time.monotonic` lazily at first use (or
    explicitly via :meth:`start`), so reads need no event loop — only
    the ``sleep*`` coroutines do.
    """

    def __init__(
        self,
        time_scale: float = 1.0,
        timeline: Optional[Timeline] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        self.time_scale = time_scale
        self.timeline = timeline
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Anchor model-time zero at the current monotonic wall time."""
        self._t0 = time.monotonic()

    def _ensure_started(self) -> float:
        if self._t0 is None:
            self.start()
        return self._t0

    @property
    def wall_elapsed_s(self) -> float:
        """Raw wall seconds since :meth:`start`."""
        t0 = self._ensure_started()  # anchor before sampling
        return time.monotonic() - t0

    @property
    def now(self) -> float:
        """Current time in model seconds."""
        return self.wall_elapsed_s / self.time_scale

    # ------------------------------------------------------------------
    async def sleep_until(self, model_time: float) -> None:
        """Sleep until ``model_time`` (model seconds); past is a no-op."""
        deadline = self._ensure_started() + model_time * self.time_scale
        delay = deadline - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    async def sleep(self, model_duration_s: float) -> None:
        """Sleep ``model_duration_s`` model seconds of wall time."""
        if model_duration_s > 0:
            await asyncio.sleep(model_duration_s * self.time_scale)

    # ------------------------------------------------------------------
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
        """Record a span in model seconds; no-op without a timeline.

        Same contract as :meth:`repro.sim.engine.Simulator.record_span`,
        so engine code recording through a :class:`Clock` needs no
        backend branches.
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


__all__ = ["Clock", "EventSource", "WallClock"]
