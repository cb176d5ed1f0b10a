"""Throughput-oriented CoE serving engine: batching + copy/compute overlap.

The latency path (:mod:`repro.coe.serving`) serves every request as a
batch of one and pays every expert switch serially — the paper's Figure 1
decomposition. This module models the *throughput* story instead: a
saturated node draining a backlog of pre-routed requests as fast as the
hardware allows. Three levers, composed as policies:

- ``fifo`` — arrival order, but *consecutive* same-expert requests merge
  into one batched prefill/decode call (one switch, one weight read,
  shared roofline terms). This is the honest baseline: no reordering.
- ``affinity`` — bounded-window reordering (:func:`affinity_schedule`)
  first, so same-expert requests become adjacent and the groups grow.
- ``overlap`` — affinity grouping plus double-buffered expert activation:
  while group *i* executes, the DDR->HBM copy of group *i+1*'s expert
  runs on the otherwise-idle DMA engines, so the switch is (partly or
  fully) hidden behind compute. When the next expert is already resident
  the DMA warms the :class:`ExpertPredictor`'s best non-resident guess
  instead (the speculative case; an abandoned or useless copy costs
  nothing over the baseline — the bandwidth was idle).

The pipeline runs event-driven on :class:`repro.sim.engine.Simulator`:
group-start, DMA-complete, and group-finish events chain through the
queue, and the makespan is the simulator clock after the last completion.
Per-request latency (queueing included — every request is backlogged at
t=0) feeds the report's SLO percentiles (:mod:`repro.coe.report`).

Every run records a :class:`repro.obs.Timeline`: router/prefill/decode
spans on the ``compute`` lane, demand DDR->HBM copies on the ``switch``
lane (recorded at true simulated timestamps), and speculative warms on
the ``prefetch`` lane. The report's switch totals and hidden-switch
fraction are *derived from that timeline* — the hidden time is literally
the overlap of the switch lane with the compute lane, so the stat and
the exported trace cannot disagree.

The engine itself is incremental: groups are :meth:`ServingEngine.submit`-ted
into the node's queue (:attr:`NodeState.queue`, one
:class:`~repro.coe.columnar.GroupColumns` that admission fills and every
path edits in place) and drained by events on a simulator clock. A standalone
:meth:`ServingEngine.run` creates a private clock and drains a whole
backlog; the cluster engine (:mod:`repro.coe.cluster_engine`) instead
constructs many engines over one *shared* simulator, each with a
``lane_prefix`` (``node0/``, ``node1/``, ...) so every node's activity
lands on its own lanes of a single cross-node timeline. The queue is
also externally steerable — :meth:`ServingEngine.steal` removes queued
work for another replica, :meth:`ServingEngine.host` /
:meth:`ServingEngine.warm` land a replicated expert and pay its copy —
which is what cluster-level work stealing and online replication drive.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import attrgetter, itemgetter
from typing import (
    AbstractSet, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
    Union,
)

from repro.coe.cache import CachePolicyLike
from repro.coe.columnar import (
    CompletedLog,
    CompletedRequest,  # re-exported: callers import it from this module
    admit_backlog,
    drain as _columnar_drain,
    group_backlog,
)
from repro.coe.decisions import DecisionLog
from repro.coe.expert import ExpertLibrary, ExpertProfile
from repro.coe.node import NodeState
from repro.coe.policies import DrainMode, NodePolicy, validate
from repro.coe.report import ServeReport, build_report
from repro.coe.scheduling import RequestGroup, SchedulerLike, make_scheduler
from repro.obs import Timeline
from repro.sim.clock import EventSource
from repro.sim.engine import Simulator
from repro.systems.platforms import Platform

_EXPERT_NAME = attrgetter("expert.name")


class EngineReentryError(RuntimeError):
    """A single-use engine was run a second time.

    :meth:`ServingEngine.run` (and :meth:`ClusterEngine.serve`) rebinds
    the simulator and resets the *queue* state, but the expert cache,
    its policy bookkeeping, the predictor's transition counts and the
    runtime stats all deliberately survive — so a second run on the
    same instance would start warm and report numbers no fresh run can
    reproduce. Construct a fresh engine per run instead.
    """


@dataclass(frozen=True, slots=True)
class EngineRequest:
    """One pre-routed request in the engine's backlog."""

    request_id: int
    expert: ExpertProfile
    prompt_tokens: int = 256
    output_tokens: int = 20
    #: The simulator ignores it when scheduling: every request is
    #: queued at t=0 (saturated-server regime), but latency is measured
    #: from ``arrival_s``, so :func:`repro.serve` rejects ``arrival_s > 0``
    #: in ``mode='sim'`` (the engines take any, for the cross-check).
    #: Honouring arrivals on the sim clock is ROADMAP item 1.
    arrival_s: float = 0.0
    #: Admission-control rank: under deadline pressure (node loss, SLO
    #: shedding) lower-priority requests are shed first.
    priority: int = 0


class ServingEngine:
    """Drains a queue of pre-routed request groups through one platform.

    Standalone use: :meth:`run` a whole backlog on a private simulator.
    Cluster use: construct with an external (shared) ``simulator`` and a
    ``lane_prefix``, then :meth:`submit` groups; a cluster-level policy
    may additionally :meth:`steal` queued groups, :meth:`host` a
    replicated expert, and :meth:`warm` its DDR->HBM copy. The ``on_idle``
    hook lets that policy react to this engine draining, on the shared
    clock.
    """

    def __init__(
        self,
        platform: Platform,
        library: ExpertLibrary,
        policy: str = "fifo",
        max_batch: int = 8,
        window: int = 16,
        reserved_hbm_bytes: Optional[int] = None,
        simulator: Optional[EventSource] = None,
        lane_prefix: str = "",
        cache_policy: CachePolicyLike = None,
        record_timeline: bool = True,
        decision_log: Optional[DecisionLog] = None,
        drain_mode: Union[str, DrainMode] = DrainMode.COLUMNAR,
        scheduler: SchedulerLike = None,
        tier_capacities: Optional[Dict[str, int]] = None,
        pipeline_promotions: bool = False,
    ) -> None:
        checked = validate(policy=policy, max_batch=max_batch, window=window,
                           pipeline_promotions=pipeline_promotions)
        self.policy = checked["policy"].value
        #: Admission-time backlog reordering (:mod:`repro.coe.scheduling`)
        #: — applied once in :meth:`run`, before the windowed node policy.
        self.scheduler = make_scheduler(scheduler)
        self.max_batch = checked["max_batch"]
        self.window = checked["window"]
        self.lane_prefix = lane_prefix
        #: How queued groups execute (:class:`DrainMode`) — both modes
        #: byte-identical, see docs/PERFORMANCE.md.
        self.drain_mode = DrainMode.coerce(drain_mode).value
        #: ``False`` skips building a span timeline in :meth:`run` — the
        #: report's timeline-derived switch stats then read 0.0.
        self.record_timeline = record_timeline
        #: The node's server, predictor, phase memo (seeded in bulk by
        #: :meth:`precompute_phases`), DMA state and queue.
        self.state = NodeState(
            platform, library, lane_prefix=lane_prefix,
            node_policy=self.policy,
            reserved_hbm_bytes=reserved_hbm_bytes, cache_policy=cache_policy,
            tier_capacities=tier_capacities,
            pipeline_promotions=pipeline_promotions, decision_log=decision_log,
        )
        self.server = self.state.server
        self.cache_policy = self.server.runtime.policy.name
        #: The hook a cluster-level scheduler installs: ``on_idle(engine)``
        #: fires on the simulator clock when the queue drains. A columnar
        #: run drains up to the first instant it could fire
        #: (:func:`_drain_to_horizon`).
        self.on_idle: Optional[Callable[["ServingEngine"], None]] = None
        self._sim: Optional[EventSource] = None
        #: One-shot guard for :meth:`run` (see EngineReentryError): the
        #: runtime cache, policy bookkeeping and predictor survive a
        #: rebind by design, so a reused engine cannot reproduce a fresh
        #: run's numbers.
        self._ran = False
        self._reset_run_state()
        if simulator is not None:
            self.bind(simulator)

    # ------------------------------------------------------------------
    # Binding to a clock
    # ------------------------------------------------------------------
    def lane(self, base: str) -> str:
        """The timeline lane this engine uses for ``base`` activity."""
        return f"{self.lane_prefix}{base}"

    def _reset_run_state(self) -> None:
        #: Expert name -> number of queued groups: the steal queries'
        #: index. Built on the first query and kept in step with every
        #: queue change after it (a drain takes out the names it began),
        #: so an engine no steal hook asks never pays for it; ``None``
        #: until then and after a crashed node's :meth:`drain`.
        self._queued: Optional[Dict[str, int]] = None
        self._busy = False
        self._begin_scheduled = False
        self._busy_until_s = 0.0
        #: The executing group: (group, exec_start, phase times, index),
        #: its index being its queue position. Compute spans are recorded
        #: retrospectively at group finish so a crashed node's partial
        #: work truncates at the crash instead of painting phantom
        #: compute past its death.
        self._current: Optional[tuple] = None
        self.speculative_prefetches = 0
        #: Fail-stop flag: a halted engine ignores every already-scheduled
        #: simulator callback (crash semantics — see ``halt``).
        self._halted = False
        #: Transient straggler multiplier (>= 1.0) applied to the phase
        #: times of every group *started* while it is raised.
        self.slow_factor = 1.0

    def bind(self, simulator: EventSource) -> None:
        """Attach to a (possibly shared) event source, resetting state.

        The engine only ever uses the narrow
        :class:`repro.sim.clock.EventSource` surface — ``now``,
        ``schedule``/``schedule_at``, ``record_span``, the drain's event
        accounting — never the concrete simulator, which is what keeps
        every decision this engine makes clock-agnostic. (The
        :class:`~repro.sim.engine.Simulator` satisfies the protocol
        structurally; :meth:`run` still constructs one to *drive* a
        standalone backlog, because something has to pump the events.)
        """
        self._sim = simulator
        self._reset_run_state()
        self.state.reset(simulator.record_span, simulator.timeline)

    def unbind(self) -> None:
        self._sim = None

    # ------------------------------------------------------------------
    # Queue introspection / steering (the cluster scheduler's surface)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        # len(queue) inlined: the steal hooks read every node's depth
        # at each finish.
        queue = self.state.queue
        return len(queue.names) - queue.head

    @property
    def _queue(self) -> List[RequestGroup]:
        """The queued groups, for inspection (:meth:`GroupColumns.group`)."""
        queue = self.state.queue
        return [queue.group(i) for i in range(queue.head, len(queue.names))]

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def completed(self) -> CompletedLog:
        """This node's per-request :class:`CompletedRequest` records, in
        completion order (:attr:`NodeState.completed`)."""
        return self.state.completed

    @property
    def groups_done(self) -> int:
        """Groups this node has finished (:attr:`NodeState.groups_done`)."""
        return self.state.groups_done

    def queued_expert_counts(self) -> Dict[str, int]:
        """Queued group count per expert name (replication signal)."""
        return dict(self._queued_counts())

    def _queued_counts(self) -> Dict[str, int]:
        """The queue's index (``_queued``), built from the queue if absent."""
        if self._queued is None:
            self._queued = dict(Counter(self.state.queue.unbegun()))
        return self._queued

    def _unqueue(self, names: Iterable[str]) -> None:
        """Take groups of ``names``, begun or removed, out of the index."""
        counts = self._queued
        for name in names:
            left = counts[name] - 1
            if left:
                counts[name] = left
            else:
                del counts[name]

    def has_queued(self, names: AbstractSet[str]) -> bool:
        """Whether any queued group's expert is named in ``names``."""
        return not self._queued_counts().keys().isdisjoint(names)

    def estimated_backlog_s(self) -> float:
        """Closed-form estimate of queued + in-flight work (routing cost).

        The queue sums its groups' exec times at the current
        ``slow_factor`` (:meth:`GroupColumns.backlog_s`): the floats
        :meth:`_group_exec_time` returns, in queue order from the int 0,
        so the result is bitwise the fresh sum.
        """
        now = self._sim.now if self._sim is not None else 0.0
        total = max(0.0, self._busy_until_s - now) if self._busy else 0.0
        return total + self.state.queue.backlog_s(self.slow_factor)

    def submit(self, *groups: RequestGroup) -> None:
        """Enqueue ``groups`` last, in order, in one queue extend; starts
        the first immediately if the engine is idle."""
        if self._halted:
            raise RuntimeError("cannot submit to a halted (crashed) engine")
        self.state.queue.extend(
            groups, list(map(self.state.phase_times, groups)))
        counts = self._queued
        if counts is not None:
            for name in map(_EXPERT_NAME, groups):
                counts[name] = counts.get(name, 0) + 1
        self._kick()

    def steal(self, names: AbstractSet[str]) -> Optional[RequestGroup]:
        """Remove and return the latest-queued group whose expert is named
        in ``names``, or None.

        Scans from the tail (the work least likely to be prefetched). The
        head is only up for grabs while the engine is busy executing —
        when idle, the head's begin event is already on the clock.
        """
        taken = self.steal_many(names, 1)
        return taken[0] if taken else None

    def steal_many(
        self, names: AbstractSet[str], count: int
    ) -> List[RequestGroup]:
        """Remove and return up to ``count`` groups whose expert is named
        in ``names``: the groups, in the order, that ``count`` successive
        :meth:`steal` calls would return, found in one tail-to-head pass.
        """
        queue = self.state.queue
        queued = queue.names
        floor = queue.head + (0 if self._busy else 1)
        # Positions from the tail down to the floor, at C speed.
        taken = list(islice(compress(
            range(len(queued) - 1, floor - 1, -1),
            map(names.__contains__, reversed(queued)),
        ), count))
        groups = queue.remove(taken)
        if self._queued is not None:
            self._unqueue(map(_EXPERT_NAME, groups))
        return groups

    def host(self, expert: ExpertProfile) -> None:
        """Add a replicated or promoted expert to this node's library and
        tiers (:meth:`CoERuntime.host`, which never raises)."""
        self.server.library.add(expert)
        self.server.runtime.host(expert)

    def warm(self, expert: ExpertProfile) -> Optional[float]:
        """Pay the DDR->HBM copy for a replicated expert on this node.

        Returns the copy's completion time on the sim clock, or None when
        copying now would evict an expert the pipeline still needs (the
        copy then happens on demand when the expert's first group begins).
        """
        runtime = self.server.runtime
        if runtime.is_resident(expert):
            return self._sim.now
        needed = set(islice(self.state.queue.unbegun(), 2))
        if not needed.isdisjoint(runtime.would_evict(expert)):
            return None
        return self.state.demand_copy(expert, self._sim.now, speculative=True)

    # ------------------------------------------------------------------
    # Fault surface (driven by the cluster's FaultInjector)
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        return self._halted

    def halt(self) -> None:
        """Fail-stop this engine at the current simulated time.

        Already-scheduled simulator callbacks become no-ops; the group
        executing right now is cut short — its partial compute records as
        a truncated ``lost`` span ending at the crash instant, and none
        of its requests complete (they stay re-dispatchable, which is
        what makes cluster-level recovery exactly-once). Queued work and
        the interrupted group remain available via :meth:`drain`.
        """
        if self._halted:
            return
        self._halted = True
        now = self._sim.now if self._sim is not None else 0.0
        if self._sim is not None:
            self.state.flush_speculation(now)
        if self._current is not None:
            _, exec_start, _, _ = self._current
            if self._sim is not None and now > exec_start:
                self._sim.record_span(
                    f"lost:{self._current[0].expert.name}",
                    self.lane("compute"), "lost",
                    start_s=exec_start, end_s=now,
                    args={"batch": self._current[0].batch,
                          "reason": "node crash"},
                )

    def drain(self) -> List[RequestGroup]:
        """Remove and return all unfinished groups (in-flight one first).

        Only meaningful on a halted engine: the cluster's recovery path
        re-dispatches exactly these groups to surviving nodes. A node
        that crashed before the t=0 drain returns its admitted backlog.
        """
        orphans: List[RequestGroup] = []
        if self._current is not None:
            orphans.append(self._current[0])
            self._current = None
        queue = self.state.queue
        orphans.extend(queue.remove(range(queue.head, len(queue.names))))
        self._queued = None
        return orphans

    # ------------------------------------------------------------------
    def _group_phase_times(self, group: RequestGroup) -> Tuple[float, float, float]:
        """(router_s, prefill_s, decode_s) of one batched group."""
        router, prefill, decode = self.state.phase_times(group)
        # A straggler window stretches every phase of a group started
        # inside it (thermal throttling, a noisy neighbour, a flaky link).
        factor = self.slow_factor
        return router * factor, prefill * factor, decode * factor

    def precompute_phases(
        self, groups: Sequence[RequestGroup]
    ) -> List[Tuple[float, float, float]]:
        """Each group's base phase triple, seeding the phase memo with
        the shapes it lacks (:meth:`NodeState.precompute_phases`)."""
        return self.state.precompute_phases(groups)

    def _group_exec_time(self, group: RequestGroup) -> float:
        """Batched router + prefill + closed-form decode for one group."""
        router, prefill, decode = self._group_phase_times(group)
        return router + prefill + decode

    # ------------------------------------------------------------------
    # The event pipeline
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        """Schedule the queue head's begin event if the engine is idle."""
        if (self._sim is None or self._halted or self._busy
                or self._begin_scheduled):
            return
        head = self.state.queue.peek()
        if head is not None:
            self._begin_scheduled = True
            self._sim.schedule_at(
                self._head_start(self._sim.now, head), self._begin_next
            )

    def _head_start(self, now: float, head: ExpertProfile) -> float:
        """When the queue head, a group of ``head``, can begin: ``now``,
        or once the pending copy of its resident expert lands."""
        if self.server.runtime.is_resident(head):
            return max(now, self.state.copy_done.get(head.name, now))
        return now

    def _begin_next(self) -> None:
        if self._halted:
            return
        self._begin_scheduled = False
        if self._busy:
            return
        queue = self.state.queue
        index = queue.head
        if not queue:
            self._notify_idle()
            return
        queue.head += 1
        group = queue.group(index)
        sim = self._sim
        if self._queued is not None:
            self._unqueue((queue.names[index],))
        self._busy = True
        router_s, prefill_s, decode_s = self._group_phase_times(group)
        nxt = queue.peek()
        exec_start = self.state.begin(group, nxt, sim.now)
        if self.policy == "overlap" and nxt is not None:
            # While this group executes, the DMA engines prefetch the
            # next queued expert (or speculate when it is already here).
            if exec_start <= sim.now:
                self._prefetch(nxt, group.expert.name, sim.now)
            else:
                sim.schedule_at(exec_start, self._prefetch_next)
        end = exec_start + router_s + prefill_s + decode_s
        # Phase spans are recorded at finish time (see halt): the same
        # timestamps either way, but a crash truncates honestly.
        self._current = (group, exec_start,
                         (router_s, prefill_s, decode_s), index)
        self._busy_until_s = end
        sim.schedule_at(end, self._finish_group)

    def _prefetch_next(self, now: Optional[float] = None) -> None:
        """The deferred :meth:`_prefetch` of the queue head, due at the
        exec start of the group in flight (``now``, by default the
        clock's)."""
        nxt = self.state.queue.peek()
        if self._halted or nxt is None:
            return
        self._prefetch(
            nxt, self._current[0].expert.name,
            self._sim.now if now is None else now,
        )

    def _prefetch(
        self, nxt: ExpertProfile, protected_name: str, now: float
    ) -> None:
        """Warm the next group's expert on the otherwise-idle DMA engines."""
        state = self.state
        runtime = self.server.runtime
        if runtime.is_resident(nxt):
            state.flush_speculation(now)
            # Recency refresh, free hit — speculative: the demand access
            # happens when the group actually begins.
            runtime.activate(nxt, speculative=True)
            # The DMA is idle this window: warm the predictor's best
            # non-resident guess. A speculative copy may evict cold LRU
            # tails but must never displace the experts the pipeline
            # still needs (the one executing and the one up next).
            # A guess must be non-resident: when every expert the
            # predictor knows is resident there is none, so skip the
            # ranking (iter_candidates and would_evict are pure).
            guess = None
            if not state.predictor.known_names <= runtime.resident_map.keys():
                protected = {nxt.name, protected_name}
                guess = next(
                    (c for c in state.predictor.iter_candidates()
                     if not runtime.is_resident(c)
                     and protected.isdisjoint(runtime.would_evict(c))),
                    None,
                )
            if guess is not None:
                event = runtime.activate(guess, speculative=True)
                state.spec_open.append(
                    (f"copy:{guess.name}", now, event.time_s)
                )
                self.speculative_prefetches += 1
        else:
            state.demand_copy(nxt, now, speculative=True)

    def _finish_group(self) -> None:
        """Finish the executing group, then begin the next one."""
        if self._halted or self._current is None:
            return
        self._complete_current(self._sim.now)
        if self.state.queue:
            self._kick()
        else:
            self._notify_idle()

    def _complete_current(self, finish_s: float) -> None:
        """Finish the executing group at ``finish_s``
        (:meth:`NodeState.finish`)."""
        group, exec_started, phase_times, index = self._current
        self._current = None
        self.state.finish(group, exec_started, phase_times, finish_s, index)
        self._busy = False

    def _drain_before(
        self,
        due: Sequence[tuple],
        horizon: float,
        ordered: bool,
    ) -> Tuple[List[tuple], List[tuple], int]:
        """Run this node's events strictly before ``horizon`` on the
        columnar core, then hand the rest to the event path.

        This node's share of a drain (:func:`_drain_to_horizon`).
        ``due`` holds its events that start the drain, in run order, as
        ``(time, rank, callback)``: the begin of its queue head, or the
        deferred prefetch and the finish of its group in flight. They
        run first, then the queue from its head, from when the head can
        begin; the drain moves the head past every group it begins. The
        node is left exactly as the reference path leaves it at the
        horizon: the unbegun groups queued, and either a group in flight
        (its finish and, when its exec start is at or after the horizon,
        its deferred prefetch still to run) or the next begin due.

        Returns the handed-off events as ``(key, time, callback)``, the
        lanes the drained events created as ``(key, lane)``, and the
        number of reference events the drained ones stand for. When
        ``ordered`` the keys put both in the reference path's order
        (:func:`_tie_key`); otherwise a key is just its chain's rank.
        """
        timeline = self._sim.timeline
        queue = self.state.queue
        times: Optional[List[float]] = [] if ordered else None
        track = ordered and timeline is not None
        created: Optional[List[tuple]] = [] if track else None
        lanes: List[tuple] = []
        count = 0
        start: Optional[float] = None
        # The chain's root: the begin due, or the in-flight finish.
        root = due[-1][1]
        for time, rank, callback in due:
            if callback == self._begin_next:
                # Counted below, as the drain's first begin.
                self._begin_scheduled = False
                start = time
                continue
            known = len(timeline.lanes) if track else 0
            count += 1
            if callback == self._prefetch_next:
                self._prefetch_next(time)
                sub = 0
            else:
                self._complete_current(time)
                if times is not None:
                    times.append(time)
                head = queue.peek()
                start = (time if head is None
                         else self._head_start(time, head))
                sub = 1
            if track:
                lanes.extend(((time, -math.inf, rank, sub), lane)
                             for lane in timeline.lanes[known:])
        if start is None:
            # Only the prefetch was due; the finish is at or after the
            # horizon and stays on the clock.
            return [], lanes, count
        head = queue.head
        stop = _columnar_drain(self, queue, start, horizon, times, created)
        if self._queued is not None:
            self._unqueue(islice(queue.names, head, queue.head))
        done = stop.begun - (stop.current is not None)
        events: List[tuple] = []
        if stop.current is None:
            self._begin_scheduled = True
            events.append((stop.now, self._begin_next, 1))
        else:
            exec_start, (router, prefill, decode) = stop.current[1:3]
            self._current = stop.current
            self._busy = True
            self._busy_until_s = exec_start + router + prefill + decode
            if stop.prefetch_due:
                events.append((exec_start, self._prefetch_next, 0))
            events.append((self._busy_until_s, self._finish_group, 1))
        count += stop.begun + done + stop.deferred
        if stop.current is None and not queue:
            # Drained dry: the handed-off begin only replays the last
            # finish's idle notification, and lands the shared clock on
            # this node's end; it is no reference event of its own.
            count -= 1
        if not ordered:
            keys = [(root,)] * len(events)
        else:
            last = len(times) - 1
            keys = [_tie_key(times, root, time, last, sub)
                    for time, _, sub in events]
            lanes.extend(
                (_tie_key(times, root, time, parent, sub), lane)
                for lane, time, parent, sub in created or ()
            )
        handoffs = [(key, time, callback)
                    for key, (time, callback, _) in zip(keys, events)]
        return handoffs, lanes, count

    def _notify_idle(self) -> None:
        if self.on_idle is not None:
            self.on_idle(self)
        self._kick()  # the idle hook may have stolen work into the queue

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[EngineRequest]) -> ServeReport:
        """Serve a whole backlog on a private clock; returns the report.

        Engines are single-use: a second :meth:`run` raises
        :class:`EngineReentryError` (cache/predictor/stats state
        survives the rebind, so a reused engine starts warm and cannot
        reproduce a fresh run). Construct a new engine per run.
        """
        if self._ran:
            raise EngineReentryError(
                "this ServingEngine already ran; cache, predictor and "
                "stats state persists across rebinds — construct a fresh "
                "engine per run"
            )
        self._ran = True
        if not requests:
            raise ValueError("empty request backlog")
        timeline = Timeline() if self.record_timeline else None
        sim = Simulator(timeline=timeline)
        self.bind(sim)
        try:
            backlog = group_backlog(requests, self.scheduler, self.policy,
                                    self.window, self.max_batch)
            admit_backlog([self], backlog)
            num_groups = len(backlog.starts)
            output_tokens = int(backlog.tokens.sum())
            del backlog  # its arrays need not live through the run
            if self.drain_mode == DrainMode.COLUMNAR.value:
                sim.schedule_at(
                    0.0, lambda: _drain_to_horizon([self], held=True)
                )
            else:
                self._kick()
            makespan = sim.run()
            self.state.flush_speculation(makespan)
        finally:
            self.unbind()
        return build_report(
            [self.state], timeline, requests, makespan,
            output_tokens=output_tokens,
            policy=self.policy,
            cluster_policy=None,
            scheduler=self.scheduler.name,
            groups=num_groups,
            events_run=sim.events_run,
            speculative_prefetches=self.speculative_prefetches,
        )

    def serve(self, requests: Sequence[EngineRequest]) -> ServeReport:
        """Alias of :meth:`run` satisfying :class:`repro.coe.api.Server`."""
        return self.run(requests)


def _tie_key(
    times: List[float], rank: int, time: float, parent: int, sub: int
) -> tuple:
    """Where the reference path runs a node's event among equal-time ones.

    The simulator breaks a tie by scheduling order, and a node's events
    form one chain (root begin -> finish -> begin ...), so two events at
    the same time run in the order their parents ran: compare the
    parents' times, then the grandparents', and so on back to the root
    (``times[parent]``, ``times[parent - 1]``, ... — the drained chain).
    A root — a begin held at admission, or an event already pending on
    the clock when the drain began — precedes every event scheduled
    during the drain (``-inf``); roots keep their ``rank``, the order
    they were scheduled in (dispatch order for held begins); and a
    begin schedules its prefetch (``sub`` 0) before its finish (1).
    """
    return (time, *reversed(times[:parent + 1]), -math.inf, rank, sub)


def _drain_to_horizon(
    engines: Sequence[ServingEngine], held: bool = False
) -> None:
    """Drain engines on the columnar core up to a horizon, then hand the
    rest to the event path.

    ``engines`` share one clock. A run's first drain is its one t=0
    event, over the engines ``held`` at admission: each with its
    admitted backlog as its queue (:func:`admit_backlog`; no group
    built) and its first begin held back (never scheduled), in the
    order they received their first group. Every drain reads each
    node's queue in place from its head, priced at the slow factor in
    force when it starts, and leaves the unbegun groups queued behind
    the head; a node that crashed first keeps its queue for its
    :meth:`ServingEngine.drain`. Groups are built only where one leaves
    the queue: a decision point, and at a finite horizon the group in
    flight. A cluster calls the drain again after each cluster event
    that changes a queue or a cost input, and from a steal hook after
    each online replication, over all its engines; each alive one
    starts from its events pending on the clock: a begin due, or the
    finish (and perhaps the deferred prefetch) of its group in flight.
    The calling hook's node starts from the begin its submit scheduled,
    and a drain never runs a hook itself. Halted engines are skipped;
    their events are no-ops, a held begin too, which counts as the
    event it is on the reference path.

    The horizon is the next pending event that is not these engines'
    own: a cluster event (a fault or a heartbeat). With no ``on_idle``
    hook installed nothing else interleaves with a queue. A ``steal``
    cluster's hooks look at other nodes only when a node finds its
    queue empty, at a finish or a begin, and no node gets there before
    the no-wait end of its queue (:meth:`GroupColumns.no_wait_end`)
    from its in-flight finish or its begin due; the horizon is capped by
    the earliest such end. Each engine runs its events strictly before
    the horizon (:meth:`ServingEngine._drain_before`). The events it
    hands off are scheduled in the order the reference path would have
    scheduled them, and the lanes the drains created are put in the
    order the reference created them (docs/PERFORMANCE.md, section 11)
    — work done only when there is an order to restore: a finite
    horizon, or a traced run of two or more engines.
    """
    sim = engines[0]._sim
    drained = 0
    due: Dict[ServingEngine, List[tuple]] = {}
    if held:
        for rank, engine in enumerate(engines):
            if engine._halted:
                drained += 1
            else:
                due[engine] = [
                    (engine._head_start(sim.now, engine.state.queue.peek()),
                     rank, engine._begin_next)
                ]
    horizon = math.inf
    owner = {id(engine): engine for engine in engines}
    for event in sim.pending():
        engine = owner.get(id(getattr(event[2], "__self__", None)))
        if engine is None:
            horizon = min(horizon, event[0])
        elif not engine._halted:
            due.setdefault(engine, []).append(event)
    if any(engine.on_idle is not None for engine in due):
        # The horizon needs every queue priced up front.
        for engine, events in due.items():
            start = engine._busy_until_s if engine._busy else events[0][0]
            queue = engine.state.queue
            queue.price(engine.slow_factor)
            horizon = min(horizon, queue.no_wait_end(
                start, queue.head, len(queue.names)))
    if not held:
        # Keep what starts at or after the horizon on the clock, and the
        # begin of an engine with nothing queued (it only notifies idle).
        for engine in list(due):
            events = [e for e in due[engine] if e[0] < horizon]
            if events and (engine._busy or engine.state.queue):
                due[engine] = events
            else:
                del due[engine]
        sim.cancel(chain.from_iterable(due.values()))
    timeline = sim.timeline
    ordered = horizon < math.inf or (timeline is not None and len(due) > 1)
    before = timeline.lanes if timeline is not None else []
    handoffs: List[tuple] = []
    lanes: List[tuple] = []
    for engine, events in due.items():
        events, created, count = engine._drain_before(
            events, horizon, ordered
        )
        handoffs.extend(events)
        lanes.extend(created)
        drained += count
    handoffs.sort(key=itemgetter(0))
    sim.schedule_many((time, callback) for _, time, callback in handoffs)
    # A held drain's own event stands for one of the drained ones.
    sim.count_events(max(0, drained - 1) if held else drained)
    if lanes:
        lanes.sort(key=itemgetter(0))
        timeline.reorder_lanes(before + [lane for _, lane in lanes])


# ----------------------------------------------------------------------
# Workload + comparison helpers (benchmark harness, CLI, examples)
# ----------------------------------------------------------------------


def zipf_request_stream(
    library: ExpertLibrary,
    num_requests: int,
    alpha: float = 1.1,
    seed: int = 1234,
    prompt_tokens: int = 256,
    output_tokens: int = 20,
) -> List[EngineRequest]:
    """A skewed (Zipf) pre-routed request stream over a library.

    Real CoE traffic concentrates on a few hot experts (the router's
    domain mix is not uniform); rank-``r`` experts draw with weight
    ``r^-alpha``. Deterministic under ``seed``.
    """
    import random

    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(library))]
    experts = rng.choices(library.experts, weights=weights, k=num_requests)
    return [
        EngineRequest(
            request_id=i,
            expert=expert,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
        )
        for i, expert in enumerate(experts)
    ]


def compare_policies(
    platform: Platform,
    library: ExpertLibrary,
    requests: Sequence[EngineRequest],
) -> Dict[str, ServeReport]:
    """Run the same backlog under each node policy on a fresh engine."""
    return {
        policy: ServingEngine(platform, library, policy=policy).run(requests)
        for policy in NodePolicy.values()
    }
