"""Cluster-level CoE serving: event-driven multi-node dispatch.

The paper's Section III-B motivates the single-node SN40L by the pain of
the alternative: multi-machine CoE serving "increases costs, complicates
deployment, and introduces load balancing challenges". This module makes
that trade-off *measurable*: one :class:`repro.coe.engine.ServingEngine`
per node, all on a **shared** :class:`repro.sim.engine.Simulator` clock,
with every node's activity on its own lanes (``node0/compute``,
``node0/switch``, ``node0/prefetch``, ``node0/faults``, ``node1/...``)
of a single :class:`repro.obs.Timeline` — so a Perfetto trace shows
cross-node overlap directly, and the scaling curve is derived from the
same spans.

Cluster policies (:class:`repro.coe.policies.ClusterPolicy`; its value
strings coerce):

- ``least_loaded`` — static admission: each group goes to the owner
  replica with the smallest estimated backlog. The baseline: whatever
  skew the sharding creates, the nodes keep.
- ``affinity`` — routes exactly as ``least_loaded``: a preference for
  an owner whose queue tail already ends in the group's expert would
  need several owners to choose among, and only ``steal`` adds owners.
- ``steal`` — ``least_loaded`` admission plus *runtime* rebalancing:
  when a node drains, it steals queued groups whose expert it hosts
  from the deepest queue; when nothing is stealable and online
  replication is on, it picks the hottest queued expert on the deepest
  node, replicates it locally (paying the DDR->HBM copy span on the sim
  clock via :meth:`ServingEngine.warm` — replication is *not* free),
  and then pulls that expert's queued groups over.

At t=0 every expert has exactly one owner (the sharding is a
partition) and only ``steal`` replication adds owners, so admission
routes by owner lookup under every policy; the backlog rule chooses
among replicas only when a ``steal`` cluster re-dispatches a crashed
node's groups.

Under Zipf-skewed traffic the single-owner sharding of
:func:`repro.systems.cluster.partition_experts` leaves most nodes idle
while the hot expert's owner grinds through a long queue; online
replication plus stealing is what converts those idle replicas into
throughput, which is exactly the load-balancing machinery the paper says
a scale-out CoE deployment must carry.

Fault tolerance
---------------

A production-scale deployment also has to survive the unhealthy days.
Passing a :class:`repro.sim.faults.FaultSchedule` arms deterministic
faults on the shared clock:

- **Node crash** — the node fail-stops (:meth:`ServingEngine.halt`); a
  heartbeat sweep (period ``heartbeat_s``) detects the silence on its
  next beat and runs recovery: the dead node's in-flight and queued
  groups are drained and re-dispatched to surviving owners exactly once,
  and any expert whose *only* replica died is promoted onto a survivor,
  paying the DDR->HBM copy on the sim clock when orphaned work needs it.
- **Slow node** — a transient straggler window; every group *started*
  inside it runs ``multiplier``x slower (windows stack multiplicatively).
- **Copy fault** — the node's next demand DDR->HBM copies fail once
  each and retry, doubling those copies' DMA occupancy.

With a ``deadline_s``, admission (initial and at re-dispatch) becomes
deadline-aware: groups whose estimated finish would bust the deadline
are shed lowest-priority first and reported as ``rejected`` — degraded
service is explicit, never a silent loss. The outage and the rebalance
are first-class spans on each node's ``faults`` lane (``crash`` between
death and detection, ``recovery`` while copies land, ``slow`` windows),
and the run's :class:`repro.coe.report.ServeReport` derives availability,
goodput, recovery time and latency percentiles from the same record the
trace exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.coe.cache import CachePolicy, CachePolicyLike
from repro.coe.columnar import admit_backlog, group_backlog
from repro.coe.decisions import DecisionLog
from repro.coe.dispatch import admit, choose_node, shard_experts
from repro.coe.engine import (
    CompletedRequest,
    EngineReentryError,
    EngineRequest,
    ServingEngine,
    _drain_to_horizon,
    zipf_request_stream,
)
from repro.coe.expert import ExpertLibrary
from repro.coe.policies import ClusterPolicy, DrainMode, NodePolicy, validate
from repro.coe.report import ServeReport, ShedRequest, build_report
from repro.coe.scheduling import RequestGroup, SchedulerLike, make_scheduler
from repro.obs import Timeline
from repro.sim.engine import Simulator
from repro.sim.faults import (
    CopyFault,
    FaultInjector,
    FaultSchedule,
    NodeCrash,
    SlowNode,
)

#: Per-node lane bases, in the order traces should display them.
NODE_LANES = ("compute", "switch", "prefetch", "faults")

#: The queue depth from which a node's hot experts may be replicated
#: onto an idle node (the ``steal`` policy's online replication).
REPLICATION_DEPTH = 3

#: What the constructor accepts as a fault schedule.
FaultsLike = Union[FaultSchedule, Iterable]


def cluster_lanes(num_nodes: int) -> List[str]:
    """The lane names a ``num_nodes`` cluster records, in display order."""
    return [
        f"node{idx}/{base}" for idx in range(num_nodes) for base in NODE_LANES
    ]


@dataclass
class _Node:
    """One cluster node: its engine plus the scheduler's bookkeeping."""

    index: int
    name: str
    engine: ServingEngine
    hosted: Set[str]
    steals_in: int = 0
    replicas_hosted: int = 0
    #: Fault-tolerance state: a crashed node flips ``alive`` at the
    #: fault instant and is *detected* on the next heartbeat.
    alive: bool = True
    crashed_at: Optional[float] = None
    detected_at: Optional[float] = None
    recovered_at: Optional[float] = None
    #: Groups this node lost to a crash that were re-dispatched.
    redispatched: int = 0
    #: Active straggler multipliers (windows stack multiplicatively).
    slow_stack: List[float] = field(default_factory=list)


#: Old name of :class:`repro.coe.report.ServeReport`, kept for importers.
ClusterReport = ServeReport


class ClusterEngine:
    """Runs one :class:`ServingEngine` per node on a shared clock."""

    def __init__(
        self,
        platform_factory: Callable[[], object],
        library: ExpertLibrary,
        num_nodes: int,
        policy: Union[str, ClusterPolicy] = "steal",
        node_policy: Union[str, NodePolicy] = "overlap",
        max_batch: int = 8,
        window: int = 16,
        online_replication: bool = True,
        reserved_hbm_bytes: Optional[int] = None,
        faults: Optional[FaultsLike] = None,
        heartbeat_s: float = 0.05,
        deadline_s: Optional[float] = None,
        cache_policy: CachePolicyLike = None,
        record_timeline: bool = True,
        decision_log: Optional[DecisionLog] = None,
        drain_mode: Union[str, DrainMode] = DrainMode.COLUMNAR,
        scheduler: SchedulerLike = None,
        tier_capacities: Optional[Dict[str, int]] = None,
        pipeline_promotions: bool = False,
    ) -> None:
        checked = validate(
            num_nodes=num_nodes, cluster_policy=policy, policy=node_policy,
            max_batch=max_batch, window=window,
            online_replication=online_replication, faults=faults,
            heartbeat_s=heartbeat_s, deadline_s=deadline_s,
        )
        num_nodes = checked["num_nodes"]
        self.policy = checked["cluster_policy"].value
        self.node_policy = checked["policy"].value
        #: Admission-time backlog reordering, applied once in
        #: :meth:`serve` before dispatch — cluster-global, so same-expert
        #: runs stay contiguous through per-node routing. Schedulers are
        #: stateless order functions, safe to share across nodes.
        self.scheduler = make_scheduler(scheduler)
        if isinstance(cache_policy, CachePolicy) and num_nodes > 1:
            # A policy instance carries per-cache mutable state; sharing
            # one across nodes would corrupt every node's bookkeeping.
            # Pass a name or a zero-arg factory to get one per node.
            raise ValueError(
                "cache_policy must be a name or factory (not a CachePolicy "
                "instance) when num_nodes > 1: each node needs its own "
                "stateful policy object"
            )
        self.library = library
        self.max_batch = checked["max_batch"]
        self.window = checked["window"]
        self.online_replication = checked["online_replication"]
        self.heartbeat_s = checked["heartbeat_s"]
        self.deadline_s = checked["deadline_s"]
        self.timeline: Optional[Timeline] = (
            Timeline() if record_timeline else None
        )
        self.sim = Simulator(timeline=self.timeline)
        self.faults = checked["faults"]
        #: How the admitted queues drain. Both modes admit the backlog
        #: in arrays (:func:`repro.coe.columnar.admit_backlog`). A
        #: columnar cluster starts in one t=0 drain of its nodes on the
        #: columnar core, up to the next cluster event (a fault or a
        #: heartbeat) or, under ``steal``, the first instant a steal hook
        #: could act. Each cluster event that changes a queue or a cost
        #: input (recovery, a slow window opening or closing, a copy
        #: fault, an online replication) drains the alive nodes again
        #: (:func:`repro.coe.engine._drain_to_horizon`). The reference
        #: mode (the oracle the equivalence tests and perf benchmarks
        #: compare against) runs one begin/finish event pair per group.
        self.drain_mode = DrainMode.coerce(drain_mode).value
        #: Cross-check evidence: dispatch/admission verdicts land on the
        #: ``"admission"`` stream, each node runtime's cache decisions on
        #: its own ``"nodeN"`` stream (attached below).
        self._decisions = decision_log
        #: One-shot guard for :meth:`serve` (see EngineReentryError):
        #: node caches and the shared simulator's clock and event count
        #: all survive a serve, so a second call would start warm and
        #: fold a prior run's events into its report.
        self._served = False
        self.steals = 0
        self.replications = 0
        self.promotions = 0
        self.redispatches = 0
        #: Requests shed by deadline admission (reported, never dropped).
        self.rejected: List[EngineRequest] = []
        self._injector: Optional[FaultInjector] = None
        self._crashes_pending = 0
        #: Recovery copy ends, which the makespan covers.
        self._recovery_ends: List[float] = []

        shards, owners = shard_experts(library, num_nodes)
        #: Expert name -> indices of nodes hosting a replica.
        self._owners: Dict[str, List[int]] = owners
        self.nodes: List[_Node] = []
        for idx, shard in enumerate(shards):
            engine = ServingEngine(
                platform_factory(),
                ExpertLibrary(experts=list(shard)),
                policy=self.node_policy,
                max_batch=max_batch,
                window=window,
                simulator=self.sim,
                lane_prefix=f"node{idx}/",
                cache_policy=cache_policy,
                drain_mode=self.drain_mode,
                decision_log=decision_log,
                reserved_hbm_bytes=reserved_hbm_bytes,
                tier_capacities=tier_capacities,
                pipeline_promotions=pipeline_promotions,
            )
            node = _Node(
                index=idx,
                name=f"node{idx}",
                engine=engine,
                hosted={e.name for e in shard},
            )
            if self.policy == "steal":
                # Only the steal policy reacts to this hook
                # (:meth:`_node_idle` is a no-op otherwise); leaving it
                # uninstalled lets the other policies' nodes drain dry
                # in the t=0 drain.
                engine.on_idle = lambda _eng, n=node: self._node_idle(n)
            self.nodes.append(node)

        self.faults.validate_for(len(self.nodes))
        self._crashes_pending = len(self.faults.crashes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Runtime routing (re-dispatch after a crash)
    # ------------------------------------------------------------------
    def _route(self, group: RequestGroup) -> _Node:
        """Pick the owner node of a re-dispatched group, through
        :func:`repro.coe.dispatch.choose_node` once replication has
        given its expert several owners. (Admission at t=0, here and in
        the live backend, routes by owner lookup: every expert has one
        owner until the clock runs.)
        """
        name = group.expert.name
        owners = self._owners.get(name)
        if not owners:
            raise KeyError(f"no node hosts expert {name!r}")
        if len(owners) == 1:
            # choose_node() over one owner returns it unconditionally.
            return self.nodes[owners[0]]
        index = choose_node(
            owners,
            name,
            backlog_of=lambda i: self.nodes[i].engine.estimated_backlog_s(),
        )
        return self.nodes[index]

    def _dispatch(self, group: RequestGroup, now: float) -> bool:
        """Route + submit one group; returns False when it was shed.

        With a ``deadline_s``, a group whose estimated completion (queue
        backlog plus its own execution) would bust the deadline is shed
        instead of submitted: its requests land in :attr:`rejected`.
        Callers feed groups highest-priority first so degradation sheds
        the lowest priorities. The verdict and its decision records are
        :func:`repro.coe.dispatch.admit`'s, the live engine's too; with
        no deadline and no decision log there is nothing to decide or
        record, and the group goes straight to its node.
        """
        node = self._route(group)
        engine = node.engine
        deadline_s = self.deadline_s
        if deadline_s is not None or self._decisions is not None:
            exec_s = backlog_s = 0.0
            if deadline_s is not None:
                exec_s = engine._group_exec_time(group)
                backlog_s = engine.estimated_backlog_s()
            if not admit(group.expert.name, group.batch, node.name,
                         self._decisions, deadline_s, now, backlog_s,
                         exec_s):
                self.rejected.extend(group.requests)
                return False
        engine.submit(group)
        return True

    @staticmethod
    def _priority_order(groups: Sequence[RequestGroup]) -> List[RequestGroup]:
        """Highest priority first, original order within a priority."""
        indexed = list(enumerate(groups))
        indexed.sort(key=lambda pair: (
            -max((r.priority for r in pair[1].requests), default=0), pair[0]
        ))
        return [g for _, g in indexed]

    # ------------------------------------------------------------------
    # Runtime rebalancing (the ``steal`` policy)
    # ------------------------------------------------------------------
    def _node_idle(self, node: _Node) -> None:
        """The ``steal`` hook of a node that found its queue empty: steal
        one group, else replicate an expert, move its groups here and
        drain again. A single steal stays on the event path: re-entering
        costs more than its few groups (docs/PERFORMANCE.md, section 11)."""
        if self.policy != "steal" or not node.alive:
            return
        if node.engine.queue_depth > 0:
            return
        if self._steal_into(node):
            return
        if self.online_replication and self._replicate_into(node):
            self._redrain()

    def _steal_into(self, node: _Node) -> bool:
        """Pull one queued group this node can serve off the deepest queue."""
        hosted = node.hosted
        # A victim queueing none of this node's experts has nothing to
        # steal; dropping it before the (stable) sort leaves the other
        # victims in the same order, and a lone victim needs no ranking.
        victims = [v for v in self.nodes
                   if v is not node and v.alive and v.engine.queue_depth >= 2
                   and v.engine.has_queued(hosted)]
        if len(victims) > 1:
            victims.sort(key=lambda v: -v.engine.estimated_backlog_s())
        for victim in victims:
            group = victim.engine.steal(hosted)
            if group is not None:
                self.steals += 1
                node.steals_in += 1
                node.engine.submit(group)
                return True
        return False

    def _replicate_into(self, node: _Node) -> bool:
        """Replicate the hottest queued expert of the deepest node here.

        The replica's DDR->HBM copy is paid on the simulator clock via
        :meth:`ServingEngine.warm` — replication is never free — and the
        victim's queued groups of that expert then move to this node.
        """
        victims = sorted(
            (
                v for v in self.nodes
                if v is not node and v.alive
                and v.engine.queue_depth >= REPLICATION_DEPTH
            ),
            key=lambda v: -v.engine.estimated_backlog_s(),
        )
        for victim in victims:
            counts = victim.engine.queued_expert_counts()
            candidates = sorted(
                (
                    # One replica per node: the node count caps replicas.
                    name for name, count in counts.items()
                    if count >= 2 and name not in node.hosted
                ),
                key=lambda name: (-counts[name], name),
            )
            for name in candidates:
                expert = self.library[name]
                node.engine.host(expert)
                node.hosted.add(name)
                node.replicas_hosted += 1
                self._owners.setdefault(name, []).append(node.index)
                self.replications += 1
                node.engine.warm(expert)
                # Move roughly half the victim's queued groups of this
                # expert; the owner keeps the rest so both replicas work.
                moved = victim.engine.steal_many(
                    {name}, max(1, counts[name] // 2))
                self.steals += len(moved)
                node.steals_in += len(moved)
                node.engine.submit(*moved)
                return True
        return False

    # ------------------------------------------------------------------
    # Fault handling (driven by the FaultInjector on the shared clock)
    # ------------------------------------------------------------------
    def _record_fault_span(
        self,
        node: _Node,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record on the node's ``faults`` lane, clipped against what is
        already there (a crash inside a straggler window, stacked slow
        windows) so the lane's non-overlap invariant always holds."""
        if end_s < start_s or self.timeline is None:
            return
        lane = f"{node.name}/faults"
        pieces = [(start_s, end_s)]
        for span in self.timeline.spans(lane):
            clipped: List[Tuple[float, float]] = []
            for a, b in pieces:
                if b <= span.start_s or a >= span.end_s:
                    clipped.append((a, b))
                    continue
                if a < span.start_s:
                    clipped.append((a, span.start_s))
                if b > span.end_s:
                    clipped.append((span.end_s, b))
            pieces = clipped
        for a, b in pieces:
            self.sim.record_span(
                name, lane, category, start_s=a, end_s=b, args=args
            )

    def _on_crash(self, fault: NodeCrash) -> None:
        self._crashes_pending -= 1
        node = self.nodes[fault.node]
        if not node.alive:
            return
        node.alive = False
        node.crashed_at = self.sim.now
        node.engine.halt()

    def _on_slow_start(self, fault: SlowNode) -> None:
        node = self.nodes[fault.node]
        if not node.alive:
            return
        node.slow_stack.append(fault.multiplier)
        factor = 1.0
        for m in node.slow_stack:
            factor *= m
        node.engine.slow_factor = factor
        self._redrain()

    def _on_slow_end(self, fault: SlowNode) -> None:
        node = self.nodes[fault.node]
        if node.alive and fault.multiplier in node.slow_stack:
            node.slow_stack.remove(fault.multiplier)
            factor = 1.0
            for m in node.slow_stack:
                factor *= m
            node.engine.slow_factor = factor
        end = fault.end_s
        if node.crashed_at is not None:
            end = min(end, node.crashed_at)
        self._record_fault_span(
            node, f"slow:{fault.multiplier:g}x", "slow", fault.at_s, end,
            args={"multiplier": fault.multiplier},
        )
        self._redrain()

    def _on_copy_fault(self, fault: CopyFault) -> None:
        node = self.nodes[fault.node]
        if node.alive:
            node.engine.state.inject_copy_faults(fault.count)
            self._redrain()

    def _schedule_beat(self, beat: float) -> None:
        """Schedule the heartbeat due at ``beat``, or, when the next
        pending crash is later, the first beat at or after it.

        A beat before that crash finds no dead node: it would be a
        no-op event, and would bound every drain at one period. The
        skipped beats are credited to the clock, so ``events_run``
        counts them still; beat times accumulate exactly as one beat
        scheduling the next does.
        """
        crashes = self.faults.crashes
        next_crash = crashes[len(crashes) - self._crashes_pending].at_s
        skipped = 0
        while beat < next_crash:
            beat += self.heartbeat_s
            skipped += 1
        self.sim.count_events(skipped)
        self.sim.schedule_at(beat, self._heartbeat)

    def _heartbeat(self) -> None:
        """Liveness sweep: a dead node is noticed on the first beat after
        its crash, bounding detection latency by the period."""
        now = self.sim.now
        detected = [n for n in self.nodes
                    if not n.alive and n.detected_at is None]
        for node in detected:
            node.detected_at = now
            self._recover(node, now)
        if self._crashes_pending > 0:
            self._schedule_beat(now + self.heartbeat_s)
        if detected:
            self._redrain()

    def _redrain(self) -> None:
        """After a cluster event changed a queue or a cost input, drain
        the alive nodes again, up to the next cluster event."""
        if self.drain_mode == DrainMode.COLUMNAR.value:
            _drain_to_horizon([n.engine for n in self.nodes])

    def _recover(self, node: _Node, now: float) -> None:
        """React to a detected crash: promote orphaned experts, then
        re-dispatch the dead node's unfinished groups exactly once."""
        self._record_fault_span(
            node, f"crash:{node.name}", "fault",
            node.crashed_at if node.crashed_at is not None else now, now,
            args={"detected_s": now, "reason": "heartbeat timeout"},
        )
        drained = node.engine.drain()
        for owners in self._owners.values():
            if node.index in owners:
                owners.remove(node.index)
        alive = [n for n in self.nodes if n.alive]
        if not alive:
            raise RuntimeError("no surviving node to recover onto")
        # Promote every expert whose only replica died; pay the DDR->HBM
        # copy now only when orphaned work actually needs the expert —
        # the rest land lazily (copy on first demand).
        orphaned = sorted(
            name for name, owners in self._owners.items() if not owners
        )
        needed = {g.expert.name for g in drained}
        placed: Dict[int, int] = {n.index: 0 for n in alive}
        # Hosting and warming an expert leave every backlog as it is.
        backlog = {n.index: n.engine.estimated_backlog_s() for n in alive}
        copy_ends: List[float] = []
        for name in orphaned:
            expert = self.library[name]
            target = min(alive, key=lambda n: (
                backlog[n.index], placed[n.index], n.index
            ))
            placed[target.index] += 1
            target.engine.host(expert)
            target.hosted.add(name)
            target.replicas_hosted += 1
            self._owners[name].append(target.index)
            self.promotions += 1
            if name in needed:
                done = target.engine.warm(expert)
                if done is not None:
                    copy_ends.append(done)
        # Exactly-once re-dispatch: the halted engine completed none of
        # these and can never finish them; survivors get each group once,
        # highest priority first so any deadline shedding degrades
        # gracefully from the bottom.
        shed_before = len(self.rejected)
        for group in self._priority_order(drained):
            if self._dispatch(group, now):
                node.redispatched += 1
                self.redispatches += 1
        recovery_end = max(copy_ends, default=now)
        node.recovered_at = recovery_end
        if copy_ends:
            self._recovery_ends.append(recovery_end)
        self._record_fault_span(
            node, f"recovery:{node.name}", "recovery", now, recovery_end,
            args={
                "redispatched": node.redispatched,
                "shed": len(self.rejected) - shed_before,
                "promoted": len(orphaned),
            },
        )

    # ------------------------------------------------------------------
    def serve(self, requests: Sequence[EngineRequest]) -> ServeReport:
        """Drain the whole backlog across the cluster; one shared clock.

        Admission routes every group at t=0, in arrays, straight into
        each node's queue (:func:`repro.coe.columnar.admit_backlog`).
        A columnar cluster then starts in one t=0 drain over the nodes,
        in the order they received their first group
        (:func:`repro.coe.engine._drain_to_horizon`), and drains again
        after each recovery, slow window edge, copy fault and online
        replication; a reference one begins each node's queue head on
        its own event, in the same node order. Either way the shared
        clock ends at the last event.

        Single-use, like :meth:`ServingEngine.run`: a second call raises
        :class:`EngineReentryError` — node cache/predictor state and the
        shared simulator's clock and event count persist, so a reused
        cluster would start warm and double-count events. Construct a
        fresh :class:`ClusterEngine` per run.
        """
        if self._served:
            raise EngineReentryError(
                "this ClusterEngine already served a backlog; node caches "
                "and the shared simulator's clock and event count "
                "persist — construct a fresh ClusterEngine per run"
            )
        self._served = True
        if not requests:
            raise ValueError("empty request backlog")
        if self.faults:
            self._injector = FaultInjector(
                self.sim,
                self.faults,
                on_crash=self._on_crash,
                on_slow_start=self._on_slow_start,
                on_slow_end=self._on_slow_end,
                on_copy_fault=self._on_copy_fault,
            )
            if self.faults.crashes:
                self._schedule_beat(self.heartbeat_s)
        # Every expert has one owner until the clock runs.
        backlog = group_backlog(requests, self.scheduler, self.node_policy,
                                self.window, self.max_batch)
        roots, shed = admit_backlog(
            [n.engine for n in self.nodes], backlog,
            owner_of={name: owners[0]
                      for name, owners in self._owners.items()},
            deadline_s=self.deadline_s, decisions=self._decisions,
            node_names=[n.name for n in self.nodes],
        )
        self.rejected.extend(shed)
        num_groups = len(backlog.starts)
        output_tokens = int(backlog.tokens.sum())
        del backlog  # its arrays need not live through the run
        if self.drain_mode == DrainMode.COLUMNAR.value:
            if roots:
                self.sim.schedule_at(
                    self.sim.now, lambda: _drain_to_horizon(roots, held=True)
                )
        else:
            for engine in roots:
                engine._kick()
        end_clock = self.sim.run()
        for node in self.nodes:
            if not node.engine.halted:
                node.engine.state.flush_speculation(end_clock)
        completed = sum(len(n.engine.completed) for n in self.nodes)
        if completed + len(self.rejected) != len(requests):
            raise RuntimeError(
                f"cluster lost requests: {completed} completed + "
                f"{len(self.rejected)} rejected "
                f"of {len(requests)} submitted"
            )
        if self.faults:
            # The raw clock runs to the last scheduled fault event even
            # when traffic drained earlier; the makespan is when *work*
            # (completions, recovery copies) actually ended.
            work_end = max(n.engine.completed.last_finish_s()
                           for n in self.nodes)
            makespan = max([work_end] + self._recovery_ends)
        else:
            makespan = end_clock
        return build_report(
            [n.engine.state for n in self.nodes], self.timeline, requests,
            makespan,
            output_tokens=output_tokens,
            crashed_at=[n.crashed_at for n in self.nodes],
            steals_in=[n.steals_in for n in self.nodes],
            replicas_hosted=[n.replicas_hosted for n in self.nodes],
            policy=self.node_policy,
            cluster_policy=self.policy,
            scheduler=self.scheduler.name,
            groups=num_groups,
            events_run=self.sim.events_run,
            speculative_prefetches=sum(
                n.engine.speculative_prefetches for n in self.nodes
            ),
            steals=self.steals,
            replications=self.replications,
            promotions=self.promotions,
            redispatched_groups=self.redispatches,
            recovery_s=max(
                (
                    (n.recovered_at if n.recovered_at is not None
                     else makespan) - n.crashed_at
                    for n in self.nodes if not n.alive
                ),
                default=0.0,
            ),
            faults=tuple(self.faults.specs()),
            deadline_s=self.deadline_s,
            shed=tuple(
                ShedRequest(r.request_id, r.expert.name, "deadline",
                            r.output_tokens)
                for r in self.rejected
            ),
        )

    def completed_requests(self) -> List[CompletedRequest]:
        """All completions across nodes, in finish order."""
        out: List[CompletedRequest] = []
        for node in self.nodes:
            out.extend(node.engine.completed)
        out.sort(key=lambda c: (c.finish_s, c.request_id))
        return out


# ----------------------------------------------------------------------
# Convenience drivers
# ----------------------------------------------------------------------
def run_cluster(
    platform_factory: Callable[[], object],
    library: ExpertLibrary,
    requests: Sequence[EngineRequest],
    num_nodes: int,
    **options,
) -> ServeReport:
    """One cluster run over a fresh engine (fresh timeline, fresh clock);
    ``options`` are :class:`ClusterEngine`'s keywords."""
    return ClusterEngine(
        platform_factory, library, num_nodes, **options
    ).serve(requests)


__all__ = [
    "NODE_LANES",
    "ClusterEngine",
    "cluster_lanes",
    "run_cluster",
    "zipf_request_stream",
]
