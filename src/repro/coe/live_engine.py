"""Wall-clock CoE serving: the same policies, an asyncio backend.

The simulator answers "what would this policy do"; this module answers
"does the deployed loop actually do it". A :class:`LiveEngine` runs one
asyncio worker task per node against a :class:`repro.sim.clock.WallClock`
— real admission at arrival time, bounded per-node queues with
backpressure shedding, streamed token callbacks as decode steps complete,
and a graceful drain on shutdown — while making **byte-identical policy
decisions** to the sim backend for the same request stream:

- Admission is the sim's own code. The dispatcher groups the whole
  trace once (:func:`repro.coe.columnar.group_backlog`, the sim's
  grouping) and sleeps to each distinct release instant
  (:func:`repro.coe.scheduling.release_times`: when the arrivals that
  close a group are in). There it admits that instant's groups in one
  :func:`repro.coe.columnar.admit_backlog` call, the sim's admission:
  the same owner lookup routes them (the shards of
  :func:`repro.coe.dispatch.shard_experts` partition the library), the
  same :func:`~repro.coe.dispatch.admit` judges them against the same
  per-node admission sum (:attr:`repro.coe.node.NodeState.admitted_s`)
  at logical ``now = 0.0``, and they join the node's queue columns.
  So the ETAs are bitwise the sim's even though wall arrivals are
  spread in time, and a trace that arrives at one instant is admitted
  in one call, priority order included, as the sim admits it.
- Every group goes through :meth:`repro.coe.node.NodeState.begin`,
  the group step the sim's drains call too: the predictor's observe
  (under a ``predictive`` cache, the only live policy that reads it), the
  cache decision inside :meth:`repro.coe.runtime.CoERuntime.activate`,
  the demand copy on the node's DMA cursor and the pipelined-promotion
  peek. The worker only sleeps to the step's planned exec start and
  streams tokens, then ends the group with
  :meth:`~repro.coe.node.NodeState.finish`, the sim's group end: phase
  spans and completion records go into the node's state as the sim
  writes them.
- The report is the sim's too: :func:`repro.coe.report.build_report`
  over the nodes' states, so a live run returns the same
  :class:`~repro.coe.report.ServeReport` schema, with the live-only
  fields (shed split, streamed tokens, wall seconds) filled in.

The cross-check (:mod:`repro.coe.crosscheck`) runs both backends over a
recorded trace and diffs their :class:`~repro.coe.decisions.DecisionLog`
streams — the correctness artifact for the whole policy/clock split.

What live mode deliberately does *not* model: speculative prefetch
(``overlap``), runtime stealing, and fault injection are sim-clock
features; :class:`repro.coe.api.ServeConfig` rejects them with a typed
:class:`~repro.coe.policies.ServeModeError` rather than silently diverging.

Timestamps: everything is **model seconds** (``time_scale`` wall seconds
each — see :class:`~repro.sim.clock.WallClock`), so a live timeline's
spans line up with a sim run of the same work, and a 10-model-second
trace smoke-tests in a fraction of a wall second.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import (
    Callable, Iterable, List, NamedTuple, Optional, Sequence, Set,
    TYPE_CHECKING,
)

import numpy as np

from repro.coe.columnar import Grouping, admit_backlog, group_backlog
from repro.coe.decisions import DecisionLog
from repro.coe.dispatch import shard_experts
from repro.coe.engine import EngineRequest
from repro.coe.expert import ExpertLibrary
from repro.coe.node import NodeState
from repro.coe.policies import FIELDS, ServeMode, ServeModeError
from repro.coe.report import ServeReport, ShedRequest, build_report
from repro.coe.scheduling import RequestGroup, make_scheduler, release_times
from repro.obs import Timeline
from repro.sim.clock import WallClock

if TYPE_CHECKING:  # avoid the api <-> live_engine import cycle
    from repro.coe.api import PlatformLike, ServeConfig

#: Shed reasons a :class:`ShedRequest` can carry.
SHED_REASONS = ("deadline", "backpressure")


class TokenEvent(NamedTuple):
    """One streamed decode token, delivered to the token callback."""

    request_id: int
    expert: str
    #: 0-based index of this token within the request's generation.
    index: int
    #: Model-seconds timestamp of the decode step that produced it.
    time_s: float
    node: str


@dataclass
class _LiveNode:
    """One live node: its :class:`NodeState` and its worker's queue,
    which carries :attr:`NodeState.queue`'s groups in the same order."""

    index: int
    name: str
    state: NodeState
    hosted: Set[str]
    queue: Optional[asyncio.Queue] = None
    #: Copy spans the group step booked, as (name, lane, category,
    #: start_s, end_s, args); the worker records them once it has slept
    #: to the group's exec start.
    booked: List[tuple] = field(default_factory=list)

    def precompute_phases(self, groups):
        """Admission's phase seeding (:func:`admit_backlog`)."""
        return self.state.precompute_phases(groups)


class LiveEngine:
    """Serves an arrival stream on the wall clock, one task per node.

    Construct via :func:`repro.coe.api.build_server` with a
    ``mode="live"`` config (which has already vetted the policy subset),
    then :meth:`serve` a backlog — or :meth:`aserve` from inside an
    existing event loop. ``token_callback(event: TokenEvent)`` fires for
    every decode token as its step completes; ``decision_log`` records
    the same streams the sim backend would.
    """

    def __init__(
        self,
        platform: "PlatformLike",
        library: ExpertLibrary,
        config: "ServeConfig",
        *,
        decision_log: Optional[DecisionLog] = None,
        token_callback: Optional[Callable[[TokenEvent], None]] = None,
    ) -> None:
        if config.mode is not ServeMode.LIVE:
            raise ServeModeError(
                "LiveEngine needs a mode='live' ServeConfig; use "
                "repro.serve / build_server for sim configs"
            )
        self.config = config
        self.library = library
        self.policy = config.policy.value
        self.cluster_policy = config.cluster_policy.value
        self.scheduler = make_scheduler(config.scheduler)
        self.deadline_s = config.deadline_s
        # An unset live knob means its declared ``unset`` value.
        self.max_queue, self.time_scale, self.drain_timeout_s = (
            FIELDS[name].resolve(getattr(config, name))
            for name in ("max_queue", "time_scale", "drain_timeout_s")
        )
        self._decisions = decision_log
        #: The sim backend records admission decisions only when the
        #: config selects the cluster engine; mirror that exactly so the
        #: two logs have the same streams.
        self._record_admission = config.wants_cluster
        self._token_callback = token_callback
        self.shed: List[ShedRequest] = []
        self.timeline = Timeline()
        self.clock = WallClock(
            time_scale=self.time_scale, timeline=self.timeline
        )

        factory = platform if callable(platform) else (lambda: platform)
        self.nodes: List[_LiveNode] = []
        # ClusterEngine's sharding; a single node serves the library
        # itself.
        shards, owners = shard_experts(library, config.num_nodes)
        self._owner_of = {name: nodes[0] for name, nodes in owners.items()}
        for idx, shard in enumerate(shards):
            state = NodeState(
                factory(),
                ExpertLibrary(experts=list(shard))
                if config.wants_cluster else library,
                lane_prefix=f"node{idx}/",
                reserved_hbm_bytes=config.reserved_hbm_bytes,
                cache_policy=config.cache_policy.value,
                tier_capacities=config.tier_capacities,
                pipeline_promotions=config.pipeline_promotions,
                decision_log=decision_log,
            )
            node = _LiveNode(
                index=idx,
                name=f"node{idx}",
                state=state,
                hosted={e.name for e in shard},
            )
            state.reset(partial(self._book, node), self.timeline)
            self.nodes.append(node)
        self.cache_policy = self.nodes[0].state.server.runtime.policy.name

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # Admission (the dispatcher task)
    # ------------------------------------------------------------------
    def _shed(self, requests: Iterable[EngineRequest], reason: str) -> None:
        self.shed.extend(
            ShedRequest(req.request_id, req.expert.name, reason,
                        req.output_tokens)
            for req in requests
        )

    def _admit(self, backlog: Grouping, lo: int, hi: int) -> None:
        """Admit groups ``lo:hi`` of ``backlog`` in one
        :func:`admit_backlog` call, then put each node's new groups on
        its worker's queue in queue order.

        A full worker queue sheds with ``backpressure`` after the
        verdict: the group leaves the node's queue columns but stays in
        its admission sum, so the decision stream stays sim-identical
        (the cache streams cannot: the cross-check never sheds).
        """
        queued = [len(node.state.queue.names) for node in self.nodes]
        _, shed = admit_backlog(
            self.nodes, backlog, lo, hi, self._owner_of, self.deadline_s,
            self._decisions if self._record_admission else None,
            [node.name for node in self.nodes],
        )
        self._shed(shed, "deadline")
        for node, start in zip(self.nodes, queued):
            cols = node.state.queue
            for i in range(start, len(cols.names)):
                try:
                    node.queue.put_nowait(cols.group(i))
                except asyncio.QueueFull:
                    # Nothing yields here, so the rest cannot fit either.
                    self._shed(chain.from_iterable(
                        group.requests for group in cols.remove(
                            range(i, len(cols.names)))), "backpressure")
                    break

    async def _dispatch_all(self, requests: Sequence[EngineRequest]) -> None:
        """Open-loop admission: admit each group at its release instant."""
        config = self.config
        backlog = group_backlog(requests, self.scheduler, self.policy,
                                config.window, config.max_batch)
        self._groups = len(backlog.starts)
        self._output_tokens = int(backlog.tokens.sum())
        release = release_times(backlog.arrivals[backlog.grouped],
                                backlog.starts, self.policy, config.window)
        # Release instants are monotone: admit each run of equal ones.
        bounds = np.flatnonzero(np.diff(release)) + 1
        for lo, hi in zip([0, *bounds.tolist()],
                          [*bounds.tolist(), self._groups]):
            await self.clock.sleep_until(float(release[lo]))
            self._admit(backlog, lo, hi)

    # ------------------------------------------------------------------
    # Execution (one worker task per node)
    # ------------------------------------------------------------------
    async def _run_group(self, node: _LiveNode, group: RequestGroup) -> None:
        """Run one group: the node's group step plans it, and the worker
        sleeps to the plan's exec start, then streams its tokens."""
        clock = self.clock
        state = node.state
        # This group, the queue head, begins: move the head past it so
        # the lookahead backlog window and the pipelining peek see only
        # the groups not yet begun, as the sim's begin does.
        state.queue.head += 1
        nxt = state.queue.peek()
        phase_times = state.phase_times(group)
        router_s, prefill_s, decode_s = phase_times
        await clock.sleep_until(state.begin(group, nxt, clock.now))
        for name, lane, category, start, end, args in node.booked:
            clock.record_span(
                name, lane, category, start_s=start, end_s=end, args=args
            )
        node.booked.clear()
        exec_start = clock.now
        await clock.sleep(router_s + prefill_s)
        callback = self._token_callback
        steps = group.phase_key[3]
        if callback is not None and steps > 0 and decode_s > 0:
            # Stream: one decode step per output token position, the
            # batch's tokens delivered as each step completes. Steps
            # sleep to *absolute* model deadlines, so the event loop's
            # ~1ms timer floor is paid once per behind-schedule stretch
            # — late steps fire back to back — instead of compounding
            # per token.
            step_s = decode_s / steps
            decode_start = clock.now
            node_name = node.name
            expert_name = group.expert.name
            for step in range(steps):
                await clock.sleep_until(decode_start + step_s * (step + 1))
                now = clock.now
                for req in group.requests:
                    if step < req.output_tokens:
                        callback(TokenEvent(
                            req.request_id, expert_name, step, now, node_name,
                        ))
                        self._tokens_streamed += 1
        else:
            await clock.sleep(decode_s)
        # Phase spans at their planned model durations, anchored at the
        # actual start — wall jitter shifts spans, never stretches them.
        # A node runs its groups one at a time, so the count finished
        # is this group's index, as the sim's begin count is.
        state.finish(group, exec_start, phase_times, clock.now,
                     state.groups_done)

    def _book(self, node: _LiveNode, name, lane, category, *, start_s,
              end_s, args) -> None:
        """Span sink of ``node``'s group step.

        A copy span waits in ``node.booked`` until the worker has slept
        to its end. Promotion spans are deferred to shutdown, where
        :meth:`aserve` clips them at the makespan, so a cancelled drain
        never paints DMA activity past the moment the engine stopped.
        """
        span = (name, lane, category, start_s, end_s, args)
        if category == "promote":
            self._promo_spans.append(span)
        else:
            node.booked.append(span)

    async def _worker(self, node: _LiveNode) -> None:
        while True:
            group = await node.queue.get()
            try:
                if group is None:  # drain sentinel
                    return
                await self._run_group(node, group)
            finally:
                node.queue.task_done()

    # ------------------------------------------------------------------
    async def aserve(self, requests: Sequence[EngineRequest]) -> ServeReport:
        """Serve the stream inside the caller's event loop."""
        if not requests:
            raise ValueError("empty request backlog")
        self._tokens_streamed = 0
        self._promo_spans: List[tuple] = []
        self.clock.start()
        for node in self.nodes:
            node.queue = asyncio.Queue(maxsize=self.max_queue)
        tasks = [
            asyncio.create_task(self._worker(node), name=f"live-{node.name}")
            for node in self.nodes
        ]
        drained = True
        try:
            await self._dispatch_all(requests)
            for node in self.nodes:
                await node.queue.put(None)  # waits for space: still bounded
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=self.drain_timeout_s
                )
            except asyncio.TimeoutError:
                drained = False
        finally:
            # No task leaks, on any path: cancel whatever still runs and
            # reap every task before returning.
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        makespan = self.clock.now
        wall_s = self.clock.wall_elapsed_s
        # Flush the deferred promotion spans, clipped at the makespan: a
        # promotion whose DMA window outlived the run (drain timeout, or
        # simply the last compute finishing first) is truncated at the
        # instant the engine stopped, and one that never got to start is
        # dropped — the cancellation is visible in the trace instead of
        # painting phantom DMA activity past shutdown.
        for name, lane, category, start, done, args in self._promo_spans:
            if start >= makespan:
                continue
            self.clock.record_span(
                name, lane, category,
                start_s=start, end_s=min(done, makespan), args=args,
            )
        states = [node.state for node in self.nodes]
        completed = sum(len(state.completed) for state in states)
        if drained and completed + len(self.shed) != len(requests):
            raise RuntimeError(
                f"live engine lost requests: {completed} completed + "
                f"{len(self.shed)} shed of {len(requests)} submitted"
            )
        return build_report(
            states, self.timeline, requests, makespan,
            output_tokens=self._output_tokens,
            policy=self.policy,
            cluster_policy=self.cluster_policy,
            scheduler=self.scheduler.name,
            groups=self._groups,
            deadline_s=self.deadline_s,
            shed=tuple(self.shed),
            drained=drained,
            tokens_streamed=self._tokens_streamed,
            wall_s=wall_s,
            time_scale=self.time_scale,
        )

    def serve(self, requests: Sequence[EngineRequest]) -> ServeReport:
        """Run the stream to completion on a private event loop."""
        return asyncio.run(self.aserve(requests))


__all__ = [
    "LiveEngine",
    "SHED_REASONS",
    "ShedRequest",
    "TokenEvent",
]
