"""One serving node's queue, cache, DMA and completion state, shared by
every serving path.

Each expert group a node serves goes through the same sequence: route,
switch the expert into HBM over the DDR->HBM DMA, prefill and decode,
finish. :class:`NodeState` holds the per-node half of it once for the
reference drain, the columnar drain's decision points
(:mod:`repro.coe.columnar`) and the live worker
(:mod:`repro.coe.live_engine`): the node's queue (one
:class:`~repro.coe.columnar.GroupColumns`, which every path edits in
place and a ``lookahead`` cache policy reads from its head), its
:class:`ExpertServer` (cost model + expert cache) with its phase-time
memo, its :class:`ExpertPredictor` where a policy reads one, its
single DMA path and its completion log. :meth:`NodeState.begin` starts
a group and :meth:`NodeState.finish` ends it; a columnar drain logs the
groups it completes as one block of its own.

It never reads a clock. Every step takes ``now`` from its caller and
books its spans through what the caller installs with
:meth:`NodeState.reset`: DMA spans through a simulator's
``record_span`` or the live worker's buffer (recorded once wall time
reaches the span), phase spans on the run's timeline.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.coe.cache import CachePolicyLike, LookaheadPolicy, PredictivePolicy
from repro.coe.columnar import CompletedLog, CompletedRequest, GroupColumns
from repro.coe.decisions import DecisionLog
from repro.coe.expert import ExpertLibrary, ExpertProfile
from repro.coe.policies import NodePolicy
from repro.coe.scheduling import ExpertPredictor, RequestGroup
from repro.coe.serving import ExpertServer
from repro.obs import Timeline
from repro.systems.platforms import Platform

__all__ = ["NodeState"]


class NodeState:
    """A node's queue, server, predictor, phase memo, DMA state and
    completion log, and its group step.

    A ``lookahead`` cache policy reads the queue's next-use index as its
    window (:meth:`GroupColumns.next_use`). The node keeps an
    :class:`ExpertPredictor` (:attr:`predictor`) only when something
    reads it: the ``overlap`` prefetcher (``node_policy``), or a
    ``predictive`` cache policy without its own predictor, which the
    node binds. Otherwise :attr:`predictor` is None and nothing observes.
    Decisions stream into ``decision_log`` under the node's name
    (``lane_prefix`` without its slash, ``"node0"`` when empty).
    """

    def __init__(
        self,
        platform: Platform,
        library: ExpertLibrary,
        *,
        lane_prefix: str = "",
        node_policy: str = "fifo",
        reserved_hbm_bytes: Optional[int] = None,
        cache_policy: CachePolicyLike = None,
        tier_capacities: Optional[Dict[str, int]] = None,
        pipeline_promotions: bool = False,
        decision_log: Optional[DecisionLog] = None,
    ) -> None:
        self.server = ExpertServer(
            platform, library, reserved_hbm_bytes=reserved_hbm_bytes,
            cache_policy=cache_policy, tier_capacities=tier_capacities,
        )
        #: (expert name, batch, prompt, output) -> base (router_s,
        #: prefill_s, decode_s) with no slow factor applied (see
        #: :meth:`phase_times`).
        self.phase_cache: Dict[Tuple[str, int, int, int],
                               Tuple[float, float, float]] = {}
        runtime = self.server.runtime
        # A predictive cache policy without its own predictor reads the
        # node's — the same Markov model the overlap prefetcher uses.
        bind = (isinstance(runtime.policy, PredictivePolicy)
                and runtime.policy.predictor is None)
        self.predictor: Optional[ExpertPredictor] = None
        if bind or NodePolicy.coerce(node_policy) is NodePolicy.OVERLAP:
            self.predictor = ExpertPredictor()
        if bind:
            runtime.policy.predictor = self.predictor
        if isinstance(runtime.policy, LookaheadPolicy):
            runtime.policy.bind_backlog(lambda: self.queue.next_use())
        self.lane_prefix = lane_prefix
        #: The CoServe-style promotion pipeline (:meth:`promote_next`).
        self.pipeline_promotions = bool(pipeline_promotions)
        if decision_log is not None:
            runtime.attach_decisions(
                decision_log, lane_prefix.rstrip("/") or "node0"
            )
        self.reset(None, None)

    def lane(self, base: str) -> str:
        """The timeline lane this node uses for ``base`` activity."""
        return f"{self.lane_prefix}{base}"

    def reset(
        self,
        record_span: Optional[Callable[..., object]],
        timeline: Optional[Timeline],
    ) -> None:
        """Empty the queue, clear the DMA state and the completion log;
        book DMA spans through ``record_span`` and phase spans on
        ``timeline`` (none without one).

        The sink takes :meth:`repro.sim.engine.Simulator.record_span`'s
        arguments (always with ``start_s``, ``end_s`` and ``args``). The
        server's cache and the predictor are not reset.
        """
        self.record_span = record_span
        self.timeline = timeline
        #: The node's queue: the groups begun, then those queued, behind
        #: a head cursor. Admission may replace it with its columns.
        self.queue = GroupColumns.empty()
        #: Per-request completion records, in completion order.
        self.completed = CompletedLog()
        #: Groups finished, columnar run blocks included.
        self.groups_done = 0
        #: Admission-logical backlog: the exec times of the groups
        #: admitted here, summed in admission order; never measured.
        self.admitted_s = 0.0
        #: When the (single) DMA path next frees up: demand copies and
        #: pipelined promotions queue behind each other on it.
        self.dma_free_s = 0.0
        #: Expert name -> completion time of its most recent copy;
        #: execution of a freshly copied expert waits for this.
        self.copy_done: Dict[str, float] = {}
        #: At most one in-flight speculative copy: (name, start_s, copy_s).
        self.spec_open: List[tuple] = []
        #: Armed DDR->HBM copy failures: the next N demand copies fail
        #: once each and are retried on the DMA clock.
        self.copy_faults_armed = 0
        self.copy_retries = 0
        #: Extra DMA occupancy paid by injected-fault retries: the failed
        #: attempt's transfer ran and was discarded. Explicitly separate
        #: from RuntimeStats.switch_time_s, whose contract is that
        #: failures contribute no bytes and no copy time.
        self.retry_dma_s = 0.0

    def phase_times(self, group: RequestGroup) -> Tuple[float, float, float]:
        """Base (router_s, prefill_s, decode_s) of one group, memoized.

        Both clocks compute a group's execution time here, over the same
        :class:`ExpertServer` cost model, so every float that feeds a
        dispatch or admission decision is bitwise-identical across them.
        The memo key is cheap (a name and three ints) where the platform
        ``lru_cache``\\ s hash whole model configs per call.
        """
        key = group.phase_key
        base = self.phase_cache.get(key)
        if base is None:
            _, batch, prompt, output = key
            router = self.server.router_time(batch=batch, prompt_tokens=prompt)
            prefill, decode = self.server.expert_time(
                group.expert, output, prompt, batch=batch
            )
            base = self.phase_cache[key] = (router, prefill, decode)
        return base

    def precompute_phases(
        self, groups: Sequence[RequestGroup]
    ) -> List[Tuple[float, float, float]]:
        """Each group's base phase triple (:meth:`phase_times`), seeding
        the memo with the shapes it lacks."""
        return list(map(self.phase_times, groups))

    def inject_copy_faults(self, count: int = 1) -> None:
        """Arm ``count`` one-shot DDR->HBM demand-copy failures."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.copy_faults_armed += count

    # ------------------------------------------------------------------
    def begin(
        self,
        group: RequestGroup,
        next_expert: Optional[ExpertProfile],
        now: float,
    ) -> float:
        """The group step: make ``group``'s expert ready to execute.

        In order: the predictor, if the node keeps one, observes the
        demand stream (a predictive cache policy reads it even when
        nothing prefetches); a resident expert gets a free recency
        refresh and waits for its pending copy, if any, while a
        non-resident one is copied in on the DMA path
        (:meth:`demand_copy`); then, with promotion pipelining on,
        ``next_expert`` (the group up next, or None) starts its
        NVMe->DDR promotion (:meth:`promote_next`). Returns the time
        the group can start executing.
        """
        expert = group.expert
        if self.predictor is not None:
            self.predictor.observe(expert)
        runtime = self.server.runtime
        if runtime.is_resident(expert):
            runtime.activate(expert)  # hit: free recency refresh
            exec_start = max(now, self.copy_done.get(expert.name, now))
        else:
            exec_start = self.demand_copy(expert, now)
        if self.pipeline_promotions and next_expert is not None:
            self.promote_next(next_expert, now)
        return exec_start

    def finish(
        self,
        group: RequestGroup,
        exec_start: float,
        phase_times: Tuple[float, float, float],
        finish_s: float,
        index: int,
    ) -> None:
        """End the group: record its router/prefill/decode spans on the
        compute lane with one :meth:`Timeline.record_run` (zero-length
        phases skipped), then log one :class:`CompletedRequest` per
        request, started at ``exec_start`` and finished at ``finish_s``.
        """
        name = group.expert.name
        requests = group.requests
        batch = len(requests)
        timeline = self.timeline
        if timeline is not None:
            router, prefill, decode = phase_times
            prefill_at = exec_start + router
            decode_at = prefill_at + prefill
            args = {"group": index, "batch": batch}
            columns = (
                [f"router:{name}", f"prefill:{name}", f"decode:{name}"],
                ["router", "prefill", "decode"],
                [exec_start, prefill_at, decode_at],
                [prefill_at, decode_at, decode_at + decode],
                [args, args, args],
            )
            if not (router > 0 and prefill > 0 and decode > 0):
                keep = [router > 0, prefill > 0, decode > 0]
                columns = [list(compress(column, keep)) for column in columns]
            timeline.record_run(self.lane("compute"), *columns)
        append = self.completed.append
        for req in requests:
            append(CompletedRequest(
                req.request_id, name, batch, req.arrival_s,
                exec_start, finish_s, req.output_tokens,
            ))
        self.groups_done += 1

    def flush_speculation(self, now: float) -> None:
        """Close any in-flight speculative copy span at ``now``.

        A new DMA transfer aborts an in-flight speculative copy; its span
        ends at min(natural completion, abort time). Call once at end of
        run to close a copy the makespan cut short.
        """
        while self.spec_open:
            name, start, copy_s = self.spec_open.pop()
            end = min(start + copy_s, now)
            self.record_span(
                name, self.lane("prefetch"), "prefetch",
                start_s=start, end_s=end,
                args={"copy_s": copy_s, "abandoned": end < start + copy_s},
            )

    def demand_copy(
        self, expert: ExpertProfile, now: float, *, speculative: bool = False
    ) -> float:
        """Activate a non-resident expert; the copy takes the DMA's next
        free slot and its span lands on this node's switch lane. Returns
        the copy's completion time.

        An armed copy fault makes the first attempt fail after consuming
        its full DMA window (the transfer ran and was discarded); the
        retry immediately follows, so one injected fault costs exactly
        one extra copy duration and shows up as a ``fault`` span. That
        extra DMA time is accounted in :attr:`retry_dma_s` — never in
        ``RuntimeStats``: the runtime's copy succeeded, so booking a
        ``failures`` tick there would violate its contract that failures
        contribute no bytes and no switch time.

        ``speculative=True`` marks prefetcher/replication warms so the
        runtime books them apart from demand traffic.
        """
        self.flush_speculation(now)
        start = max(now, self.dma_free_s)
        event = self.server.runtime.activate(expert, speculative=speculative)
        if self.copy_faults_armed > 0 and event.time_s > 0:
            self.copy_faults_armed -= 1
            self.copy_retries += 1
            self.retry_dma_s += event.time_s
            self.record_span(
                f"copy-failed:{expert.name}", self.lane("switch"), "fault",
                start_s=start, end_s=start + event.time_s,
                args={"bytes_up": event.bytes_up, "failed": True,
                      "retried": True},
            )
            start += event.time_s
        done = start + event.time_s
        if event.time_s > 0:
            self.record_span(
                f"copy:{expert.name}", self.lane("switch"), "switch",
                start_s=start, end_s=done,
                args={
                    "hit": False,
                    "speculative": speculative,
                    "policy": event.policy,
                    "bytes_up": event.bytes_up,
                    "bytes_down": event.bytes_down,
                    "evicted": list(event.evicted),
                    "evicted_why": list(event.evicted_why),
                },
            )
        self.dma_free_s = done
        self.copy_done[expert.name] = done
        return done

    def promote_next(self, nxt: ExpertProfile, now: float) -> None:
        """Start the next group's NVMe->DDR promotion behind this group.

        The CoServe pipelining trick: called right after the current
        group's activation, with the next group's expert from the
        scheduler's reordered backlog. If that expert is still
        NVMe-resident, it commits its promotion
        (:meth:`CoERuntime.promote_to_ddr`) and books the DMA occupancy
        on the prefetch lane starting at the DMA's next free slot — so
        the copy overlaps this group's compute and the upcoming demand
        miss pays only the DDR->HBM hop. Pure bookkeeping (no clock
        events), so the reference and columnar drains stay
        bitwise-identical; promotions are never recorded in the decision
        log (prefetcher traffic, not a policy decision), so sim/live
        cross-check streams are unchanged.
        """
        runtime = self.server.runtime
        if runtime.tier_of(nxt.name) != "nvme":
            return
        promo = runtime.promote_to_ddr(nxt)
        if promo.time_s <= 0:
            return
        start = max(now, self.dma_free_s)
        done = start + promo.time_s
        self.dma_free_s = done
        self.record_span(
            f"promote:{nxt.name}", self.lane("prefetch"), "promote",
            start_s=start, end_s=done,
            args={
                "pipelined": True,
                "bytes_read": promo.bytes_read,
                "bytes_written": promo.bytes_written,
                "demoted": list(promo.demoted),
            },
        )
