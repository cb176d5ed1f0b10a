"""The CoE runtime: dynamic expert linking/loading with a policy-driven HBM cache.

Reproduces paper Section V-B:

- every expert is an independently compiled artifact whose HBM and DDR
  requirements are known ahead of time,
- all experts initially live in the capacity tier (DDR on the SN40L, host
  DRAM on a DGX), placed at construction (a library that does not fit is
  the paper's "DGX OOM"); a region of HBM acts as a software-managed cache,
- on request, the runtime "activates" the expert by copying its
  HBM-destined segments up; if HBM is full, resident experts are evicted
  first — **least recently used** by default (the paper's policy), or
  whatever :class:`repro.coe.cache.CachePolicy` the runtime was built
  with (LFU, cost-aware GDSF, predictor-driven, or the offline Belady
  oracle),
- read-only symbols (weights) are *not* copied back on eviction — only the
  mutable fraction pays the downgrade copy.

The runtime distinguishes **demand** activations (a request needs the
expert now) from **speculative** ones (a prefetcher warming a guess):
speculative traffic is accounted in its own counters so the demand
``hit_rate`` is not polluted by the cache talking to itself, and only
demand accesses extend :attr:`CoERuntime.demand_trace` — the recorded
access sequence the Belady oracle replays.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.coe.cache import CachePolicy, CachePolicyLike, make_policy
from repro.coe.decisions import DecisionLog
from repro.coe.expert import ExpertProfile
from repro.memory.hierarchy import MemoryHierarchy, TierLike
from repro.memory.tiers import CapacityError
from repro.units import fmt_bytes


class SwitchEvent(NamedTuple):
    """The outcome of one expert activation.

    A NamedTuple rather than a frozen dataclass: one is constructed per
    activation on the serving engines' hottest loop, where tuple
    construction is several times cheaper than per-field
    ``object.__setattr__``.
    """

    expert: str
    hit: bool
    bytes_up: int
    bytes_down: int
    time_s: float
    evicted: tuple = ()
    #: Which cache policy made the eviction decision.
    policy: str = "lru"
    #: Per-victim one-line reasons, parallel to ``evicted`` (span args).
    evicted_why: tuple = ()
    #: Whether this activation was speculative (prefetcher traffic).
    speculative: bool = False
    #: Which tier the expert was fetched from ("hbm" on a hit; "ddr" or
    #: "nvme" on a miss, depending on where it was resident).
    src_tier: str = "hbm"
    #: Experts demoted DDR->NVMe to make room for an NVMe promotion.
    demoted: tuple = ()


class PromotionEvent(NamedTuple):
    """The outcome of one pipelined (ahead-of-demand) NVMe->DDR promotion.

    Returned by :meth:`CoERuntime.promote_to_ddr`. ``time_s`` is the DMA
    occupancy of the promotion read plus any demotion write-backs it
    forced — the serving engine books it on the prefetch lane, where it
    overlaps compute instead of stalling a switch.
    """

    expert: str
    time_s: float
    bytes_read: int
    bytes_written: int
    demoted: tuple = ()


@dataclass
class RuntimeStats:
    """Cumulative cache behaviour, demand and speculative separated.

    Every *demand* ``activate`` call counts as one request, including
    calls whose copy fails: those additionally increment ``failures``
    and contribute nothing to ``bytes_up``/``bytes_down``/
    ``switch_time_s`` (the copy never happened). Failed requests are a
    subset of ``misses``.

    *Speculative* activations (``activate(..., speculative=True)`` —
    prefetcher warms, online-replication copies) land exclusively in the
    ``speculative_*`` counters, so ``hit_rate`` reflects what the
    serving path actually experienced. ``evictions`` counts every
    eviction regardless of which kind of copy forced it (an eviction is
    a real state change either way).
    """

    requests: int = 0
    hits: int = 0
    evictions: int = 0
    failures: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    switch_time_s: float = 0.0
    speculative_requests: int = 0
    speculative_hits: int = 0
    speculative_bytes_up: int = 0
    speculative_bytes_down: int = 0
    speculative_switch_time_s: float = 0.0
    #: Multi-tier traffic (zero unless part of the library lives on
    #: NVMe): NVMe->DDR promotions riding a miss, DDR->NVMe demotions
    #: forced by the DDR budget, and the bytes moved to/from NVMe.
    #: Demotions are **priced**: each demoted victim pays the
    #: ``ddr -> nvme`` write-back edge, folded into the same switch time
    #: as the promotion that forced it (the DMA engine that fills the
    #: hole is the one that drained it). Like ``evictions``, tier moves
    #: are real state changes and are counted regardless of speculation.
    tier_promotions: int = 0
    tier_demotions: int = 0
    nvme_bytes_read: int = 0
    nvme_bytes_written: int = 0
    #: Times the DDR tier could not reach its budget because every
    #: demotion candidate was HBM-pinned, the incoming expert alone
    #: exceeds the budget, or an expert hosted mid-run
    #: (:meth:`CoERuntime.host`) fit in no tier. The behaviour is a
    #: documented clamp: residency is committed anyway, the overrun is
    #: counted here, and the tier runs oversubscribed.
    tier_overruns: int = 0
    #: Promotions started ahead of demand by the pipelined prefetch path
    #: (:meth:`CoERuntime.promote_to_ddr`) — kept separate from the
    #: demand ``tier_promotions`` so a run without pipelining still pins
    #: ``tier_promotions == 0`` at an unconstrained ladder point.
    pipelined_promotions: int = 0
    pipelined_promotion_time_s: float = 0.0

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def speculative_misses(self) -> int:
        return self.speculative_requests - self.speculative_hits


class CoERuntime:
    """Policy-driven expert cache over the tier budgets of a hierarchy.

    Copy costs come from a :class:`repro.memory.MemoryHierarchy` —
    ``hierarchy.transfer_time(src, dst, num_bytes)`` prices every edge,
    which is how the same code models both the SN40L node and the DGX
    baselines. Raw ``bytes -> seconds`` callables become the DDR<->HBM
    edges of a two-level hierarchy through
    :meth:`MemoryHierarchy.from_edge_times`, bit for bit.

    The hierarchy's level capacities are the only budgets: ``hbm`` the
    expert cache region, ``ddr`` the capacity tier, ``nvme`` the backing
    tier of the CoServe scenario (arXiv:2503.02354); no capacity means
    unbounded, no ``nvme`` level means no NVMe tier. ``experts`` are
    placed at construction: DDR in the given order, the overflow on NVMe
    up to its capacity (later tier moves swap homes without rechecking
    it); a library that does not fit raises
    :class:`~repro.memory.CapacityError`. The hierarchy is *inclusive*:
    an HBM-resident expert keeps its DDR home copy (the copy-back
    target), so the DDR budget must cover the HBM expert region and HBM
    residents are never demotion victims.

    ``policy`` picks the eviction policy (see :mod:`repro.coe.cache`):
    a name (``"lru"``, ``"lfu"``, ``"gdsf"``, ``"predictive"``), a
    :class:`CachePolicy` instance, or a zero-arg factory; unset means
    LRU, bit-identical to the historical hard-coded behaviour.
    """

    def __init__(
        self,
        experts: Sequence[ExpertProfile],
        hierarchy: MemoryHierarchy,
        policy: CachePolicyLike = None,
    ) -> None:
        def budget(tier: str) -> float:
            cap = hierarchy.capacity_bytes(tier) if tier in hierarchy else 0
            return math.inf if cap is None else cap

        self.hbm_budget = budget("hbm")
        self.ddr_budget = budget("ddr")
        self.nvme_budget = budget("nvme")
        if self.ddr_budget < self.hbm_budget:
            raise ValueError(
                f"DDR budget ({self.ddr_budget} B) must cover the HBM "
                f"expert region ({self.hbm_budget} B): the hierarchy is "
                "inclusive — every HBM resident keeps its DDR home copy"
            )
        self.hierarchy = hierarchy
        self.policy: CachePolicy = make_policy(policy)
        self.policy.bind_runtime(self)
        #: name -> expert, in recency order (least recently used first).
        self._resident: "OrderedDict[str, ExpertProfile]" = OrderedDict()
        #: Running sum of resident weight bytes, maintained on insert and
        #: evict so the eviction loop is O(victims), not O(residents²).
        self._resident_bytes = 0
        #: The lower-tier homes of every placed expert: DDR residents in
        #: recency order (the demotion ranking reads it), NVMe residents.
        self._ddr_resident: "OrderedDict[str, ExpertProfile]" = OrderedDict()
        self._ddr_bytes = 0
        self._nvme_resident: Dict[str, ExpertProfile] = {}
        self._nvme_bytes = 0
        self.stats = RuntimeStats()
        #: Demand access sequence (expert names, in order) — the trace a
        #: :class:`repro.coe.cache.BeladyPolicy` replays.
        self.demand_trace: List[str] = []
        self._decisions: Optional[DecisionLog] = None
        self._decision_stream = "node0"
        placed = sum(map(self._seat, experts))
        if placed < len(experts):
            # Both budgets are finite here: an unbounded tier fits all.
            raise CapacityError(
                f"{placed} of {len(experts)} experts fit in DDR "
                f"({fmt_bytes(self.ddr_budget)}) + NVMe "
                f"({fmt_bytes(self.nvme_budget)})"
            )

    # ------------------------------------------------------------------
    def transfer_time(
        self, src_tier: TierLike, dst_tier: TierLike, num_bytes: int
    ) -> float:
        """Edge-based copy cost between two tiers of the hierarchy."""
        return self.hierarchy.transfer_time(src_tier, dst_tier, num_bytes)

    # ------------------------------------------------------------------
    def attach_decisions(self, log: DecisionLog, stream: str) -> None:
        """Record every *demand* cache decision into ``log``.

        This is the single choke point where cache hits and eviction
        choices happen, for every backend — the sim engines and the
        live asyncio engine all activate through here — so attaching a
        :class:`~repro.coe.decisions.DecisionLog` captures the cache
        half of the sim/live decision cross-check with no backend
        branches. Speculative (prefetcher/replication) traffic is not a
        policy decision about a request and is not recorded.
        """
        self._decisions = log
        self._decision_stream = stream

    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_experts(self) -> List[str]:
        return list(self._resident)

    @property
    def resident_map(self) -> Mapping[str, ExpertProfile]:
        """The resident experts, name-keyed, recency-ordered (LRU first).

        A live read-only view over the runtime's own mapping — the
        columnar drain's run scanner does one membership probe per
        group, and going through :meth:`is_resident` would put a Python
        call back on the hottest loop. Callers must not mutate it.
        """
        return self._resident

    def is_resident(self, expert: ExpertProfile) -> bool:
        return expert.name in self._resident

    # ------------------------------------------------------------------
    @property
    def ddr_resident_experts(self) -> List[str]:
        """DDR residents, in DDR recency order."""
        return list(self._ddr_resident)

    def _backing_tier(self, name: str) -> str:
        """Where a placed expert's lower-tier home is right now."""
        if name in self._ddr_resident:
            return "ddr"
        if name in self._nvme_resident:
            return "nvme"
        raise KeyError(f"expert {name!r} is not placed on this runtime")

    def tier_of(self, name: str) -> str:
        """The fastest tier holding ``name`` right now."""
        if name in self._resident:
            return "hbm"
        return self._backing_tier(name)

    def _seat(self, expert: ExpertProfile) -> bool:
        """Give ``expert`` a lower-tier home, DDR when it has room, else
        NVMe; False, with nothing changed, when neither has."""
        size = expert.weight_bytes
        if self._ddr_bytes + size <= self.ddr_budget:
            self._ddr_resident[expert.name] = expert
            self._ddr_bytes += size
            return True
        if self._nvme_bytes + size <= self.nvme_budget:
            self._nvme_resident[expert.name] = expert
            self._nvme_bytes += size
            return True
        return False

    def host(self, expert: ExpertProfile) -> None:
        """Place one more expert mid-run (a replica, a promoted orphan)
        as construction does, but never raise: a run in progress cannot
        refuse the expert it recovers or rebalances onto, so one that
        fits in no tier is seated in DDR under the tier clamp and
        counted in ``stats.tier_overruns``."""
        if not self._seat(expert):
            self._ddr_resident[expert.name] = expert
            self._ddr_bytes += expert.weight_bytes
            self.stats.tier_overruns += 1

    def _plan_ddr_demotions(
        self, expert: ExpertProfile, pinned: frozenset
    ) -> tuple:
        """The DDR victims promoting ``expert`` would demote, in policy
        order, plus whether the budget is unreachable. Pure — no
        mutation, no stats — so it can run inside :meth:`activate`'s
        pre-mutation pricing block.

        Victim choice reuses the *same* cache policy that ranks HBM
        evictions — the decision choke point cascades down the
        hierarchy rather than growing a second policy. ``pinned`` names
        are skipped: the inclusive hierarchy needs HBM residents' DDR
        copies as copy-back targets (and the incoming expert's own new
        home). An expert that alone exceeds the DDR budget demotes
        nothing — no amount of demotion could make it fit.
        """
        victims: List[ExpertProfile] = []
        if expert.weight_bytes > self.ddr_budget:
            return victims, True
        projected = self._ddr_bytes + expert.weight_bytes
        if projected <= self.ddr_budget:
            return victims, False
        # Materialize the order first: eviction_order may lazily iterate
        # the mapping the commit step will pop from.
        for name in list(self.policy.eviction_order(self._ddr_resident)):
            if name in pinned:
                continue
            victim = self._ddr_resident[name]
            victims.append(victim)
            projected -= victim.weight_bytes
            if projected <= self.ddr_budget:
                return victims, False
        return victims, True

    def _commit_ddr_promotion(
        self,
        expert: ExpertProfile,
        victims: Sequence[ExpertProfile],
        overrun: bool,
    ) -> None:
        """Apply a planned promotion: demote victims, seat the expert."""
        for victim in victims:
            del self._ddr_resident[victim.name]
            self._ddr_bytes -= victim.weight_bytes
            self._nvme_resident[victim.name] = victim
            self._nvme_bytes += victim.weight_bytes
            self.stats.tier_demotions += 1
        del self._nvme_resident[expert.name]
        self._nvme_bytes -= expert.weight_bytes
        self._ddr_resident[expert.name] = expert
        self._ddr_bytes += expert.weight_bytes
        if overrun:
            self.stats.tier_overruns += 1

    def promote_to_ddr(self, expert: ExpertProfile) -> PromotionEvent:
        """Promote an NVMe resident to DDR ahead of demand (pipelined).

        The serving engine's promotion-pipelining path: when the
        scheduler's reordered backlog shows an upcoming NVMe-resident
        expert, the engine starts this promotion on the prefetch lane
        while the current group decodes, so the later demand miss pays
        only the DDR->HBM hop. Residency commits immediately (the sim is
        analytic — the returned ``time_s`` is the DMA occupancy the
        caller must serialize on its copy lane); demotion write-backs
        are priced exactly as on the demand path. Accounted in the
        ``pipelined_*`` counters, never in ``tier_promotions`` and never
        in the decision log: a promotion is prefetcher traffic, not a
        policy decision about a request, so sim/live decision streams
        stay identical with pipelining on or off.

        No-op (zero-cost event) if the expert already has a DDR home or
        is HBM-resident.
        """
        if expert.name in self._ddr_resident or expert.name in self._resident:
            return PromotionEvent(expert.name, 0.0, 0, 0)
        pinned = frozenset(self._resident) | {expert.name}
        victims, overrun = self._plan_ddr_demotions(expert, pinned)
        bytes_read = expert.weight_bytes
        bytes_written = sum(v.weight_bytes for v in victims)
        time_s = self.hierarchy.transfer_time("nvme", "ddr", bytes_read)
        if bytes_written:
            time_s += self.hierarchy.transfer_time("ddr", "nvme", bytes_written)
        demoted = tuple(v.name for v in victims)
        self._commit_ddr_promotion(expert, victims, overrun)
        self.stats.pipelined_promotions += 1
        self.stats.pipelined_promotion_time_s += time_s
        self.stats.nvme_bytes_read += bytes_read
        self.stats.nvme_bytes_written += bytes_written
        return PromotionEvent(
            expert.name, time_s, bytes_read, bytes_written, demoted
        )

    def _select_victims(self, expert: ExpertProfile) -> List[ExpertProfile]:
        """The residents activating ``expert`` would evict, in policy
        order. Pure — no mutation, no stats."""
        victims: List[ExpertProfile] = []
        free = self.hbm_budget - self._resident_bytes
        if free >= expert.weight_bytes:
            return victims
        for name in self.policy.eviction_order(self._resident):
            victims.append(self._resident[name])
            free += self._resident[name].weight_bytes
            if free >= expert.weight_bytes:
                break
        return victims

    def would_evict(self, expert: ExpertProfile) -> tuple:
        """Names of the victims activating ``expert`` would evict, under
        the runtime's cache policy.

        Pure preview — no mutation. Lets a speculative prefetcher decline
        a guess whose eviction set includes experts it must keep resident.
        """
        if expert.name in self._resident:
            return ()
        return tuple(v.name for v in self._select_victims(expert))

    # ------------------------------------------------------------------
    def activate(
        self,
        expert: ExpertProfile,
        *,
        speculative: bool = False,
    ) -> SwitchEvent:
        """Make ``expert`` resident in HBM; returns the switch record.

        A hit refreshes recency and costs nothing ("if the next request is
        for the same model, it can resume immediately with no additional
        overhead"). A miss evicts policy-chosen victims until the expert
        fits, pays the copy-back for their mutable state, then copies the
        expert up. Nothing mutates until the copy cost is known to
        succeed, so a failed copy leaves the cache exactly as it was.

        ``speculative=True`` marks prefetcher traffic: it is accounted in
        the separate ``speculative_*`` counters and does not extend the
        demand trace. The caller books the copy's span on its DMA
        timeline (:meth:`repro.coe.node.NodeState.demand_copy`).
        """
        if speculative:
            self.stats.speculative_requests += 1
        else:
            self.stats.requests += 1
            self.demand_trace.append(expert.name)
        self.policy.on_access(expert, expert.name in self._resident,
                              speculative=speculative)
        if expert.name in self._resident:
            self._resident.move_to_end(expert.name)
            if speculative:
                self.stats.speculative_hits += 1
            else:
                self.stats.hits += 1
                if self._decisions is not None:
                    self._decisions.record(
                        self._decision_stream, "cache", expert.name, "hit"
                    )
            return SwitchEvent(
                expert=expert.name, hit=True, bytes_up=0, bytes_down=0,
                time_s=0.0, policy=self.policy.name, speculative=speculative,
            )

        if expert.weight_bytes > self.hbm_budget:
            raise ValueError(
                f"expert {expert.name} ({expert.weight_bytes} B) exceeds the "
                f"HBM budget ({self.hbm_budget} B)"
            )

        src_tier = self._backing_tier(expert.name)
        if src_tier == "ddr":
            # A DDR hit-on-the-way-up refreshes DDR recency so the
            # policy's demotion ranking sees real reuse order.
            self._ddr_resident.move_to_end(expert.name)
        victims = self._select_victims(expert)
        evicted = tuple(v.name for v in victims)
        evicted_why = tuple(self.policy.why(v.name) for v in victims)
        bytes_down = sum(v.copyback_bytes for v in victims)
        bytes_up = expert.weight_bytes
        demote_victims: List[ExpertProfile] = []
        demote_bytes = 0
        overrun = False
        if src_tier == "nvme":
            # Plan the DDR demotions *before* anything mutates, so a
            # failed copy leaves every tier untouched. Pinned: HBM residents that survive this
            # activation (same-call HBM victims ARE demotable — their
            # copy-back already happened by the time the hole opens) and
            # the incoming expert's own new DDR home.
            pinned = frozenset(
                name for name in self._resident if name not in evicted
            ) | {expert.name}
            demote_victims, overrun = self._plan_ddr_demotions(expert, pinned)
            demote_bytes = sum(v.weight_bytes for v in demote_victims)
        try:
            time_s = self.hierarchy.transfer_time(src_tier, "hbm", bytes_up)
            if bytes_down:
                time_s += self.hierarchy.transfer_time("hbm", "ddr", bytes_down)
            if demote_bytes:
                # Each demoted victim pays the DDR->NVMe write-back on
                # the same DMA engine as the promotion that forced it.
                time_s += self.hierarchy.transfer_time(
                    "ddr", "nvme", demote_bytes
                )
        except Exception:
            # A failed copy must not corrupt the cache: nothing was
            # evicted, inserted, promoted, or demoted yet, so only the
            # failure is recorded. The request itself stays counted.
            if not speculative:
                self.stats.failures += 1
            raise
        for victim in victims:
            del self._resident[victim.name]
            self._resident_bytes -= victim.weight_bytes
            self.policy.on_evict(victim.name)
            self.stats.evictions += 1
        self._resident[expert.name] = expert
        self._resident_bytes += expert.weight_bytes
        self.policy.on_insert(expert)
        demoted: tuple = ()
        if src_tier == "nvme":
            demoted = tuple(v.name for v in demote_victims)
            self._commit_ddr_promotion(expert, demote_victims, overrun)
            self.stats.tier_promotions += 1
            self.stats.nvme_bytes_read += bytes_up
            self.stats.nvme_bytes_written += demote_bytes

        if speculative:
            self.stats.speculative_bytes_up += bytes_up
            self.stats.speculative_bytes_down += bytes_down
            self.stats.speculative_switch_time_s += time_s
        else:
            self.stats.bytes_up += bytes_up
            self.stats.bytes_down += bytes_down
            self.stats.switch_time_s += time_s
            if self._decisions is not None:
                self._decisions.record(
                    self._decision_stream, "cache", expert.name, "miss",
                    detail=evicted,
                )
        return SwitchEvent(
            expert=expert.name,
            hit=False,
            bytes_up=bytes_up,
            bytes_down=bytes_down,
            time_s=time_s,
            evicted=evicted,
            policy=self.policy.name,
            evicted_why=evicted_why,
            speculative=speculative,
            src_tier=src_tier,
            demoted=demoted,
        )

    def touch_run(
        self,
        experts: Sequence[ExpertProfile],
        prefetched: Sequence[ExpertProfile] = (),
    ) -> None:
        """Bulk hit path: ``activate`` a run of resident experts.

        The columnar drain's batch form of n consecutive hit
        ``activate`` calls (:mod:`repro.coe.columnar`); every expert
        **must** be resident — a run, by construction, contains no miss,
        so no eviction decision and no byte movement can occur, and the
        final runtime/policy state is exactly what the scalar sequence
        would leave: stats count every access, the demand trace extends
        in order, :meth:`CachePolicy.on_access_run` applies the policy
        bookkeeping, and recency ordering moves each *distinct* name to
        the back in last-occurrence order (earlier moves of a repeated
        name are overwritten by its last one, so only that one matters).
        Demand decisions are still recorded one per access — the
        decision stream is the sim/live cross-check's evidence and must
        stay record-for-record identical.

        ``prefetched`` is the ``overlap`` form: demand hit
        ``experts[k]`` is followed by a speculative hit refresh
        (``activate(prefetched[k], speculative=True)``) for every ``k``
        it covers — the prefetcher warming the group up next when that
        expert is already resident.
        """
        resident = self._resident
        names = [e.name for e in experts]
        accesses, access_names = experts, names
        if prefetched:
            accesses = list(chain.from_iterable(zip(experts, prefetched)))
            accesses += experts[len(prefetched):]
            access_names = [e.name for e in accesses]
        if not all(map(resident.__contains__, access_names)):
            missing = [n for n in access_names if n not in resident]
            raise ValueError(
                f"touch_run requires resident experts; missing {missing!r}"
            )
        n = len(names)
        self.stats.requests += n
        self.stats.hits += n
        self.stats.speculative_requests += len(prefetched)
        self.stats.speculative_hits += len(prefetched)
        self.demand_trace.extend(names)
        self.policy.on_access_run(accesses, experts)
        if len(access_names) == 1:
            resident.move_to_end(access_names[0])
        else:
            seen = set()
            add = seen.add
            distinct_rev = [
                name for name in reversed(access_names)
                if not (name in seen or add(name))
            ]
            move = resident.move_to_end
            for name in reversed(distinct_rev):
                move(name)
        if self._decisions is not None:
            record = self._decisions.record
            stream = self._decision_stream
            for name in names:
                record(stream, "cache", name, "hit")

    def flush(self) -> None:
        """Evict everything from HBM (between experiments).

        Lower-tier placement survives: the hierarchy is inclusive, so
        every flushed resident already has its DDR (or NVMe) home copy.
        """
        self._resident.clear()
        self._resident_bytes = 0
        self.policy.reset()
