"""Pluggable HBM expert-cache policies for :class:`repro.coe.runtime.CoERuntime`.

The paper's Section V-B runtime manages the HBM expert region with a
fixed LRU policy. LRU is the right paper-faithful default, but the
serving layers above the runtime now carry strictly better signals —
router/Markov next-expert predictions, per-expert DDR->HBM copy costs,
the contents of the request queue — that LRU ignores. This module makes
the eviction decision a policy object so those signals can compete:

- :class:`LRUPolicy` — evict the least recently *used* expert. The
  default; byte-identical to the historical hard-coded behaviour.
- :class:`LFUPolicy` — evict the least frequently used expert (demand
  accesses only; ties broken least-recent-first). Protects a stable hot
  set against scan pollution.
- :class:`GDSFPolicy` — Greedy-Dual-Size-Frequency: priority is
  ``L + frequency * copy_cost / size``, evict the lowest. The inflation
  term ``L`` (raised to each evicted priority) ages stale frequency, so
  the policy adapts when the hot set drifts; with heterogeneous experts
  it also prefers evicting cheap-to-refetch artifacts.
- :class:`PredictivePolicy` — evict the expert the serving layer's
  :class:`~repro.coe.scheduling.ExpertPredictor` ranks least likely to
  be needed next (never-predicted residents go first).
- :class:`LookaheadPolicy` — the online Belady approximation: evict the
  resident whose next use lies farthest in the admission scheduler's
  reordered backlog (the CoServe lookahead window, arXiv:2503.02354).
  Nameable, but only usable once an engine binds its backlog view.
- :class:`BeladyPolicy` — the clairvoyant upper bound: evict the expert
  whose next use lies farthest in the future, replayed from a recorded
  demand trace (:attr:`CoERuntime.demand_trace` of a prior run). Not a
  deployable policy — it is the yardstick the heuristics are measured
  against in ``benchmarks/test_cache_policies.py``.

A policy only *ranks* victims; the runtime owns residency, byte
accounting, and stats. The contract (see :class:`CachePolicy`): the
runtime reports every activation via :meth:`~CachePolicy.on_access` —
or, for a columnar run of demand hits, in bulk via the order-equivalent
:meth:`~CachePolicy.on_access_run` —
successful insertions via :meth:`~CachePolicy.on_insert`, evictions via
:meth:`~CachePolicy.on_evict`, and asks :meth:`~CachePolicy.eviction_order`
for the full victim preference when it must free space. All policies are
deterministic: ties break on stable sequence numbers and names, never on
hash or wall-clock order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional,
    Sequence, Tuple, Union,
)

from repro.coe.expert import ExpertProfile
from repro.coe.policies import FIELDS, CachePolicyName

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports us)
    from repro.coe.runtime import CoERuntime
    from repro.coe.scheduling import ExpertPredictor

#: A lookahead backlog view: each upcoming expert name's position of
#: first use, and the position of the next group to begin.
Backlog = Callable[[], Tuple[Mapping[str, int], int]]


class CachePolicy:
    """The protocol an HBM expert-cache eviction policy implements.

    Subclasses override the hooks they need; the base class keeps the
    recency/sequence bookkeeping every policy wants for tie-breaking.
    ``name`` is the wire string reports and span args carry.
    """

    name = "base"

    def __init__(self) -> None:
        self._seq = 0
        #: name -> sequence number of the most recent access (any kind).
        self._last_access: Dict[str, int] = {}
        self._runtime: Optional["CoERuntime"] = None

    # ------------------------------------------------------------------
    def bind_runtime(self, runtime: "CoERuntime") -> None:
        """Called once by the owning runtime (cost model access)."""
        self._runtime = runtime

    def on_access(
        self, expert: ExpertProfile, hit: bool, *, speculative: bool = False
    ) -> None:
        """Every ``activate`` call, demand and speculative, hit or miss."""
        self._seq += 1
        self._last_access[expert.name] = self._seq

    def on_access_run(
        self,
        experts: Sequence[ExpertProfile],
        demand: Optional[Sequence[ExpertProfile]] = None,
    ) -> None:
        """Bulk ``on_access(expert, hit=True)`` for a run of hits.

        The columnar drain's batch path: valid **only** for a stretch of
        accesses that are all hits (no eviction decision can fall
        between them, so no intermediate state is ever observed — the
        run-segmentation invariant of :mod:`repro.coe.columnar`).
        ``experts`` is every access in order; ``demand`` is its demand
        subsequence, the rest being speculative refreshes (unset: all
        demand). Must leave the policy in exactly the state the
        equivalent scalar call sequence would; subclasses that override
        :meth:`on_access` must override this too (order-equivalence is
        pinned per policy in ``tests/coe/test_columnar.py``).

        The base form assigns consecutive sequence numbers in access
        order, speculative ones included; on duplicate names
        ``dict.update`` keeps the last pair, exactly as repeated scalar
        assignments would.
        """
        seq = self._seq
        names = [e.name for e in experts]
        self._last_access.update(zip(names, range(seq + 1, seq + len(names) + 1)))
        self._seq = seq + len(names)

    def on_insert(self, expert: ExpertProfile) -> None:
        """The expert became resident (its copy succeeded)."""

    def on_evict(self, name: str) -> None:
        """The expert was evicted from HBM."""
        # Access bookkeeping is kept: a re-inserted expert's recency and
        # frequency history survive eviction (standard for LFU/GDSF).

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        """All resident names, best victim first. Must be deterministic."""
        raise NotImplementedError

    def why(self, name: str) -> str:
        """One-line reason this resident ranks where it does (span args)."""
        return self.name

    def reset(self) -> None:
        """Forget residency-coupled state (the runtime was flushed)."""

    # ------------------------------------------------------------------
    def _recency(self, name: str) -> int:
        return self._last_access.get(name, 0)


class LRUPolicy(CachePolicy):
    """Least-recently-used — the paper-faithful default.

    The runtime's resident mapping is already kept in recency order
    (oldest first), so the eviction order is simply that order; this is
    bit-identical to the historical hard-coded LRU loop.
    """

    name = "lru"

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        return list(resident)

    def why(self, name: str) -> str:
        return f"lru: last access #{self._recency(name)}"


class LFUPolicy(CachePolicy):
    """Least-frequently-used over *demand* accesses, ties least-recent.

    Speculative prefetches are the cache talking to itself — they do not
    count as evidence of popularity.
    """

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._freq: Dict[str, int] = {}

    def on_access(
        self, expert: ExpertProfile, hit: bool, *, speculative: bool = False
    ) -> None:
        super().on_access(expert, hit, speculative=speculative)
        if not speculative:
            self._freq[expert.name] = self._freq.get(expert.name, 0) + 1

    def on_access_run(
        self,
        experts: Sequence[ExpertProfile],
        demand: Optional[Sequence[ExpertProfile]] = None,
    ) -> None:
        # Only demand accesses count. Summing each name's occurrences
        # lands on the same final frequencies as the scalar increments;
        # the intermediates are unobservable inside a hit run (no
        # eviction_order call).
        super().on_access_run(experts)
        freq = self._freq
        counted = experts if demand is None else demand
        for name, count in Counter(e.name for e in counted).items():
            freq[name] = freq.get(name, 0) + count

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        return sorted(
            resident,
            key=lambda n: (self._freq.get(n, 0), self._recency(n), n),
        )

    def why(self, name: str) -> str:
        return f"lfu: freq {self._freq.get(name, 0)}"


class GDSFPolicy(CachePolicy):
    """Greedy-Dual-Size-Frequency: evict the lowest ``L + f*cost/size``.

    ``cost`` is the platform's DDR->HBM copy time for the expert (what a
    refetch would actually pay), ``size`` its HBM footprint. ``L`` is
    the classic inflation clock: raised to each evicted priority, it
    ages the frequency of experts that stopped being touched, which is
    what lets the policy track a drifting hot set.
    """

    name = "gdsf"

    def __init__(self) -> None:
        super().__init__()
        self._freq: Dict[str, int] = {}
        self._priority: Dict[str, float] = {}
        self._inflation = 0.0

    def _cost(self, expert: ExpertProfile) -> float:
        if self._runtime is not None:
            # The DDR->HBM edge, regardless of where the expert sits now:
            # GDSF scores must not depend on transient NVMe residency or
            # the three-way drain equivalence would break.
            return self._runtime.transfer_time("ddr", "hbm", expert.weight_bytes)
        return float(expert.weight_bytes)

    def _reprice(self, expert: ExpertProfile) -> None:
        self._priority[expert.name] = self._inflation + (
            self._freq.get(expert.name, 0)
            * self._cost(expert)
            / max(expert.weight_bytes, 1)
        )

    def on_access(
        self, expert: ExpertProfile, hit: bool, *, speculative: bool = False
    ) -> None:
        super().on_access(expert, hit, speculative=speculative)
        if not speculative:
            self._freq[expert.name] = self._freq.get(expert.name, 0) + 1
            self._reprice(expert)

    def on_access_run(
        self,
        experts: Sequence[ExpertProfile],
        demand: Optional[Sequence[ExpertProfile]] = None,
    ) -> None:
        # Demand frequencies bulk-sum like LFU; repricing once per
        # distinct demanded expert with its *final* run frequency writes
        # the same priority the last scalar _reprice of the run would
        # (the formula reads only the current frequency, inflation never
        # moves on a hit, and intermediate priorities are unobservable
        # inside a run).
        super().on_access_run(experts)
        freq = self._freq
        counted = experts if demand is None else demand
        distinct: Dict[str, ExpertProfile] = {}
        for expert in counted:
            distinct[expert.name] = expert
        for name, count in Counter(e.name for e in counted).items():
            freq[name] = freq.get(name, 0) + count
        for expert in distinct.values():
            self._reprice(expert)

    def on_insert(self, expert: ExpertProfile) -> None:
        if expert.name not in self._priority:
            self._reprice(expert)

    def on_evict(self, name: str) -> None:
        self._inflation = max(self._inflation, self._priority.get(name, 0.0))

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        return sorted(
            resident,
            key=lambda n: (self._priority.get(n, 0.0), self._recency(n), n),
        )

    def why(self, name: str) -> str:
        return (
            f"gdsf: pri {self._priority.get(name, 0.0):.3e} "
            f"(freq {self._freq.get(name, 0)}, L {self._inflation:.3e})"
        )


class PredictivePolicy(CachePolicy):
    """Evict the resident the expert predictor ranks least likely next.

    Wraps the serving layer's first-order Markov
    :class:`~repro.coe.scheduling.ExpertPredictor`:
    :class:`~repro.coe.engine.ServingEngine` binds its own predictor
    automatically; standalone users pass one in (or set
    :attr:`predictor` later). Without a predictor — or for residents the
    predictor has never ranked — the order falls back to least-recent.
    """

    name = "predictive"

    def __init__(self, predictor: Optional["ExpertPredictor"] = None) -> None:
        super().__init__()
        self.predictor = predictor

    def _ranks(self) -> Dict[str, int]:
        if self.predictor is None:
            return {}
        return {
            c.name: i for i, c in enumerate(self.predictor.candidates())
        }

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        ranks = self._ranks()
        unranked = len(ranks) + len(resident)
        # Least likely first: worst (largest) rank index leads, residents
        # the predictor has never seen lead even that; recency tie-break.
        return sorted(
            resident,
            key=lambda n: (
                -ranks.get(n, unranked), self._recency(n), n
            ),
        )

    def why(self, name: str) -> str:
        rank = self._ranks().get(name)
        if rank is None:
            return "predictive: never predicted"
        return f"predictive: rank {rank} of next-use likelihood"


class LookaheadUnboundError(ValueError):
    """A :class:`LookaheadPolicy` was asked to rank victims with no
    scheduler backlog attached.

    Mirrors how ``"belady"`` is rejected by name in :func:`make_policy`:
    lookahead *is* nameable (the serving engines bind their own queue
    view automatically), but without a backlog there is no future to
    look ahead into, so a bare runtime fails at the first eviction
    decision instead of silently degrading to recency.
    """


class LookaheadPolicy(CachePolicy):
    """Evict the resident whose next use lies farthest in the backlog.

    The online approximation of :class:`BeladyPolicy`: instead of a
    clairvoyant trace, it reads the admission scheduler's *reordered
    backlog* — the queue of groups not yet begun — as a lookahead
    window (the CoServe trick, arXiv:2503.02354). Within ``horizon``
    upcoming accesses, each resident's distance to first use is exact;
    residents not appearing in the window rank as farthest (ties broken
    least-recent, then by name). Because the engines cascade one policy
    down the hierarchy, the same ranking drives both HBM evictions and
    DDR demotions.

    The backlog is attached by the owning node (:meth:`bind_backlog`):
    the next-use index of its queue
    (:meth:`repro.coe.columnar.GroupColumns.next_use` of
    :attr:`repro.coe.node.NodeState.queue`), which the sim engines and
    the live worker edit alike — the cross-check pins that both
    backends see identical windows at every decision point. A ranking
    reads each resident's first use from it, so it costs O(residents)
    however long the backlog is. Standalone users bind a plain name
    list through :func:`first_uses`; use without a backlog raises
    :class:`LookaheadUnboundError`.
    """

    name = "lookahead"

    #: Default scan depth — matches ExpertReorderScheduler's horizon, so
    #: the window the policy reads is the window the scheduler sorted.
    DEFAULT_HORIZON = 256

    def __init__(self, horizon: int = DEFAULT_HORIZON) -> None:
        super().__init__()
        if horizon <= 0:
            raise ValueError(f"lookahead horizon must be positive: {horizon}")
        self.horizon = horizon
        self._backlog: Optional[Backlog] = None

    def bind_backlog(self, supplier: Backlog) -> None:
        """Attach the engine's backlog view: a zero-arg callable returning
        each upcoming expert name's position of first use and the
        position of the next group to begin (soonest first)."""
        self._backlog = supplier

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        if self._backlog is None:
            raise LookaheadUnboundError(
                "the lookahead policy needs a scheduler backlog: serving "
                "engines attach one automatically (bind_backlog); a bare "
                "CoERuntime cannot rank victims by next-use distance"
            )
        # Residents unused within the horizon lead, least-recent first;
        # the rest follow farthest-first (first uses are distinct).
        first, head = self._backlog()
        limit = head + self.horizon
        ahead: Dict[int, str] = {}
        order: List[str] = []
        for name in resident:
            position = first.get(name, limit)
            if position < limit:
                ahead[position] = name
            else:
                order.append(name)
        last_access = self._last_access
        order.sort(key=lambda n: (last_access.get(n, 0), n))
        order += map(ahead.__getitem__, sorted(ahead, reverse=True))
        return order

    def why(self, name: str) -> str:
        if self._backlog is None:
            return "lookahead: no backlog bound"
        first, head = self._backlog()
        distance = first.get(name, head + self.horizon) - head
        if distance >= self.horizon:
            return f"lookahead: unused within horizon {self.horizon}"
        return f"lookahead: next use {distance} groups ahead"


def first_uses(names: Iterable[str]) -> Tuple[Dict[str, int], int]:
    """A plain backlog of expert names, soonest first, in the shape
    :meth:`LookaheadPolicy.bind_backlog` suppliers return: each name's
    first index, and head 0."""
    first: Dict[str, int] = {}
    for index, name in enumerate(names):
        first.setdefault(name, index)
    return first, 0


class BeladyPolicy(CachePolicy):
    """Clairvoyant (offline-optimal) eviction, replayed from a trace.

    ``trace`` is the demand access sequence — expert names in the order
    the runtime will (re-)see them, e.g. :attr:`CoERuntime.demand_trace`
    recorded on a previous run of the same workload. The policy keeps a
    cursor that advances on every demand access and always evicts the
    resident whose next use lies farthest ahead (never-used-again
    first). With uniform expert sizes this is Belady's MIN: no online
    policy can achieve a higher hit rate on the same access sequence.
    """

    name = "belady"

    def __init__(self, trace: Sequence[str]) -> None:
        super().__init__()
        self.trace = tuple(trace)
        self._positions: Dict[str, List[int]] = {}
        for index, name in enumerate(self.trace):
            self._positions.setdefault(name, []).append(index)
        self._cursor = 0

    @classmethod
    def from_runtime(cls, runtime: "CoERuntime") -> "BeladyPolicy":
        """Replay the demand trace a prior run's runtime recorded."""
        return cls(runtime.demand_trace)

    def on_access(
        self, expert: ExpertProfile, hit: bool, *, speculative: bool = False
    ) -> None:
        super().on_access(expert, hit, speculative=speculative)
        if not speculative:
            self._cursor += 1

    def on_access_run(
        self,
        experts: Sequence[ExpertProfile],
        demand: Optional[Sequence[ExpertProfile]] = None,
    ) -> None:
        # The replay cursor advances once per demand access, exactly as
        # the scalar path would step it.
        super().on_access_run(experts)
        self._cursor += len(experts if demand is None else demand)

    def _next_use(self, name: str) -> int:
        positions = self._positions.get(name)
        if positions is None:
            return len(self.trace) + 1
        index = bisect_left(positions, self._cursor)
        if index >= len(positions):
            return len(self.trace) + 1
        return positions[index]

    def eviction_order(self, resident: Mapping[str, ExpertProfile]) -> List[str]:
        return sorted(resident, key=lambda n: (-self._next_use(n), n))

    def why(self, name: str) -> str:
        nxt = self._next_use(name)
        if nxt > len(self.trace):
            return "belady: never used again"
        return f"belady: next use at trace index {nxt}"


#: What the serving layers accept wherever a cache policy is configured:
#: a name (string or :class:`CachePolicyName`), a ready policy instance,
#: a zero-arg factory, or None for the default (LRU).
CachePolicyLike = Union[
    None, str, CachePolicyName, CachePolicy, Callable[[], CachePolicy]
]

#: The by-name-configurable policies (belady is offline-only and needs a
#: trace, so it is constructable but not nameable — see make_policy).
CACHE_POLICIES = FIELDS["cache_policy"].choices

_FACTORIES: Dict[str, Callable[[], CachePolicy]] = {
    CachePolicyName.LRU.value: LRUPolicy,
    CachePolicyName.LFU.value: LFUPolicy,
    CachePolicyName.GDSF.value: GDSFPolicy,
    CachePolicyName.PREDICTIVE.value: PredictivePolicy,
    CachePolicyName.LOOKAHEAD.value: LookaheadPolicy,
}


def make_policy(spec: CachePolicyLike = None) -> CachePolicy:
    """Build the cache policy a spec calls for.

    ``None`` means the default (LRU). Instances pass through untouched —
    which is how :class:`BeladyPolicy` (trace-bound) and pre-configured
    policies are injected; note an *instance* holds mutable state and
    must not be shared between runtimes. ``"belady"`` by name is
    rejected: the oracle needs a recorded trace, so it can only be
    passed as an instance (see ``benchmarks/test_cache_policies.py``).
    """
    if spec is None:
        return LRUPolicy()
    if isinstance(spec, CachePolicy):
        return spec
    if isinstance(spec, (str, CachePolicyName)):
        name = FIELDS["cache_policy"].check("cache_policy", spec)
        return _FACTORIES[name.value]()
    if callable(spec):
        policy = spec()
        if not isinstance(policy, CachePolicy):
            raise TypeError(
                f"cache-policy factory returned {type(policy).__name__}, "
                "not a CachePolicy"
            )
        return policy
    raise TypeError(f"cannot build a cache policy from {spec!r}")


__all__ = [
    "CACHE_POLICIES",
    "BeladyPolicy",
    "CachePolicy",
    "CachePolicyLike",
    "GDSFPolicy",
    "LFUPolicy",
    "LRUPolicy",
    "LookaheadPolicy",
    "LookaheadUnboundError",
    "PredictivePolicy",
    "first_uses",
    "make_policy",
]
