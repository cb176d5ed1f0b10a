"""Pluggable HBM expert-cache policies (repro.coe.cache)."""

import pytest

from repro.coe.cache import (
    CACHE_POLICIES,
    BeladyPolicy,
    CachePolicy,
    GDSFPolicy,
    LFUPolicy,
    LookaheadPolicy,
    LookaheadUnboundError,
    LRUPolicy,
    PredictivePolicy,
    first_uses,
    make_policy,
)
from repro.coe.expert import ExpertProfile
from repro.coe.policies import CachePolicyName
from repro.coe.runtime import CoERuntime
from repro.coe.scheduling import ExpertPredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.transformer import TransformerConfig

TINY = TransformerConfig("tiny", hidden=64, layers=2, heads=4, kv_heads=4,
                         intermediate=128, vocab=100)
BIG = TransformerConfig("big", hidden=128, layers=2, heads=4, kv_heads=4,
                        intermediate=256, vocab=100)
EXPERT_BYTES = TINY.weight_bytes


def _expert(i, model=TINY):
    return ExpertProfile(f"e{i}", "chat", model=model)


#: Every expert the tests activate, placed by each runtime.
LIBRARY = [_expert(i) for i in range(30)]


def _runtime(capacity_experts=2, policy=None):
    return CoERuntime(
        LIBRARY,
        MemoryHierarchy.from_edge_times(lambda b: b / 1e9)
        .with_capacities({"hbm": capacity_experts * EXPERT_BYTES}),
        policy=policy,
    )


class TestMakePolicy:
    def test_none_is_lru(self):
        assert isinstance(make_policy(None), LRUPolicy)

    def test_names_resolve(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("lfu"), LFUPolicy)
        assert isinstance(make_policy("gdsf"), GDSFPolicy)
        assert isinstance(make_policy("predictive"), PredictivePolicy)

    def test_enum_members_resolve(self):
        assert isinstance(make_policy(CachePolicyName.LFU), LFUPolicy)

    def test_instance_passes_through(self):
        policy = LFUPolicy()
        assert make_policy(policy) is policy

    def test_factory_is_called(self):
        assert isinstance(make_policy(GDSFPolicy), GDSFPolicy)

    def test_belady_by_name_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            make_policy("belady")

    def test_unknown_name_lists_members(self):
        with pytest.raises(ValueError, match="lru"):
            make_policy("mru")

    def test_bad_factory_rejected(self):
        with pytest.raises(TypeError, match="factory"):
            make_policy(lambda: object())

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            make_policy(42)

    def test_nameable_policies_exclude_belady(self):
        assert "belady" not in CACHE_POLICIES
        assert set(CACHE_POLICIES) == {
            "lru", "lfu", "gdsf", "predictive", "lookahead",
        }


class TestLRUDefaultEquivalence:
    """policy=None must be bit-identical to the historical LRU."""

    def test_eviction_sequences_match(self):
        experts = [_expert(i) for i in range(6)]
        pattern = [0, 1, 2, 0, 3, 4, 0, 5, 1, 2, 0]
        default_rt = _runtime(capacity_experts=3)
        named_rt = _runtime(capacity_experts=3, policy="lru")
        for idx in pattern:
            a = default_rt.activate(experts[idx])
            b = named_rt.activate(experts[idx])
            assert (a.hit, a.evicted, a.time_s) == (b.hit, b.evicted, b.time_s)
        assert default_rt.resident_experts == named_rt.resident_experts

    def test_switch_event_carries_policy_name(self):
        rt = _runtime()
        event = rt.activate(_expert(0))
        assert event.policy == "lru"


class TestLFU:
    def test_scan_does_not_evict_the_hot_expert(self):
        rt = _runtime(capacity_experts=2, policy="lfu")
        hot = _expert(0)
        for _ in range(5):
            rt.activate(hot)
        # A scan of cold experts keeps evicting the *other* cold one.
        for i in range(1, 5):
            event = rt.activate(_expert(i))
            assert "e0" not in event.evicted
        assert "e0" in rt.resident_experts

    def test_speculative_accesses_do_not_count_as_frequency(self):
        policy = LFUPolicy()
        rt = _runtime(capacity_experts=2, policy=policy)
        e0, e1, e2 = _expert(0), _expert(1), _expert(2)
        rt.activate(e0)           # demand: freq 1
        rt.activate(e1, speculative=True)
        for _ in range(5):        # speculative hits: still freq 0
            rt.activate(e1, speculative=True)
        event = rt.activate(e2)
        assert event.evicted == ("e1",)

    def test_why_names_frequency(self):
        rt = _runtime(capacity_experts=1, policy="lfu")
        rt.activate(_expert(0))
        event = rt.activate(_expert(1))
        assert event.evicted_why == ("lfu: freq 1",)


class TestGDSF:
    def test_frequency_protects_under_uniform_sizes(self):
        rt = _runtime(capacity_experts=2, policy="gdsf")
        hot = _expert(0)
        for _ in range(5):
            rt.activate(hot)
        for i in range(1, 5):
            event = rt.activate(_expert(i))
            assert "e0" not in event.evicted

    def test_inflation_ages_a_stale_hot_set(self):
        policy = GDSFPolicy()
        rt = _runtime(capacity_experts=2, policy=policy)
        old_hot = _expert(0)
        for _ in range(10):
            rt.activate(old_hot)
        # A long drift of fresh experts inflates L past the stale
        # frequency, so the once-hot expert eventually becomes evictable.
        evicted = set()
        for i in range(1, 30):
            evicted.update(rt.activate(_expert(i)).evicted)
        assert "e0" in evicted

    def test_cheap_to_refetch_evicted_first(self):
        # Same frequency: the expert whose refetch costs less (smaller
        # copy) has the lower cost/size... with a linear DMA model
        # cost/size is constant, so make the big expert's copy
        # disproportionately expensive via a superlinear cost model.
        rt = CoERuntime(
            LIBRARY,
            MemoryHierarchy.from_edge_times(lambda b: (b / 1e9) ** 2)
            .with_capacities({"hbm": TINY.weight_bytes + BIG.weight_bytes}),
            policy="gdsf",
        )
        small, big = _expert(0, TINY), _expert(1, BIG)
        rt.activate(small)
        rt.activate(big)
        event = rt.activate(_expert(2, BIG))
        assert event.evicted[0] == "e0"  # cheapest to bring back


class TestPredictive:
    def test_engine_binds_its_predictor(self):
        from repro.coe.engine import ServingEngine
        from repro.coe.expert import build_samba_coe_library
        from repro.systems.platforms import sn40l_platform

        engine = ServingEngine(
            sn40l_platform(), build_samba_coe_library(4),
            cache_policy="predictive",
        )
        policy = engine.server.runtime.policy
        assert isinstance(policy, PredictivePolicy)
        assert policy.predictor is engine.state.predictor
        assert engine.cache_policy == "predictive"

    def test_unpredicted_residents_evicted_first(self):
        predictor = ExpertPredictor()
        policy = PredictivePolicy(predictor)
        rt = _runtime(capacity_experts=2, policy=policy)
        e0, e1 = _expert(0), _expert(1)
        rt.activate(e0)
        rt.activate(e1)
        # The predictor has only ever seen e1 -> e1 transitions: e0 is
        # never predicted, so it goes first.
        predictor.observe(e1)
        predictor.observe(e1)
        event = rt.activate(_expert(2))
        assert event.evicted == ("e0",)
        assert event.evicted_why == ("predictive: never predicted",)

    def test_no_predictor_falls_back_to_recency(self):
        rt = _runtime(capacity_experts=2, policy="predictive")
        rt.activate(_expert(0))
        rt.activate(_expert(1))
        event = rt.activate(_expert(2))
        assert event.evicted == ("e0",)


class TestLookahead:
    def test_resolves_by_name(self):
        assert isinstance(make_policy("lookahead"), LookaheadPolicy)

    def test_unbound_raises_at_first_eviction(self):
        # Nameable, unlike belady — but a bare runtime has no backlog to
        # look ahead into, so the first eviction decision fails typed.
        rt = _runtime(capacity_experts=1, policy="lookahead")
        rt.activate(_expert(0))  # empty cache: no eviction decision yet
        with pytest.raises(LookaheadUnboundError, match="backlog"):
            rt.activate(_expert(1))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            LookaheadPolicy(horizon=0)

    def test_evicts_farthest_next_use_in_backlog(self):
        policy = LookaheadPolicy()
        policy.bind_backlog(lambda: first_uses(["e1", "e0"]))
        rt = _runtime(capacity_experts=2, policy=policy)
        rt.activate(_expert(0))
        rt.activate(_expert(1))
        # e1 is next (distance 0), e0 after it (distance 1); the
        # incoming e2 never appears in the window, so the victim is the
        # resident farthest from use: e0.
        event = rt.activate(_expert(2))
        assert event.evicted == ("e0",)
        assert event.evicted_why == ("lookahead: next use 1 groups ahead",)

    def test_absent_from_window_evicted_before_scheduled(self):
        policy = LookaheadPolicy()
        policy.bind_backlog(lambda: first_uses(["e0"]))
        rt = _runtime(capacity_experts=2, policy=policy)
        rt.activate(_expert(0))
        rt.activate(_expert(1))
        # e1 was touched last (LRU would keep it), but only e0 appears
        # in the backlog window — so e1 ranks as farthest and goes.
        event = rt.activate(_expert(2))
        assert event.evicted == ("e1",)
        assert event.evicted_why == ("lookahead: unused within horizon 256",)

    def test_horizon_bounds_the_scan(self):
        policy = LookaheadPolicy(horizon=1)
        # e0 appears in the backlog but beyond the 1-group horizon:
        # invisible, so it ties with e1 as unused and least-recent wins.
        policy.bind_backlog(lambda: first_uses(["e2", "e0"]))
        rt = _runtime(capacity_experts=2, policy=policy)
        rt.activate(_expert(0))
        rt.activate(_expert(1))
        event = rt.activate(_expert(2))
        assert event.evicted == ("e0",)

    def test_engine_binds_its_queue(self):
        from repro.coe.engine import ServingEngine
        from repro.coe.expert import build_samba_coe_library
        from repro.systems.platforms import sn40l_platform

        engine = ServingEngine(
            sn40l_platform(), build_samba_coe_library(4),
            cache_policy="lookahead",
        )
        policy = engine.server.runtime.policy
        assert isinstance(policy, LookaheadPolicy)
        assert policy._backlog is not None
        assert engine.cache_policy == "lookahead"


class TestBelady:
    def test_evicts_farthest_next_use(self):
        trace = ["e0", "e1", "e2", "e0", "e1"]
        rt = _runtime(capacity_experts=2, policy=BeladyPolicy(trace))
        experts = {f"e{i}": _expert(i) for i in range(3)}
        rt.activate(experts["e0"])
        rt.activate(experts["e1"])
        # At the third access the remaining trace is e0, e1: e2 itself is
        # never reused, but between residents e0 (next at 3) and e1
        # (next at 4), e1 is farther — Belady evicts e1.
        event = rt.activate(experts["e2"])
        assert event.evicted == ("e1",)

    def test_never_used_again_evicted_first(self):
        trace = ["e0", "e1", "e2", "e1", "e2", "e1"]
        rt = _runtime(capacity_experts=2, policy=BeladyPolicy(trace))
        experts = {f"e{i}": _expert(i) for i in range(3)}
        rt.activate(experts["e0"])
        rt.activate(experts["e1"])
        event = rt.activate(experts["e2"])
        assert event.evicted == ("e0",)
        assert event.evicted_why == ("belady: never used again",)

    def test_from_runtime_replays_the_demand_trace(self):
        first = _runtime(capacity_experts=2)
        pattern = [0, 1, 2, 0, 1, 2, 0, 1]
        experts = [_expert(i) for i in range(3)]
        for idx in pattern:
            first.activate(experts[idx])
        oracle = BeladyPolicy.from_runtime(first)
        assert list(oracle.trace) == [f"e{i}" for i in pattern]
        replay = _runtime(capacity_experts=2, policy=oracle)
        hits = sum(replay.activate(experts[idx]).hit for idx in pattern)
        assert hits >= first.stats.hits

    def test_belady_at_least_matches_lru_hits(self):
        # Any online policy's hit count is bounded by Belady's on the
        # same trace (uniform sizes).
        import random
        rng = random.Random(7)
        pattern = [rng.randrange(6) for _ in range(200)]
        experts = [_expert(i) for i in range(6)]
        lru_rt = _runtime(capacity_experts=3)
        for idx in pattern:
            lru_rt.activate(experts[idx])
        belady_rt = _runtime(
            capacity_experts=3, policy=BeladyPolicy.from_runtime(lru_rt)
        )
        for idx in pattern:
            belady_rt.activate(experts[idx])
        assert belady_rt.stats.hits >= lru_rt.stats.hits


class TestSpeculativeAccounting:
    def test_speculative_traffic_never_touches_demand_counters(self):
        rt = _runtime(capacity_experts=2)
        e0, e1 = _expert(0), _expert(1)
        rt.activate(e0, speculative=True)   # miss, pays a copy
        rt.activate(e0, speculative=True)   # hit
        assert rt.stats.requests == 0
        assert rt.stats.hits == 0
        assert rt.stats.bytes_up == 0
        assert rt.stats.switch_time_s == 0.0
        assert rt.stats.speculative_requests == 2
        assert rt.stats.speculative_hits == 1
        assert rt.stats.speculative_misses == 1
        assert rt.stats.speculative_bytes_up == EXPERT_BYTES
        # Demand traffic lands on the demand side only.
        rt.activate(e1)
        assert rt.stats.requests == 1
        assert rt.stats.speculative_requests == 2

    def test_hit_rate_reflects_demand_only(self):
        rt = _runtime(capacity_experts=2)
        e0 = _expert(0)
        rt.activate(e0, speculative=True)  # prefetch warms it
        assert rt.stats.hit_rate == 0.0    # no demand traffic yet
        assert rt.activate(e0).hit         # the demand access hits
        assert rt.stats.hit_rate == 1.0

    def test_speculative_accesses_stay_out_of_the_demand_trace(self):
        rt = _runtime(capacity_experts=2)
        rt.activate(_expert(0), speculative=True)
        rt.activate(_expert(1))
        assert rt.demand_trace == ["e1"]

    def test_evictions_counted_for_speculative_copies_too(self):
        rt = _runtime(capacity_experts=1)
        rt.activate(_expert(0))
        rt.activate(_expert(1), speculative=True)
        assert rt.stats.evictions == 1


class TestPolicyStateLifecycle:
    def test_flush_resets_belady_cursor(self):
        trace = ["e0", "e1", "e0", "e1"]
        policy = BeladyPolicy(trace)
        rt = _runtime(capacity_experts=1, policy=policy)
        rt.activate(_expert(0))
        rt.activate(_expert(1))
        assert policy._cursor == 2
        rt.flush()
        assert rt.resident_experts == []

    def test_shared_instance_rejected_by_cluster(self):
        from repro.coe.cluster_engine import ClusterEngine
        from repro.coe.expert import build_samba_coe_library
        from repro.systems.platforms import sn40l_platform

        with pytest.raises(ValueError, match="instance"):
            ClusterEngine(
                sn40l_platform, build_samba_coe_library(8), num_nodes=2,
                cache_policy=LFUPolicy(),
            )

    def test_cluster_accepts_policy_by_name(self):
        from repro.coe.cluster_engine import ClusterEngine
        from repro.coe.expert import build_samba_coe_library
        from repro.systems.platforms import sn40l_platform

        cluster = ClusterEngine(
            sn40l_platform, build_samba_coe_library(8), num_nodes=2,
            cache_policy="lfu",
        )
        runtimes = [n.engine.server.runtime for n in cluster.nodes]
        assert all(isinstance(rt.policy, LFUPolicy) for rt in runtimes)
        # One policy object per node, never shared.
        assert runtimes[0].policy is not runtimes[1].policy


class TestBaseProtocol:
    def test_eviction_order_is_abstract(self):
        with pytest.raises(NotImplementedError):
            CachePolicy().eviction_order({})
