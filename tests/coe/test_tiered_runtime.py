"""Multi-tier CoERuntime: hierarchy costs, NVMe promotion, DDR demotion."""

import pytest

from repro.coe.expert import ExpertProfile
from repro.coe.runtime import CoERuntime
from repro.memory import CapacityError
from repro.memory.hierarchy import EdgeCost, MemoryHierarchy, TierLevel
from repro.models.transformer import TransformerConfig

TINY = TransformerConfig("tiny", hidden=64, layers=2, heads=4, kv_heads=4,
                         intermediate=128, vocab=100)
EXPERT_BYTES = TINY.weight_bytes


def _expert(i, mutable=0.0):
    return ExpertProfile(f"e{i}", "chat", model=TINY, mutable_fraction=mutable)


def _hierarchy(hbm_experts=2, ddr_experts=3):
    return MemoryHierarchy(
        levels=(
            TierLevel("hbm", hbm_experts * EXPERT_BYTES),
            TierLevel("ddr", ddr_experts * EXPERT_BYTES),
            TierLevel("nvme", None),
        ),
        edges={
            ("ddr", "hbm"): EdgeCost(bandwidth=1e9),
            ("hbm", "ddr"): EdgeCost(bandwidth=1e9),
            ("nvme", "ddr"): EdgeCost(bandwidth=1e8),
            ("ddr", "nvme"): EdgeCost(bandwidth=1e8),
        },
    )


def _tiered(experts=(), hbm_experts=2, ddr_experts=3, **kw):
    return CoERuntime(
        list(experts), _hierarchy(hbm_experts, ddr_experts), **kw
    )


class TestConstruction:
    def test_one_cost_source_required(self):
        with pytest.raises(TypeError, match="hierarchy"):
            CoERuntime([_expert(0)])

    def test_ddr_budget_must_cover_hbm(self):
        with pytest.raises(ValueError, match="inclusive"):
            _tiered(hbm_experts=2, ddr_experts=1)

    def test_negative_ddr_budget_rejected(self):
        with pytest.raises(ValueError, match="negative capacity"):
            _hierarchy(ddr_experts=-1)

    def test_ddr_budget_needs_nvme_tier(self):
        # A capped DDR with no NVMe level below it holds what fits and
        # refuses the rest before any request runs.
        two_level = MemoryHierarchy.from_edge_times(lambda b: 0.0)
        capped = two_level.with_capacities(
            {"hbm": EXPERT_BYTES, "ddr": 2 * EXPERT_BYTES}
        )
        CoERuntime([_expert(i) for i in range(2)], capped)
        with pytest.raises(CapacityError, match="2 of 3 experts"):
            CoERuntime([_expert(i) for i in range(3)], capped)

    def test_nvme_capacity_bounds_placement(self):
        hierarchy = _hierarchy(hbm_experts=1, ddr_experts=2).with_capacities(
            {"nvme": 2 * EXPERT_BYTES}
        )
        rt = CoERuntime([_expert(i) for i in range(4)], hierarchy)
        assert [rt.tier_of(f"e{i}") for i in range(4)] == \
            ["ddr", "ddr", "nvme", "nvme"]
        with pytest.raises(CapacityError, match="4 of 5 experts"):
            CoERuntime([_expert(i) for i in range(5)], hierarchy)

    def test_unplaced_expert_is_refused(self):
        rt = _tiered([_expert(0)])
        with pytest.raises(KeyError, match="e1"):
            rt.activate(_expert(1))


class TestDeprecatedShims:
    def test_transfer_time_does_not_warn(self, recwarn):
        rt = _tiered()
        assert rt.transfer_time("ddr", "hbm", 1000) == 1000 / 1e9
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestPlacement:
    def test_unbounded_ddr_places_everything_on_ddr(self):
        rt = CoERuntime([_expert(i) for i in range(4)],
                        _hierarchy().with_capacities({"ddr": None}))
        assert {rt.tier_of(f"e{i}") for i in range(4)} == {"ddr"}
        assert rt.ddr_resident_experts == ["e0", "e1", "e2", "e3"]

    def test_bounded_ddr_fills_in_order_then_spills(self):
        rt = _tiered([_expert(i) for i in range(5)],
                     hbm_experts=2, ddr_experts=3)
        assert [rt.tier_of(f"e{i}") for i in range(5)] == \
            ["ddr", "ddr", "ddr", "nvme", "nvme"]
        assert rt.ddr_resident_experts == ["e0", "e1", "e2"]

    def test_tier_of_tracks_residency(self):
        experts = [_expert(i) for i in range(5)]
        rt = _tiered(experts, hbm_experts=2, ddr_experts=3)
        rt.activate(experts[0])
        assert rt.tier_of("e0") == "hbm"
        assert rt.tier_of("e1") == "ddr"
        assert rt.tier_of("e4") == "nvme"


class TestHosting:
    def test_host_places_like_construction_and_never_raises(self):
        hierarchy = _hierarchy(hbm_experts=1, ddr_experts=2).with_capacities(
            {"nvme": EXPERT_BYTES}
        )
        rt = CoERuntime([_expert(0)], hierarchy)
        for i in (1, 2, 3):
            rt.host(_expert(i))
        assert [rt.tier_of(f"e{i}") for i in (1, 2, 3)] == \
            ["ddr", "nvme", "ddr"]
        # e3 fit nowhere: seated in DDR under the clamp, and counted.
        assert rt.stats.tier_overruns == 1
        assert rt.ddr_resident_experts == ["e0", "e1", "e3"]


class TestMultiTierActivation:
    def test_ddr_miss_prices_single_hop(self):
        rt = _tiered([_expert(i) for i in range(5)])
        event = rt.activate(_expert(0))
        assert not event.hit
        assert event.src_tier == "ddr"
        assert event.time_s == EXPERT_BYTES / 1e9
        assert rt.stats.tier_promotions == 0

    def test_nvme_miss_prices_two_hops_and_promotes(self):
        rt = _tiered([_expert(i) for i in range(5)],
                     hbm_experts=2, ddr_experts=3)
        event = rt.activate(_expert(4))
        assert event.src_tier == "nvme"
        # Promotion read (nvme->ddr + ddr->hbm) plus the demoted
        # victim's ddr->nvme write-back — demotions are not free.
        assert event.time_s == pytest.approx(
            EXPERT_BYTES / 1e8 + EXPERT_BYTES / 1e9 + EXPERT_BYTES / 1e8
        )
        assert rt.stats.tier_promotions == 1
        assert rt.stats.nvme_bytes_read == EXPERT_BYTES
        assert rt.stats.nvme_bytes_written == EXPERT_BYTES
        assert rt.stats.switch_time_s == pytest.approx(event.time_s)
        # e4 now has a DDR home; someone else was demoted to make room.
        assert "e4" in rt.ddr_resident_experts
        assert event.demoted == ("e0",)
        assert rt.stats.tier_demotions == 1
        assert rt.stats.tier_overruns == 0
        assert rt.tier_of("e0") == "nvme"

    def test_hbm_residents_are_never_demotion_victims(self):
        experts = [_expert(i) for i in range(4)]
        # e0, e1 on DDR; e2, e3 on NVMe
        rt = _tiered(experts, hbm_experts=2, ddr_experts=2)
        rt.activate(experts[0])
        rt.activate(experts[1])
        rt.activate(experts[0])  # HBM hit: refreshes HBM recency only,
        # so e0 is now DDR-LRU *and* HBM-resident — the pinning case.
        event = rt.activate(experts[2])  # evicts e1 from HBM, promotes e2
        # The DDR demotion scan must skip e0 (HBM needs its copy-back
        # target) despite it ranking first, and take e1 instead.
        assert event.demoted == ("e1",)
        assert set(rt.ddr_resident_experts) == {"e0", "e2"}

    def test_second_access_after_promotion_is_ddr_sourced(self):
        experts = [_expert(i) for i in range(5)]
        rt = _tiered(experts, hbm_experts=1, ddr_experts=3)
        assert rt.activate(experts[4]).src_tier == "nvme"
        rt.activate(experts[1])  # evicts e4 from HBM; its DDR home stays
        event = rt.activate(experts[4])
        assert event.src_tier == "ddr"
        assert rt.stats.tier_promotions == 1

    def test_hit_reports_hbm_source(self):
        rt = _tiered([_expert(0)])
        rt.activate(_expert(0))
        event = rt.activate(_expert(0))
        assert event.hit and event.src_tier == "hbm" and event.demoted == ()

    def test_ddr_recency_refreshed_on_way_up(self):
        experts = [_expert(i) for i in range(4)]
        rt = _tiered(experts, hbm_experts=1, ddr_experts=2)  # e0, e1 on DDR
        rt.activate(experts[1])  # DDR hit-on-the-way-up: e1 refreshed
        rt.activate(experts[2])  # e2 promoted; e1 evicted from HBM but
        # the LRU DDR victim must be e0 (stale), not e1 (refreshed).
        assert rt.tier_of("e0") == "nvme"
        assert "e1" in rt.ddr_resident_experts


class TestTierOverruns:
    def test_all_candidates_pinned_clamps_and_counts(self):
        # DDR budget == HBM budget: once HBM is full, every DDR resident
        # is an HBM copy-back target, so a pipelined promotion (which,
        # unlike a demand miss, evicts nothing from HBM) has no demotion
        # candidates at all.
        experts = [_expert(i) for i in range(3)]
        # e0, e1 on DDR; e2 on NVMe
        rt = _tiered(experts, hbm_experts=2, ddr_experts=2)
        rt.activate(experts[0])
        rt.activate(experts[1])  # HBM now holds e0, e1 — both DDR-pinned
        promo = rt.promote_to_ddr(experts[2])
        assert promo.demoted == ()
        assert rt.stats.tier_overruns == 1
        assert "e2" in rt.ddr_resident_experts  # clamped, oversubscribed

    def test_expert_larger_than_ddr_budget_clamps(self):
        # ddr_budget >= hbm_budget is enforced and activate() rejects
        # experts above the HBM budget, so the only route an oversized
        # expert can reach a bounded DDR tier is the pipelined path.
        big_model = TransformerConfig(
            "big", hidden=128, layers=4, heads=4, kv_heads=4,
            intermediate=256, vocab=100,
        )
        big = ExpertProfile("big", "chat", model=big_model)
        assert big.weight_bytes > EXPERT_BYTES
        rt = _tiered([big], hbm_experts=1, ddr_experts=1)
        assert rt.tier_of("big") == "nvme"
        promo = rt.promote_to_ddr(big)
        # Nothing to demote — no amount of demotion makes it fit.
        assert promo.demoted == ()
        assert rt.stats.tier_demotions == 0
        assert rt.stats.tier_overruns == 1
        assert "big" in rt.ddr_resident_experts


class TestEdgeCases:
    def test_failed_copy_leaves_all_tiers_untouched(self):
        experts = [_expert(i) for i in range(5)]
        rt = _tiered(experts, hbm_experts=2, ddr_experts=3)
        ddr_before = rt.ddr_resident_experts

        class ExplodingHierarchy:
            """Fails the NVMe read after the demotion plan is made."""

            def __init__(self, inner):
                self._inner = inner

            def transfer_time(self, src, dst, num_bytes):
                if src == "nvme":
                    raise RuntimeError("nvme read failed mid-promotion")
                return self._inner.transfer_time(src, dst, num_bytes)

        rt.hierarchy = ExplodingHierarchy(rt.hierarchy)
        with pytest.raises(RuntimeError, match="mid-promotion"):
            rt.activate(experts[4])
        assert rt.ddr_resident_experts == ddr_before
        assert rt.resident_experts == []
        assert rt.stats.failures == 1
        assert rt.stats.tier_promotions == 0
        assert rt.stats.tier_demotions == 0
        assert rt.stats.nvme_bytes_written == 0

    def test_demote_then_repromote_same_expert_in_one_drain(self):
        experts = [_expert(i) for i in range(4)]
        rt = _tiered(experts, hbm_experts=1, ddr_experts=2)  # e0, e1 on DDR
        rt.activate(experts[2])  # promotes e2, demotes e0 (LRU)
        assert rt.tier_of("e0") == "nvme"
        event = rt.activate(experts[0])  # immediately re-promote e0
        assert event.src_tier == "nvme"
        assert "e0" in rt.ddr_resident_experts
        assert rt.stats.tier_promotions == 2
        # Round trip priced both ways: one read per promotion, one
        # write-back per demotion.
        assert rt.stats.nvme_bytes_read == 2 * EXPERT_BYTES
        assert rt.stats.tier_demotions == 2

    def test_pipelined_promotion_commits_and_prices(self):
        experts = [_expert(i) for i in range(5)]
        rt = _tiered(experts, hbm_experts=2, ddr_experts=3)
        promo = rt.promote_to_ddr(experts[4])
        assert promo.time_s == pytest.approx(
            EXPERT_BYTES / 1e8 + EXPERT_BYTES / 1e8
        )
        assert promo.demoted == ("e0",)
        assert rt.stats.pipelined_promotions == 1
        assert rt.stats.tier_promotions == 0  # demand counter untouched
        assert rt.stats.switch_time_s == 0.0  # overlapped, not a stall
        # The demand miss that follows is DDR-sourced and single-hop.
        event = rt.activate(experts[4])
        assert event.src_tier == "ddr"
        assert event.time_s == pytest.approx(EXPERT_BYTES / 1e9)
        # Idempotent: a second promote of a DDR resident is a no-op.
        assert rt.promote_to_ddr(experts[4]).time_s == 0.0
        assert rt.stats.pipelined_promotions == 1

    def test_promote_to_ddr_of_ddr_resident_is_a_noop(self):
        rt = CoERuntime([_expert(0)],
                        _hierarchy().with_capacities({"ddr": None}))
        assert rt.promote_to_ddr(_expert(0)) == ("e0", 0.0, 0, 0, ())
        assert rt.stats.pipelined_promotions == 0


class TestLegacyEquivalence:
    """An unconstrained 3-tier runtime is bitwise the legacy 2-tier one."""

    def test_trace_identical_without_ddr_budget(self):
        experts = [_expert(i) for i in range(4)]
        legacy = CoERuntime(
            experts,
            MemoryHierarchy.from_edge_times(lambda b: b / 1e9)
            .with_capacities({"hbm": 2 * EXPERT_BYTES}),
        )
        tiered = CoERuntime(
            experts,
            _hierarchy(hbm_experts=2).with_capacities({"ddr": None}),
        )
        pattern = [0, 1, 2, 0, 3, 1, 0, 2, 3, 1]
        for idx in pattern:
            a = legacy.activate(experts[idx])
            b = tiered.activate(experts[idx])
            assert a == b  # full SwitchEvent tuples, times included
        assert legacy.stats == tiered.stats
        assert legacy.resident_experts == tiered.resident_experts

    def test_flush_preserves_lower_tier_placement(self):
        experts = [_expert(i) for i in range(5)]
        rt = _tiered(experts, hbm_experts=2, ddr_experts=3)
        rt.activate(experts[4])
        homes = rt.ddr_resident_experts
        rt.flush()
        assert rt.resident_experts == []
        assert rt.ddr_resident_experts == homes
