"""MemoryHierarchy: levels, edge costs, multi-hop pricing, factories."""

import pytest

from repro.memory.hierarchy import (
    DEFAULT_NVME_LATENCY_S,
    DEFAULT_NVME_READ_BANDWIDTH,
    EdgeCost,
    MemoryHierarchy,
    TierLevel,
)
from repro.memory.tiers import TierKind
from repro.systems.platforms import sn40l_platform
from repro.units import GB


def three_tier(hbm=100, ddr=1000):
    return MemoryHierarchy(
        levels=(
            TierLevel("hbm", hbm),
            TierLevel("ddr", ddr),
            TierLevel("nvme", None),
        ),
        edges={
            ("ddr", "hbm"): EdgeCost(bandwidth=100.0, latency_s=0.5),
            ("hbm", "ddr"): EdgeCost(bandwidth=50.0, latency_s=0.25),
            ("nvme", "ddr"): EdgeCost(bandwidth=10.0, latency_s=1.0),
            ("ddr", "nvme"): EdgeCost(bandwidth=5.0, latency_s=2.0),
        },
    )


class TestTierLevel:
    def test_name_normalized_lowercase(self):
        assert TierLevel("HBM", 10).name == "hbm"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            TierLevel("")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative capacity"):
            TierLevel("hbm", -1)

    def test_bounded(self):
        assert TierLevel("hbm", 10).bounded
        assert not TierLevel("nvme", None).bounded


class TestEdgeCost:
    def test_formula_matches_switch_time_shape(self):
        edge = EdgeCost(bandwidth=100.0, latency_s=0.5)
        assert edge.time_s(200) == 0.5 + 200 / 100.0

    def test_zero_bytes_cost_nothing(self):
        assert EdgeCost(bandwidth=100.0, latency_s=0.5).time_s(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="negative transfer size"):
            EdgeCost(bandwidth=100.0).time_s(-1)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            EdgeCost(bandwidth=0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="negative latency"):
            EdgeCost(bandwidth=1.0, latency_s=-0.1)


class TestConstruction:
    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match="at least two levels"):
            MemoryHierarchy((TierLevel("hbm"),), {})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate tier name"):
            MemoryHierarchy(
                (TierLevel("hbm"), TierLevel("HBM")),
                {("hbm", "hbm"): EdgeCost(1.0)},
            )

    def test_edge_to_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            MemoryHierarchy(
                (TierLevel("hbm"), TierLevel("ddr")),
                {
                    ("ddr", "hbm"): EdgeCost(1.0),
                    ("hbm", "ddr"): EdgeCost(1.0),
                    ("sram", "hbm"): EdgeCost(1.0),
                },
            )

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="self-edge"):
            MemoryHierarchy(
                (TierLevel("hbm"), TierLevel("ddr")),
                {
                    ("ddr", "hbm"): EdgeCost(1.0),
                    ("hbm", "ddr"): EdgeCost(1.0),
                    ("hbm", "hbm"): EdgeCost(1.0),
                },
            )

    def test_missing_adjacent_edge_rejected(self):
        with pytest.raises(ValueError, match="missing edge"):
            MemoryHierarchy(
                (TierLevel("hbm"), TierLevel("ddr")),
                {("ddr", "hbm"): EdgeCost(1.0)},
            )

    def test_names_and_levels(self):
        h = three_tier()
        assert h.names == ("hbm", "ddr", "nvme")
        assert [lvl.name for lvl in h.levels] == ["hbm", "ddr", "nvme"]

    def test_contains_accepts_tierkind(self):
        h = three_tier()
        assert "hbm" in h
        assert TierKind.HBM in h
        assert TierKind.NVME in h
        assert "sram" not in h

    def test_capacity_lookup(self):
        h = three_tier(hbm=100, ddr=1000)
        assert h.capacity_bytes("hbm") == 100
        assert h.capacity_bytes("ddr") == 1000
        assert h.capacity_bytes("nvme") is None

    def test_below(self):
        h = three_tier()
        assert h.below("hbm") == "ddr"
        assert h.below("ddr") == "nvme"
        assert h.below("nvme") is None

    def test_index_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown tier"):
            three_tier().index("sram")


class TestTransferTime:
    def test_single_hop_uses_edge(self):
        h = three_tier()
        assert h.transfer_time("ddr", "hbm", 100) == 0.5 + 100 / 100.0
        assert h.transfer_time("hbm", "ddr", 100) == 0.25 + 100 / 50.0

    def test_multi_hop_sums_adjacent_edges(self):
        h = three_tier()
        expected = (1.0 + 100 / 10.0) + (0.5 + 100 / 100.0)
        assert h.transfer_time("nvme", "hbm", 100) == pytest.approx(expected)

    def test_direct_edge_overrides_hop_sum(self):
        h = MemoryHierarchy(
            levels=(
                TierLevel("hbm"),
                TierLevel("ddr"),
                TierLevel("nvme"),
            ),
            edges={
                ("ddr", "hbm"): EdgeCost(100.0),
                ("hbm", "ddr"): EdgeCost(100.0),
                ("nvme", "ddr"): EdgeCost(10.0),
                ("ddr", "nvme"): EdgeCost(10.0),
                # A GPUDirect-style path that bypasses DDR entirely.
                ("nvme", "hbm"): EdgeCost(20.0),
            },
        )
        assert h.transfer_time("nvme", "hbm", 100) == 100 / 20.0

    def test_same_tier_is_free(self):
        assert three_tier().transfer_time("hbm", "hbm", 100) == 0.0

    def test_same_tier_still_validates(self):
        with pytest.raises(ValueError, match="unknown tier"):
            three_tier().transfer_time("sram", "sram", 100)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="negative transfer size"):
            three_tier().transfer_time("ddr", "hbm", -1)

    def test_path(self):
        h = three_tier()
        assert h.path("nvme", "hbm") == [("nvme", "ddr"), ("ddr", "hbm")]
        assert h.path("hbm", "nvme") == [("hbm", "ddr"), ("ddr", "nvme")]
        assert h.path("ddr", "hbm") == [("ddr", "hbm")]

    def test_callable_edge(self):
        h = MemoryHierarchy(
            (TierLevel("hbm"), TierLevel("ddr")),
            {
                ("ddr", "hbm"): lambda n: 42.0,
                ("hbm", "ddr"): lambda n: 7.0,
            },
        )
        assert h.transfer_time("ddr", "hbm", 1) == 42.0
        assert h.transfer_time("hbm", "ddr", 1) == 7.0


class TestPriceMemo:
    """Prices over :class:`EdgeCost` edges are memoized per
    ``(src, dst, num_bytes)``; callable edges are called every time."""

    TIERS = ("hbm", "ddr", "nvme", TierKind.HBM, TierKind.DDR)
    SIZES = (0, 1, 100, 12345, 7 * GB + 3)

    def test_memoized_prices_equal_fresh_on_every_edge(self):
        memo = three_tier()
        for _ in range(2):  # the second pass reads the memo
            for src in self.TIERS:
                for dst in self.TIERS:
                    for size in self.SIZES:
                        got = memo.transfer_time(src, dst, size)
                        fresh = three_tier().transfer_time(src, dst, size)
                        assert got.hex() == fresh.hex(), (src, dst, size)

    def test_memoized_direct_edge_equals_fresh(self):
        def hierarchy():
            return MemoryHierarchy(
                (TierLevel("hbm"), TierLevel("ddr"), TierLevel("nvme")),
                {
                    ("ddr", "hbm"): EdgeCost(100.0, 0.5),
                    ("hbm", "ddr"): EdgeCost(100.0),
                    ("nvme", "ddr"): EdgeCost(10.0),
                    ("ddr", "nvme"): EdgeCost(10.0),
                    ("nvme", "hbm"): EdgeCost(20.0, 1e-4),
                },
            )

        memo = hierarchy()
        for size in self.SIZES * 2:
            assert memo.transfer_time("nvme", "hbm", size).hex() == \
                hierarchy().transfer_time("nvme", "hbm", size).hex()

    def test_callable_edge_called_on_every_transfer(self):
        calls = []

        def upgrade(num_bytes):
            calls.append(num_bytes)
            return num_bytes / 1e9

        h = MemoryHierarchy(
            (TierLevel("hbm"), TierLevel("ddr"), TierLevel("nvme")),
            {
                ("ddr", "hbm"): upgrade,
                ("hbm", "ddr"): EdgeCost(50.0),
                ("nvme", "ddr"): EdgeCost(10.0),
                ("ddr", "nvme"): EdgeCost(5.0),
            },
        )
        for _ in range(3):
            h.transfer_time("ddr", "hbm", 100)
            h.transfer_time("nvme", "hbm", 100)  # a hop over the callable
            h.transfer_time("nvme", "ddr", 100)  # EdgeCost only: memoized
        assert calls == [100] * 6

    def test_bad_sizes_and_tiers_raise_on_every_call(self):
        h = three_tier()
        h.transfer_time("ddr", "hbm", 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="negative transfer size"):
                h.transfer_time("ddr", "hbm", -1)
            with pytest.raises(ValueError, match="unknown tier"):
                h.transfer_time("sram", "hbm", 1)
            with pytest.raises(ValueError, match="unknown tier"):
                h.transfer_time("sram", "sram", 1)


class TestWithCapacities:
    def test_overrides_selected_levels(self):
        h = three_tier(hbm=100, ddr=1000).with_capacities({"hbm": 50})
        assert h.capacity_bytes("hbm") == 50
        assert h.capacity_bytes("ddr") == 1000

    def test_original_untouched(self):
        base = three_tier(hbm=100)
        base.with_capacities({"hbm": 50})
        assert base.capacity_bytes("hbm") == 100

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tiers"):
            three_tier().with_capacities({"sram": 1})

    def test_edges_preserved(self):
        base = three_tier()
        capped = base.with_capacities({"ddr": 7})
        assert capped.transfer_time("nvme", "hbm", 100) == pytest.approx(
            base.transfer_time("nvme", "hbm", 100)
        )


class TestFromPlatform:
    def test_ddr_to_hbm_matches_switch_time_bitwise(self):
        platform = sn40l_platform()
        h = MemoryHierarchy.from_platform(platform)
        for nbytes in (0, 1, 4096, 50 * GB, platform.hbm_capacity_bytes):
            assert h.transfer_time("ddr", "hbm", nbytes) == \
                platform.switch_time(nbytes)

    def test_levels_take_platform_capacities(self):
        platform = sn40l_platform()
        h = MemoryHierarchy.from_platform(platform)
        assert h.names == ("hbm", "ddr", "nvme")
        assert h.capacity_bytes("hbm") == platform.hbm_capacity_bytes
        assert h.capacity_bytes("ddr") == platform.second_tier_capacity_bytes
        assert h.capacity_bytes("nvme") is None

    def test_nvme_edges_use_defaults(self):
        h = MemoryHierarchy.from_platform(sn40l_platform())
        assert h.transfer_time("nvme", "ddr", GB) == pytest.approx(
            DEFAULT_NVME_LATENCY_S + GB / DEFAULT_NVME_READ_BANDWIDTH
        )

    def test_nvme_promotion_costs_more_than_ddr(self):
        h = MemoryHierarchy.from_platform(sn40l_platform())
        assert h.transfer_time("nvme", "hbm", GB) > \
            h.transfer_time("ddr", "hbm", GB)


class TestFromEdgeTimes:
    def test_wraps_callables_verbatim(self):
        ups, downs = [], []
        h = MemoryHierarchy.from_edge_times(
            lambda n: ups.append(n) or 1.5,
            lambda n: downs.append(n) or 2.5,
        )
        assert h.transfer_time("ddr", "hbm", 10) == 1.5
        assert h.transfer_time("hbm", "ddr", 20) == 2.5
        assert ups == [10] and downs == [20]

    def test_downgrade_defaults_to_upgrade(self):
        h = MemoryHierarchy.from_edge_times(lambda n: 3.0)
        assert h.transfer_time("hbm", "ddr", 1) == 3.0

    def test_two_levels_unbounded(self):
        h = MemoryHierarchy.from_edge_times(lambda n: 0.0)
        assert h.names == ("hbm", "ddr")
        assert h.capacity_bytes("hbm") is None


def test_repr_mentions_stack():
    r = repr(three_tier(hbm=100))
    assert "hbm[100]" in r and "nvme" in r
