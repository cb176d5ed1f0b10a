"""Sharding an expert library across nodes, and mixed-size libraries."""

import pytest

from repro.coe.cluster_engine import ClusterEngine
from repro.coe.expert import build_heterogeneous_library, build_samba_coe_library
from repro.systems.cluster import partition_experts
from repro.systems.platforms import sn40l_platform


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(40)


class TestPartitioning:
    def test_every_expert_lands_exactly_once(self, library):
        shards = partition_experts(library, 4)
        names = [e.name for shard in shards for e in shard]
        assert sorted(names) == sorted(e.name for e in library.experts)

    def test_balanced_partitioning_equalises_bytes(self):
        library = build_heterogeneous_library()
        shards = partition_experts(library, 5, balanced=True)
        loads = [sum(e.weight_bytes for e in shard) for shard in shards]
        assert max(loads) / min(loads) < 1.1

    def test_contiguous_partitioning_preserves_order(self, library):
        shards = partition_experts(library, 4, balanced=False)
        assert [e.name for e in shards[0]] == [
            e.name for e in library.experts[:10]
        ]

    def test_bad_node_count_rejected(self, library):
        with pytest.raises(ValueError):
            partition_experts(library, 0)

    def test_contiguous_shard_sizes_differ_by_at_most_one(self):
        library = build_samba_coe_library(10)
        shards = partition_experts(library, 4, balanced=False)
        sizes = [len(s) for s in shards]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert all(sizes)  # no shard comes up empty when experts suffice

    def test_oversubscribed_node_count_warns(self):
        small = build_samba_coe_library(2)
        with pytest.warns(UserWarning, match="exceeds the library size"):
            partition_experts(small, 5, balanced=False)
        with pytest.warns(UserWarning, match="exceeds the library size"):
            partition_experts(small, 5, balanced=True)

    def test_balanced_matches_greedy_scan_tie_breaking(self):
        """The heap packer must keep the old scan's tie rule: equal loads
        go to the lowest-index shard, so layouts stay reproducible."""
        library = build_samba_coe_library(8)  # identical weight_bytes
        shards = partition_experts(library, 4, balanced=True)
        assert [len(s) for s in shards] == [2, 2, 2, 2]
        # Round-robin under equal weights: expert i lands on shard i % 4.
        for idx, shard in enumerate(shards):
            assert [e.name for e in shard] == [
                library.experts[idx].name, library.experts[idx + 4].name,
            ]


class TestHeterogeneousLibrary:
    def test_default_mix_has_three_architectures(self):
        library = build_heterogeneous_library()
        models = {e.model.name for e in library.experts}
        assert models == {"llama2-7b", "mistral-7b", "llama2-13b"}

    def test_sizes_differ(self):
        library = build_heterogeneous_library()
        sizes = {e.weight_bytes for e in library.experts}
        assert len(sizes) == 3

    def test_serving_handles_mixed_sizes(self):
        from repro.coe.serving import ExpertServer

        library = build_heterogeneous_library(
            size_mix=None,
        )
        server = ExpertServer(sn40l_platform(), library)
        big = next(e for e in library.experts if "13b" in e.model.name)
        small = next(e for e in library.experts if "7b" in e.model.name)
        result = server.serve_experts([big, small], output_tokens=5)
        big_req = next(r for r in result.requests if r.expert == big.name)
        small_req = next(r for r in result.requests if r.expert == small.name)
        assert big_req.switch_s > small_req.switch_s

    def test_lru_evicts_enough_for_a_big_expert(self):
        """A 13B arrival may need to evict two 7B residents."""
        from repro.coe.runtime import CoERuntime
        from repro.models.catalog import LLAMA2_7B, LLAMA2_13B
        from repro.coe.expert import ExpertProfile
        from repro.memory.hierarchy import MemoryHierarchy

        small = [ExpertProfile(f"s{i}", "chat", LLAMA2_7B) for i in range(2)]
        big = ExpertProfile("big", "chat", LLAMA2_13B)
        runtime = CoERuntime(
            small + [big],
            MemoryHierarchy.from_edge_times(lambda b: 0.0)
            .with_capacities({"hbm": 2 * LLAMA2_7B.weight_bytes + 1}),
        )
        for e in small:
            runtime.activate(e)
        event = runtime.activate(big)
        assert set(event.evicted) == {"s0", "s1"}

    def test_negative_count_rejected(self):
        from repro.models.catalog import LLAMA2_7B

        with pytest.raises(ValueError):
            build_heterogeneous_library(size_mix=((LLAMA2_7B, -1),))


class TestReplicationIdempotence:
    def test_more_nodes_than_experts(self):
        small = build_samba_coe_library(2)
        with pytest.warns(UserWarning, match="exceeds the library size"):
            engine = ClusterEngine(sn40l_platform, small, 5)
        assert engine.num_nodes == 2  # empty shards are dropped

    def test_dropped_shards_keep_node_names_dense(self):
        small = build_samba_coe_library(3)
        with pytest.warns(UserWarning, match="exceeds the library size"):
            engine = ClusterEngine(sn40l_platform, small, 6)
        assert [n.name for n in engine.nodes] == ["node0", "node1", "node2"]
        # Every expert's owner index points at a live node.
        for expert in small.experts:
            (owner,) = engine._owners[expert.name]
            assert 0 <= owner < engine.num_nodes
