"""One capacity rule: a node places its library from its tier budgets,
and a library that does not fit raises ``CapacityError`` before any
request runs (paper Fig. 12 / Table III: "DGX OOM" past ~150 experts).
"""

import hashlib

import pytest

import repro
from repro.coe.api import ServeConfig, build_server
from repro.coe.engine import ServingEngine, zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.coe.serving import ExpertServer
from repro.memory import CapacityError
from repro.systems.platforms import (
    dgx_a100_platform,
    dgx_h100_platform,
    sn40l_platform,
)
from repro.units import GiB

#: Figure 12's expert counts (benchmarks/test_fig12_coe_latency.py).
FIG12_EXPERT_COUNTS = [10, 25, 50, 75, 100, 150, 300, 850]


class _NeverRead(list):
    """A request list that fails the test if anything reads it."""

    def __iter__(self):
        raise AssertionError("a request was read before the capacity check")

    def __len__(self):
        raise AssertionError("a request was read before the capacity check")


def _node_servers(server):
    """Every node's :class:`ExpertServer`, whatever engine ``server`` is."""
    if isinstance(server, ServingEngine):
        return [server.server]
    return [
        node.engine.server if hasattr(node, "engine") else node.state.server
        for node in server.nodes
    ]


def _records_digest(server):
    records = sorted(
        (c.request_id, c.start_s.hex(), c.finish_s.hex())
        for engine in (
            [server] if isinstance(server, ServingEngine)
            else [node.engine for node in server.nodes]
        )
        for c in engine.completed
    )
    return len(records), hashlib.sha256(repr(records).encode()).hexdigest()


class TestLibraryThatDoesNotFit:
    @pytest.mark.parametrize("config", [
        ServeConfig(),
        ServeConfig(deadline_s=60.0),
        ServeConfig(mode="live", policy="fifo"),
    ], ids=["single-node", "one-node-cluster-deadline", "live"])
    def test_dgx_h100_refuses_150_experts_before_serving(self, config):
        library = build_samba_coe_library(150)
        with pytest.raises(CapacityError, match="147 of 150 experts"):
            repro.serve(dgx_h100_platform(), library, _NeverRead(), config)

    @pytest.mark.parametrize("config", [
        ServeConfig(), ServeConfig(deadline_s=60.0),
    ], ids=["single-node", "one-node-cluster-deadline"])
    def test_147_experts_serve_as_before(self, config):
        # The completion record of the same run before DDR was budgeted.
        library = build_samba_coe_library(147)
        requests = zipf_request_stream(library, 600, seed=11)
        server = build_server(dgx_h100_platform(), library, config)
        server.serve(requests)
        assert _records_digest(server) == (
            600,
            "405be74d8b356b43fdc8f1da2d7ab471c9b13264d75c3b1897df2bb72c5613d8",
        )

    @pytest.mark.parametrize("platform", [
        sn40l_platform, dgx_h100_platform, dgx_a100_platform,
    ])
    @pytest.mark.parametrize("count", FIG12_EXPERT_COUNTS)
    def test_raises_iff_library_exceeds_max_hosted(self, platform, count):
        reserve = ExpertServer(
            platform(), build_samba_coe_library(1)
        ).reserved_hbm_bytes
        library = build_samba_coe_library(count)
        hosted = platform().max_hosted_experts(
            library.experts[0].weight_bytes, reserve
        )
        if count > hosted:
            with pytest.raises(CapacityError):
                ExpertServer(platform(), library)
        else:
            ExpertServer(platform(), library)


class TestNvmeCapacity:
    def test_an_nvme_cap_bounds_the_library(self):
        # memwall_tiered's shape: HBM and DDR each hold half the library.
        library = build_samba_coe_library(40)
        half = 20 * library.experts[0].weight_bytes
        caps = {"hbm": half, "ddr": half, "nvme": 1}
        with pytest.raises(CapacityError, match="20 of 40 experts"):
            build_server(sn40l_platform(), library,
                         ServeConfig(tier_capacities=caps))
        server = build_server(sn40l_platform(), library,
                              ServeConfig(tier_capacities={**caps,
                                                           "nvme": half}))
        runtime = server.server.runtime
        tiers = [runtime.tier_of(e.name) for e in library.experts]
        assert tiers == ["ddr"] * 20 + ["nvme"] * 20

    def test_no_nvme_tier_without_a_ddr_cap(self):
        library = build_samba_coe_library(4)
        runtime = ExpertServer(
            dgx_h100_platform(), library, tier_capacities={"hbm": 1 << 40}
        ).runtime
        assert runtime.nvme_budget == 0
        assert {runtime.tier_of(e.name) for e in library.experts} == {"ddr"}


class TestHostingMidRun:
    """A node whose tiers are full still takes the experts the cluster
    moves onto it: each one is a counted overrun, never an error."""

    LIBRARY = build_samba_coe_library(294)  # 147 per DGX-H100 node: full

    def _serve(self, **config):
        requests = zipf_request_stream(self.LIBRARY, 600, seed=3)
        server = build_server(dgx_h100_platform, self.LIBRARY,
                              ServeConfig(num_nodes=2, **config))
        report = server.serve(requests)
        assert report.completed_requests == 600
        overruns = [node.engine.server.runtime.stats.tier_overruns
                    for node in server.nodes]
        return report, overruns

    def test_steal_replication_onto_a_full_node(self):
        report, overruns = self._serve()
        assert report.replications > 0
        assert sum(overruns) == report.replications

    def test_crash_promotion_onto_a_full_node(self):
        report, overruns = self._serve(faults=("crash:node1:2.0",))
        assert overruns == [147, 0]


class TestReservedHbmOnEveryNode:
    RESERVED = 400 * GiB

    @pytest.mark.parametrize("config", [
        ServeConfig(),
        ServeConfig(num_nodes=2),
        ServeConfig(deadline_s=60.0),
        ServeConfig(mode="live", policy="fifo"),
        ServeConfig(mode="live", policy="fifo", num_nodes=2,
                    cluster_policy="affinity"),
    ], ids=["sim", "sim-cluster", "sim-deadline", "live", "live-cluster"])
    def test_reservation_sizes_every_expert_region(self, config):
        platform = sn40l_platform()
        server = build_server(
            platform, build_samba_coe_library(8),
            config.with_(reserved_hbm_bytes=self.RESERVED),
        )
        servers = _node_servers(server)
        assert len(servers) == config.num_nodes
        for node in servers:
            assert node.reserved_hbm_bytes == self.RESERVED
            assert node.runtime.hbm_budget == \
                platform.hbm_capacity_bytes - self.RESERVED
