"""End-to-end CoE serving."""

import pytest

from repro.coe.expert import build_samba_coe_library
from repro.coe.serving import ExpertServer
from repro.systems.platforms import dgx_a100_platform, sn40l_platform


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(100)


class TestServeBreakdown:
    def test_latency_components_sum(self, library):
        server = ExpertServer(sn40l_platform(), library)
        result = server.serve_prompts(["write a python sort function"])
        req = result.requests[0]
        assert req.total_s == pytest.approx(
            req.router_s + req.switch_s + req.prefill_s + req.decode_s
        )

    def test_repeat_expert_hits_the_cache(self, library):
        server = ExpertServer(sn40l_platform(), library)
        expert = library.experts[0]
        first = server.serve_experts([expert])
        second = server.serve_experts([expert])
        assert first.switch_s > 0
        assert second.switch_s == 0.0

    def test_batch_of_8_copies_up_to_8_experts(self, library):
        server = ExpertServer(sn40l_platform(), library)
        experts = library.experts[:8]
        result = server.serve_experts(experts)
        assert result.batch_size == 8
        assert server.runtime.stats.misses == 8

    def test_more_tokens_shrinks_switch_fraction(self, library):
        expert = library.experts[3]
        short_server = ExpertServer(sn40l_platform(), library)
        long_server = ExpertServer(sn40l_platform(), library)
        short = short_server.serve_experts([expert], output_tokens=20)
        long = long_server.serve_experts([expert], output_tokens=200)
        assert long.switch_fraction < short.switch_fraction


class TestCrossPlatform:
    def test_sn40l_switches_much_faster_than_dgx(self, library):
        expert = library.experts[0]
        sn = ExpertServer(sn40l_platform(), library).serve_experts([expert])
        dgx = ExpertServer(dgx_a100_platform(), library).serve_experts([expert])
        assert dgx.switch_s / sn.switch_s > 25  # paper: ~31x

    def test_sn40l_total_latency_wins(self, library):
        experts = library.experts[:4]
        sn = ExpertServer(sn40l_platform(), library).serve_experts(experts)
        dgx = ExpertServer(dgx_a100_platform(), library).serve_experts(experts)
        assert sn.total_s < dgx.total_s

    def test_reservation_larger_than_hbm_rejected(self, library):
        with pytest.raises(ValueError):
            ExpertServer(sn40l_platform(), library,
                      reserved_hbm_bytes=10**15)

    @pytest.mark.parametrize("bad", [-10**12, -1, 2.5, True])
    def test_bad_reservation_rejected(self, bad):
        # A negative reservation would size the HBM expert region past
        # the HBM itself.
        with pytest.raises(ValueError, match="reserved_hbm_bytes"):
            ExpertServer(sn40l_platform(), build_samba_coe_library(4),
                         reserved_hbm_bytes=bad)
        assert ExpertServer(
            sn40l_platform(), build_samba_coe_library(4),
            reserved_hbm_bytes=0,
        ).reserved_hbm_bytes == 0


class TestTextServing:
    def test_prompts_route_and_serve(self, library):
        server = ExpertServer(sn40l_platform(), library)
        result = server.serve_prompts(
            ["fix this python bug", "translate to german: hello"],
            output_tokens=5,
        )
        assert result.batch_size == 2
        experts = {r.expert for r in result.requests}
        assert len(experts) == 2  # different domains -> different experts

    def test_empty_batch_rejected(self, library):
        server = ExpertServer(sn40l_platform(), library)
        with pytest.raises(ValueError):
            server.serve_prompts([])
