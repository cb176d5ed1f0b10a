"""Platform models against the paper's reported numbers."""

import pytest

from repro.models.catalog import LLAMA2_7B
from repro.systems.platforms import (
    Platform,
    clear_cost_caches,
    cost_cache_info,
    dgx_a100_platform,
    dgx_h100_platform,
    gh200_capacity_bytes,
    sn40l_platform,
)
from repro.units import GiB

EXPERT = LLAMA2_7B.weight_bytes
RESERVED = LLAMA2_7B.weight_bytes + 8 * GiB  # router + KV headroom


@pytest.fixture(scope="module")
def platforms():
    return sn40l_platform(), dgx_a100_platform(), dgx_h100_platform()


class TestSwitchTimes:
    def test_paper_ratio_vs_a100(self, platforms):
        sn, a100, _ = platforms
        ratio = a100.switch_time(EXPERT) / sn.switch_time(EXPERT)
        assert 28 <= ratio <= 35  # paper: 31x

    def test_paper_ratio_vs_h100(self, platforms):
        sn, _, h100 = platforms
        ratio = h100.switch_time(EXPERT) / sn.switch_time(EXPERT)
        assert 14 <= ratio <= 18  # paper: 15-16x

    def test_sn40l_switch_is_about_13_ms(self, platforms):
        sn, _, _ = platforms
        assert sn.switch_time(EXPERT) == pytest.approx(12.9e-3, rel=0.1)


class TestDecodeOrdering:
    def test_sn40l_fastest_then_h100_then_a100(self, platforms):
        sn, a100, h100 = platforms
        times = [p.decode_token_time(LLAMA2_7B, 1, 1024) for p in (sn, h100, a100)]
        assert times[0] < times[1] < times[2]

    def test_expert_speedup_bands(self, platforms):
        sn, a100, h100 = platforms
        t_sn = sn.decode_token_time(LLAMA2_7B, 1, 1024)
        assert 1.8 <= a100.decode_token_time(LLAMA2_7B, 1, 1024) / t_sn <= 3.5
        assert 1.3 <= h100.decode_token_time(LLAMA2_7B, 1, 1024) / t_sn <= 2.5

    def test_kv_cache_growth_slows_decode(self, platforms):
        sn, _, _ = platforms
        short = sn.decode_token_time(LLAMA2_7B, 1, 128)
        long = sn.decode_token_time(LLAMA2_7B, 8, 4096)
        assert long > short


class TestCapacityCliffs:
    def test_dgx_hbm_holds_about_45_experts(self, platforms):
        _, a100, h100 = platforms
        for dgx in (a100, h100):
            slots = dgx.hbm_expert_slots(EXPERT, RESERVED)
            assert 40 <= slots <= 50  # paper: spill begins ~50 experts

    def test_dgx_ooms_near_150_experts(self, platforms):
        _, a100, _ = platforms
        hosted = a100.max_hosted_experts(EXPERT, RESERVED)
        assert 140 <= hosted <= 160  # paper: OOM at 150

    def test_sn40l_hosts_850_plus(self, platforms):
        sn, _, _ = platforms
        assert sn.max_hosted_experts(EXPERT, RESERVED) >= 850

    def test_sn40l_socket_capacity_vs_gh200(self):
        # Paper: ~2.5x higher aggregate capacity per socket than GH200.
        sn40l_socket_bytes = 64 * GiB + 1.5 * 1024 * GiB
        ratio = sn40l_socket_bytes / gh200_capacity_bytes()
        assert 2.4 <= ratio <= 3.1


class TestValidation:
    def test_bad_args_rejected(self, platforms):
        sn, _, _ = platforms
        with pytest.raises(ValueError):
            sn.decode_token_time(LLAMA2_7B, batch=0)
        with pytest.raises(ValueError):
            sn.switch_time(-1)
        with pytest.raises(ValueError):
            sn.generate_time(LLAMA2_7B, output_tokens=-1)
        with pytest.raises(ValueError):
            sn.hbm_expert_slots(0)


class TestBoundedCaches:
    def test_caches_have_explicit_bounds(self):
        for name, info in cost_cache_info().items():
            assert info.maxsize is not None, f"{name} cache is unbounded"

    def test_cache_stays_within_bound_under_churn(self):
        clear_cost_caches()
        platform = sn40l_platform()
        model = LLAMA2_7B
        for context in range(500):
            platform.decode_token_time(model, 1, context)
        info = Platform.decode_token_time.cache_info()
        assert info.currsize <= info.maxsize

    def test_clear_cost_caches_empties_everything(self):
        platform = sn40l_platform()
        model = LLAMA2_7B
        platform.prefill_time(model, 1, 128)
        platform.decode_span_time(model, 16, 1, 128)
        clear_cost_caches()
        for name, info in cost_cache_info().items():
            assert info.currsize == 0, f"{name} cache survived the clear"
