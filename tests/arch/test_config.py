"""Configs must reproduce the paper's published aggregates."""

import pytest

from repro.arch.config import (
    NodeConfig,
    PCUConfig,
    PMUConfig,
    SocketConfig,
    sn10_like_socket,
    sn40l_node,
    sn40l_socket,
)
from repro.units import GiB, MiB, TB, TiB


class TestPublishedAggregates:
    def test_socket_peak_flops_is_638_tflops(self):
        assert sn40l_socket().peak_flops == pytest.approx(638e12, rel=0.01)

    def test_socket_has_1040_pcus_and_pmus(self):
        sock = sn40l_socket()
        assert sock.num_pcus == 1040
        assert sock.num_pmus == 1040

    def test_socket_sram_is_520_mib(self):
        assert sn40l_socket().sram_capacity_bytes == 520 * MiB

    def test_socket_sram_bandwidth_is_hundreds_of_tbps(self):
        assert sn40l_socket().sram_bandwidth > 100e12

    def test_hbm_tier_matches_paper(self):
        hbm = sn40l_socket().hbm
        assert hbm.capacity_bytes == 64 * GiB
        assert hbm.bandwidth == pytest.approx(2e12)

    def test_ddr_tier_matches_paper(self):
        ddr = sn40l_socket().ddr
        assert ddr.capacity_bytes == int(1.5 * TiB)
        assert ddr.bandwidth >= 200e9

    def test_node_is_eight_sockets(self):
        node = sn40l_node()
        assert node.sockets == 8
        assert node.hbm_capacity_bytes == 8 * 64 * GiB
        assert node.ddr_capacity_bytes == 8 * int(1.5 * TiB)

    def test_node_ddr_to_hbm_exceeds_1_tbps(self):
        assert sn40l_node().ddr_to_hbm_bandwidth > 1e12


class TestPCUConfig:
    def test_systolic_macs(self):
        cfg = PCUConfig(lanes=32, stages=6)
        assert cfg.systolic_macs == 192

    def test_simd_is_slower_than_systolic(self):
        cfg = PCUConfig()
        assert cfg.simd_flops < cfg.peak_flops


class TestPMUConfig:
    def test_bank_capacity_divides_evenly(self):
        cfg = PMUConfig()
        assert cfg.bank_bytes * cfg.num_banks == cfg.capacity_bytes

    def test_read_and_write_ports_are_independent(self):
        cfg = PMUConfig()
        assert cfg.read_bandwidth > 0
        assert cfg.write_bandwidth > 0


class TestAblationConfigs:
    def test_sn10_like_has_no_hbm(self):
        assert sn10_like_socket().hbm.capacity_bytes == 0

    def test_sn10_like_keeps_compute(self):
        assert sn10_like_socket().peak_flops == sn40l_socket().peak_flops
