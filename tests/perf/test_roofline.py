"""Roofline model."""

import pytest

from repro.perf.roofline import Roofline

A100 = Roofline("A100", peak_flops=312e12, mem_bandwidth=2.039e12)


class TestRoofline:
    def test_ridge_point_is_about_150_for_a100(self):
        # The paper's example: ~300/2 = 150 FLOPs/byte.
        assert A100.ridge_point == pytest.approx(153, rel=0.01)

    def test_attainable_clips_at_peak(self):
        assert A100.attainable_flops(10_000) == A100.peak_flops

    def test_attainable_scales_below_ridge(self):
        assert A100.attainable_flops(10) == pytest.approx(10 * 2.039e12)

    def test_memory_bound_classification(self):
        assert A100.is_memory_bound(100)
        assert not A100.is_memory_bound(200)

    def test_pipelined_time_is_max(self):
        # 1 second of compute, 2 seconds of memory -> overlapped = 2 s.
        t = A100.time(flops=312e12, traffic_bytes=2 * 2.039e12)
        assert t == pytest.approx(2.0)

    def test_serial_time_is_sum(self):
        t = A100.serial_time(flops=312e12, traffic_bytes=2.039e12)
        assert t == pytest.approx(2.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            A100.time(-1, 0)
        with pytest.raises(ValueError):
            A100.attainable_flops(-1)

    def test_degenerate_machine_rejected(self):
        with pytest.raises(ValueError):
            Roofline("bad", peak_flops=0, mem_bandwidth=1)
