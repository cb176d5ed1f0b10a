"""Kernel and plan cost model."""

import pytest

from repro.arch.config import SocketConfig
from repro.dataflow import fusion
from repro.models.fftconv import monarch_fft_graph
from repro.perf.kernel_cost import (
    ExecutionTarget,
    Orchestration,
    cost_kernel,
    cost_plan,
    speedup,
)


@pytest.fixture
def target():
    return ExecutionTarget.from_socket(SocketConfig(), sockets=1)


@pytest.fixture
def monarch():
    return monarch_fft_graph(m=512)


class TestKernelCost:
    def test_pipelined_is_max_of_phases(self, target, monarch):
        kernel = fusion.streaming_fusion(monarch).kernels[0]
        cost = cost_kernel(kernel, target, pipelined=True,
                           orchestration=Orchestration.HARDWARE)
        assert cost.exec_s == pytest.approx(
            max(cost.compute_s, cost.memory_s, cost.comm_s)
        )

    def test_unpipelined_is_sum_of_phases(self, target, monarch):
        kernel = fusion.unfused(monarch).kernels[0]
        cost = cost_kernel(kernel, target, pipelined=False,
                           orchestration=Orchestration.HARDWARE)
        assert cost.exec_s == pytest.approx(
            cost.compute_s + cost.memory_s + cost.comm_s
        )

    def test_software_launch_scales_with_args(self, target, monarch):
        kernels = fusion.unfused(monarch).kernels
        few_args = kernels[2]   # transpose: 1 in + 1 out
        many_args = kernels[0]  # gemm0: 2 in + 1 out
        c_few = cost_kernel(few_args, target, False, Orchestration.SOFTWARE)
        c_many = cost_kernel(many_args, target, False, Orchestration.SOFTWARE)
        assert c_many.launch_s > c_few.launch_s

    def test_hardware_launch_is_constant(self, target, monarch):
        for kernel in fusion.unfused(monarch).kernels:
            cost = cost_kernel(kernel, target, False, Orchestration.HARDWARE)
            assert cost.launch_s == target.calibration.hw_launch_s


class TestPlanCost:
    def test_fusion_beats_unfused(self, target, monarch):
        unf = cost_plan(fusion.unfused(monarch), target, Orchestration.SOFTWARE)
        fus = cost_plan(fusion.streaming_fusion(monarch), target,
                        Orchestration.SOFTWARE)
        assert speedup(unf, fus) > 1.0

    def test_hardware_orchestration_beats_software(self, target, monarch):
        plan = fusion.streaming_fusion(monarch)
        so = cost_plan(plan, target, Orchestration.SOFTWARE)
        ho = cost_plan(plan, target, Orchestration.HARDWARE)
        assert ho.total_s < so.total_s
        assert ho.exec_s == pytest.approx(so.exec_s)  # only launches differ

    def test_totals_decompose(self, target, monarch):
        cost = cost_plan(fusion.unfused(monarch), target)
        assert cost.total_s == pytest.approx(cost.exec_s + cost.launch_s)
        assert cost.num_launches == 4


class TestExecutionTarget:
    def test_sockets_aggregate_peaks(self):
        one = ExecutionTarget.from_socket(SocketConfig(), sockets=1)
        eight = ExecutionTarget.from_socket(SocketConfig(), sockets=8)
        assert eight.peak_flops == pytest.approx(8 * one.peak_flops)
        assert eight.hbm_bandwidth == pytest.approx(8 * one.hbm_bandwidth)

    def test_invalid_socket_count_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTarget.from_socket(SocketConfig(), sockets=0)


class TestReporting:
    def test_plan_cost_summary(self, target, monarch):
        cost = cost_plan(fusion.unfused(monarch), target,
                         Orchestration.SOFTWARE)
        text = cost.summary()
        assert "unfused/software" in text
        assert "launches" in text

    def test_speedup_rejects_degenerate_plans(self, target, monarch):
        import dataclasses

        cost = cost_plan(fusion.unfused(monarch), target)
        empty = dataclasses.replace(cost, kernels=[])
        with pytest.raises(ValueError):
            speedup(cost, empty)
