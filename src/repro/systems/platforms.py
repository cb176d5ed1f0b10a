"""Platform models: SN40L Node, DGX A100, DGX H100 (and GH200 capacity).

The paper compares Samba-CoE on one SN40L node against DGX A100 and DGX
H100 nodes, estimating DGX latencies from published specs (its Section
VI-B; we do the same — see DESIGN.md's substitution table):

==============  ==========  ==========  ============ =================
platform        HBM         HBM BW      2nd tier     switch bandwidth
==============  ==========  ==========  ============ =================
SN40L node      512 GiB     16 TB/s     12 TiB DDR   1.05 TB/s (paper: >1 TB/s)
DGX A100        640 GB      16.3 TB/s   2 TB host    32 GB/s  (PCIe gen4 path)
DGX H100        640 GB      26.8 TB/s   2 TB host    64 GB/s  (PCIe gen5 path)
==============  ==========  ==========  ============ =================

Decode-time models are roofline-based with platform-specific sustained
efficiencies and overheads (tensor-parallel all-reduce latency per layer,
kernel launch overhead); constants live in
:mod:`repro.perf.calibration` and are pinned by calibration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.arch.config import sn40l_node
from repro.models.transformer import TransformerConfig
from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.roofline import Roofline
from repro.units import GB, GiB, TB, TiB

#: Cache bounds for the memoized timing methods below. The roofline cache
#: holds one entry per platform instance; the per-(model, batch, ...) cost
#: caches are sized for a large sweep point (hundreds of experts x a
#: handful of batch/context shapes) without letting a multi-point sweep in
#: one process grow them forever. ``clear_cost_caches()`` resets them
#: between grid points.
_ROOFLINE_CACHE_SIZE = 64
_COST_CACHE_SIZE = 65536


@dataclass(frozen=True)
class Platform:
    """One deployment node for CoE serving comparison."""

    name: str
    sockets: int
    hbm_capacity_bytes: int
    hbm_bandwidth: float
    peak_flops: float
    #: Capacity of the tier experts overflow into (SN40L: accelerator-local
    #: DDR; DGX: host DRAM behind PCIe).
    second_tier_capacity_bytes: int
    #: Bandwidth of one expert copy from the second tier into HBM.
    switch_bandwidth: float
    #: Sustained fraction of HBM bandwidth during decode.
    decode_hbm_efficiency: float
    #: Sustained fraction of peak FLOPs during prefill.
    compute_efficiency: float
    #: Per-layer latency of one tensor-parallel collective during decode.
    allreduce_latency_s: float
    #: Per-kernel launch overhead during decode (per decoder layer).
    launch_overhead_s: float
    #: Latency floor for one model switch (driver + DMA setup).
    switch_latency_s: float = 50e-6

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def hbm_expert_slots(self, expert_bytes: int, reserved_bytes: int = 0) -> int:
        """How many experts fit in HBM alongside ``reserved_bytes``."""
        if expert_bytes <= 0:
            raise ValueError(f"expert_bytes must be positive, got {expert_bytes}")
        usable = self.hbm_capacity_bytes - reserved_bytes
        return max(0, usable // expert_bytes)

    def max_hosted_experts(self, expert_bytes: int, reserved_bytes: int = 0) -> int:
        """Experts one node can *hold* across HBM + the second tier.

        Beyond this, the node is out of memory — the paper's "DGX OOM"
        row at >150 experts.
        """
        usable = (
            self.hbm_capacity_bytes
            - reserved_bytes
            + self.second_tier_capacity_bytes
        )
        return max(0, usable // expert_bytes)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    @lru_cache(maxsize=_ROOFLINE_CACHE_SIZE)
    def roofline(self) -> Roofline:
        """The platform's effective roofline at sustained efficiencies.

        Shared core with the kernel cost model
        (:meth:`repro.perf.kernel_cost.ExecutionTarget.roofline`): both
        derate one :class:`repro.perf.roofline.Roofline` instead of
        re-deriving compute/memory terms locally.
        """
        return Roofline(
            name=self.name,
            peak_flops=self.peak_flops,
            mem_bandwidth=self.hbm_bandwidth,
        ).with_efficiency(
            self.compute_efficiency, self.decode_hbm_efficiency, name=self.name
        )

    def step_overhead_s(self, layers: int) -> float:
        """Per-decode-step fixed costs: collectives + kernel launches."""
        return layers * (2 * self.allreduce_latency_s + self.launch_overhead_s)

    def switch_time(self, weight_bytes: int) -> float:
        """Copy one expert's weights from the second tier into HBM."""
        if weight_bytes < 0:
            raise ValueError(f"negative weight bytes: {weight_bytes}")
        if weight_bytes == 0:
            return 0.0
        return self.switch_latency_s + weight_bytes / self.switch_bandwidth

    @lru_cache(maxsize=_COST_CACHE_SIZE)
    def decode_token_time(
        self,
        model: TransformerConfig,
        batch: int = 1,
        context: int = 1024,
    ) -> float:
        """One autoregressive decode step, TP across all sockets.

        Memory-bound: reads all weights plus the KV cache of every sample,
        plus per-layer collective latency and launch overheads. Memoized on
        ``(model, batch, context)`` — both argument types are frozen
        dataclasses, and expert sweeps re-evaluate the same roofline terms
        for every expert of a given architecture.
        """
        if batch < 1 or context < 0:
            raise ValueError("batch must be >= 1 and context >= 0")
        roofline = self.roofline()
        weight_traffic = model.weight_bytes
        kv_traffic = batch * context * model.kv_bytes_per_token()
        return (
            roofline.time(2.0 * model.param_count * batch,
                          weight_traffic + kv_traffic)
            + self.step_overhead_s(model.layers)
        )

    @lru_cache(maxsize=_COST_CACHE_SIZE)
    def prefill_time(
        self, model: TransformerConfig, batch: int = 1, seq: int = 1024
    ) -> float:
        """Prompt processing (first token): compute-bound. Memoized."""
        if batch < 1 or seq < 1:
            raise ValueError("batch and seq must be >= 1")
        flops = 2.0 * model.param_count * batch * seq
        return (
            self.roofline().time(flops, model.weight_bytes)
            + model.layers * self.launch_overhead_s
        )

    @lru_cache(maxsize=_COST_CACHE_SIZE)
    def decode_span_time(
        self,
        model: TransformerConfig,
        output_tokens: int,
        batch: int = 1,
        prompt: int = 256,
    ) -> float:
        """Closed-form sum of ``decode_token_time`` over a growing context.

        Each decode step is ``max(memory_s(c), compute_s) + overhead_s``
        where only the memory term depends on the context ``c``, and it is
        affine in ``c`` (weights plus a per-token KV read). Since the
        memory term is non-decreasing, the steps split into a compute-bound
        prefix and a memory-bound suffix: the prefix contributes
        ``k * compute_s`` and the suffix is an arithmetic series with an
        exact closed form. The crossover index is found by binary search on
        the *same float expression* the per-token loop evaluates, so the
        partition matches the loop exactly; agreement is asserted in
        ``tests/systems/test_decode_closed_form.py``.
        """
        if output_tokens < 0:
            raise ValueError(f"negative output_tokens: {output_tokens}")
        if batch < 1 or prompt < 0:
            raise ValueError("batch must be >= 1 and prompt >= 0")
        if output_tokens == 0:
            return 0.0
        roofline = self.roofline()
        bw = roofline.mem_bandwidth
        weight_traffic = model.weight_bytes
        kv_per_token = batch * model.kv_bytes_per_token()
        compute_s = roofline.compute_time(2.0 * model.param_count * batch)
        overhead_s = self.step_overhead_s(model.layers)

        def memory_s(step: int) -> float:
            # Bit-identical to the memory term of decode_token_time.
            return (weight_traffic + (prompt + step) * kv_per_token) / bw

        # First step whose memory term reaches compute_s (binary search on
        # a monotone predicate; O(log T) instead of the loop's O(T)).
        lo, hi = 0, output_tokens
        while lo < hi:
            mid = (lo + hi) // 2
            if memory_s(mid) >= compute_s:
                hi = mid
            else:
                lo = mid + 1
        compute_steps = lo
        total = compute_steps * compute_s
        memory_steps = output_tokens - compute_steps
        if memory_steps:
            first = prompt + compute_steps
            last = prompt + output_tokens - 1
            context_sum = (first + last) * memory_steps // 2  # exact int
            total += (
                memory_steps * weight_traffic + context_sum * kv_per_token
            ) / bw
        return total + output_tokens * overhead_s

    def generate_time(
        self,
        model: TransformerConfig,
        output_tokens: int,
        batch: int = 1,
        prompt: int = 256,
    ) -> float:
        """Prefill + ``output_tokens`` decode steps with a growing cache."""
        if output_tokens < 0:
            raise ValueError(f"negative output_tokens: {output_tokens}")
        return self.prefill_time(model, batch, prompt) + self.decode_span_time(
            model, output_tokens, batch, prompt
        )


def sn40l_platform(calibration: Calibration = DEFAULT_CALIBRATION) -> Platform:
    """The 8-socket SN40L node with a fused (HW-orchestrated) decoder.

    The fused decoder saturates ~85% of HBM bandwidth with one kernel per
    layer and fused collectives (paper Section VI-B).
    """
    node = sn40l_node()
    return Platform(
        name="SN40L-Node",
        sockets=node.sockets,
        hbm_capacity_bytes=node.hbm_capacity_bytes,
        hbm_bandwidth=node.hbm_bandwidth,
        peak_flops=node.peak_flops,
        second_tier_capacity_bytes=node.ddr_capacity_bytes,
        switch_bandwidth=calibration.node_ddr_to_hbm_bandwidth,
        decode_hbm_efficiency=calibration.fused_hbm_efficiency,
        compute_efficiency=calibration.fused_compute_efficiency,
        allreduce_latency_s=calibration.p2p_latency_s / 2,  # fused/overlapped
        launch_overhead_s=calibration.hw_launch_s,
    )


def dgx_a100_platform(calibration: Calibration = DEFAULT_CALIBRATION) -> Platform:
    """DGX A100: 8x A100-80GB, published specs."""
    return Platform(
        name="DGX-A100",
        sockets=8,
        hbm_capacity_bytes=8 * 80 * GiB,
        hbm_bandwidth=8 * 2.039 * TB,  # per-GPU HBM2e bandwidth
        peak_flops=8 * 312e12,
        # 2 TB installed; ~1.2 TiB usable for pinned expert weights after
        # OS, framework, and buffer overheads — which puts the OOM point at
        # the paper's reported 150-expert limit.
        second_tier_capacity_bytes=int(1.2 * TiB),
        switch_bandwidth=calibration.dgx_a100_host_to_hbm,
        decode_hbm_efficiency=calibration.gpu_a100_decode_hbm_efficiency,
        compute_efficiency=calibration.gpu_compute_efficiency,
        allreduce_latency_s=calibration.gpu_allreduce_latency_s,
        launch_overhead_s=calibration.gpu_launch_overhead_s,
    )


def dgx_h100_platform(calibration: Calibration = DEFAULT_CALIBRATION) -> Platform:
    """DGX H100: 8x H100-80GB, published specs."""
    return Platform(
        name="DGX-H100",
        sockets=8,
        hbm_capacity_bytes=8 * 80 * GiB,
        hbm_bandwidth=8 * 3.35 * TB,  # per-GPU HBM3 bandwidth
        peak_flops=8 * 989e12,
        # 2 TB installed; ~1.2 TiB usable for pinned expert weights after
        # OS, framework, and buffer overheads — which puts the OOM point at
        # the paper's reported 150-expert limit.
        second_tier_capacity_bytes=int(1.2 * TiB),
        switch_bandwidth=calibration.dgx_h100_host_to_hbm,
        decode_hbm_efficiency=calibration.gpu_h100_decode_hbm_efficiency,
        compute_efficiency=calibration.gpu_compute_efficiency,
        allreduce_latency_s=calibration.gpu_allreduce_latency_s / 2,  # NVLink4
        launch_overhead_s=calibration.gpu_launch_overhead_s,
    )


def clear_cost_caches() -> None:
    """Reset the memoized platform timing caches.

    Long-lived processes that sweep many grid points (notably the
    :mod:`repro.bench.sweep` runner) call this between points so cached
    entries from one configuration neither leak memory across the sweep
    nor let one point's working set evict another's mid-measurement.
    """
    Platform.roofline.cache_clear()
    Platform.decode_token_time.cache_clear()
    Platform.prefill_time.cache_clear()
    Platform.decode_span_time.cache_clear()


def cost_cache_info() -> dict:
    """Current hit/miss/size counters of every memoized timing cache."""
    return {
        "roofline": Platform.roofline.cache_info(),
        "decode_token_time": Platform.decode_token_time.cache_info(),
        "prefill_time": Platform.prefill_time.cache_info(),
        "decode_span_time": Platform.decode_span_time.cache_info(),
    }


def gh200_capacity_bytes() -> int:
    """Aggregate memory per GH200 socket (96 GB HBM3 + 480 GB LPDDR5X).

    The paper notes the SN40L has ~2.5x higher aggregate capacity per
    socket: (64 GiB HBM + 1.5 TiB DDR) / 576 GB ~ 2.6.
    """
    return 96 * GB + 480 * GB
