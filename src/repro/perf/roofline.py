"""The roofline model (Williams et al., CACM 2009) for any accelerator.

The paper uses roofline reasoning throughout: an A100's ridge point of
~150 FLOPs/byte decides which rows of Table I are memory-bound, and the
whole motivation for fusion is moving kernels to the right of the ridge.

This module is the *single* roofline core: the kernel cost model
(:mod:`repro.perf.kernel_cost`) and the serving platform models
(:mod:`repro.systems.platforms`) both derive their compute/memory terms
from :class:`Roofline` instances derated by the sustained efficiencies
in :mod:`repro.perf.calibration`, so the two formulations cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Roofline:
    """Peak compute and memory bandwidth of one machine."""

    name: str
    peak_flops: float
    mem_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError(f"{self.name}: peaks must be positive")

    @property
    def ridge_point(self) -> float:
        """Operational intensity at which compute and memory balance."""
        return self.peak_flops / self.mem_bandwidth

    def attainable_flops(self, intensity: float) -> float:
        """Attainable FLOP/s at a given operational intensity."""
        if intensity < 0:
            raise ValueError(f"negative intensity: {intensity}")
        return min(self.peak_flops, intensity * self.mem_bandwidth)

    def is_memory_bound(self, intensity: float) -> bool:
        return intensity < self.ridge_point

    def with_efficiency(
        self,
        compute_efficiency: float,
        mem_efficiency: float,
        name: Optional[str] = None,
    ) -> "Roofline":
        """The *effective* roofline at sustained (derated) peaks.

        Calibration constants enter the model exactly once, here; every
        consumer then computes times off the derated machine.
        """
        if not 0.0 < compute_efficiency <= 1.0:
            raise ValueError(f"compute efficiency out of (0,1]: {compute_efficiency}")
        if not 0.0 < mem_efficiency <= 1.0:
            raise ValueError(f"memory efficiency out of (0,1]: {mem_efficiency}")
        return Roofline(
            name=name or f"{self.name}@sustained",
            peak_flops=self.peak_flops * compute_efficiency,
            mem_bandwidth=self.mem_bandwidth * mem_efficiency,
        )

    def compute_time(self, flops: float) -> float:
        """Time of the compute phase alone."""
        if flops < 0:
            raise ValueError(f"negative flops: {flops}")
        return flops / self.peak_flops

    def memory_time(self, traffic_bytes: float) -> float:
        """Time of the memory phase alone."""
        if traffic_bytes < 0:
            raise ValueError(f"negative traffic: {traffic_bytes}")
        return traffic_bytes / self.mem_bandwidth

    def time(self, flops: float, traffic_bytes: float) -> float:
        """Ideal execution time: the slower of compute and memory.

        This is the perfectly-overlapped (pipelined) bound; callers apply
        efficiency factors and launch overheads on top.
        """
        return max(self.compute_time(flops), self.memory_time(traffic_bytes))

    def serial_time(self, flops: float, traffic_bytes: float) -> float:
        """Non-overlapped execution: load/store then compute, summed.

        Models an unfused kernel that cannot overlap its memory phases with
        compute (no cross-operator pipeline)."""
        return self.compute_time(flops) + self.memory_time(traffic_bytes)
