"""Kernel and plan execution-time estimation on SN40L execution targets.

The model (paper Sections III, VI):

- A **streaming-fused** kernel is a spatial pipeline: compute, memory
  traffic, and fused collectives all overlap, so kernel time is the *max*
  of the three, divided by the sustained-efficiency calibration constants.
- An **unfused** kernel loads inputs, computes, and stores outputs without
  cross-operator pipelining, so its phases *sum*, at lower sustained
  efficiency.
- Every kernel launch pays an orchestration overhead: software-orchestrated
  launches cost a fixed host round-trip plus a per-argument marshalling
  cost; hardware-orchestrated launches replay a static AGCU schedule for
  well under a microsecond (paper Section IV-D).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.arch.config import NodeConfig, SocketConfig
from repro.dataflow.fusion import FusionPlan, Kernel
from repro.dataflow.intensity import SN40L_STREAMING, TrafficModel, kernel_traffic_bytes
from repro.obs import Timeline
from repro.perf.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perf.roofline import Roofline


class Orchestration(enum.Enum):
    """Who sequences kernel launches (paper Section IV-D)."""

    SOFTWARE = "software"
    HARDWARE = "hardware"


@dataclass(frozen=True)
class ExecutionTarget:
    """Aggregate compute/memory peaks of the sockets running one program."""

    name: str
    sockets: int
    peak_flops: float
    hbm_bandwidth: float
    p2p_bandwidth: float
    calibration: Calibration = DEFAULT_CALIBRATION

    @classmethod
    def from_socket(
        cls,
        socket: SocketConfig,
        sockets: int = 1,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: Optional[str] = None,
    ) -> "ExecutionTarget":
        """Build a target from ``sockets`` copies of one socket config.

        Tensor-parallel mapping: peaks aggregate linearly across sockets
        (the paper runs all large benchmarks as TP8 over eight sockets).
        """
        if sockets < 1:
            raise ValueError(f"sockets must be >= 1, got {sockets}")
        return cls(
            name=name or f"SN40L-x{sockets}",
            sockets=sockets,
            peak_flops=socket.peak_flops * sockets,
            hbm_bandwidth=socket.hbm.bandwidth * sockets,
            p2p_bandwidth=socket.p2p_bandwidth,
            calibration=calibration,
        )

    @classmethod
    def from_node(
        cls, node: NodeConfig, calibration: Calibration = DEFAULT_CALIBRATION
    ) -> "ExecutionTarget":
        return cls.from_socket(
            node.socket, sockets=node.sockets, calibration=calibration, name="SN40L-Node"
        )

    def roofline(self, pipelined: bool) -> Roofline:
        """The effective (efficiency-derated) roofline for a kernel class.

        Shared core with :meth:`repro.systems.platforms.Platform.roofline`
        — both draw their compute/memory terms from
        :class:`repro.perf.roofline.Roofline` derated by
        :meth:`Calibration.efficiencies`.
        """
        compute_eff, hbm_eff = self.calibration.efficiencies(pipelined)
        kind = "fused" if pipelined else "unfused"
        return Roofline(
            name=f"{self.name}/{kind}",
            peak_flops=self.peak_flops,
            mem_bandwidth=self.hbm_bandwidth,
        ).with_efficiency(compute_eff, hbm_eff, name=f"{self.name}/{kind}")


@dataclass(frozen=True)
class KernelCost:
    """Timed breakdown of one kernel launch."""

    kernel_name: str
    num_ops: int
    pipelined: bool
    compute_s: float
    memory_s: float
    comm_s: float
    launch_s: float

    @property
    def exec_s(self) -> float:
        """Execution time excluding launch overhead."""
        if self.pipelined:
            return max(self.compute_s, self.memory_s, self.comm_s)
        return self.compute_s + self.memory_s + self.comm_s

    @property
    def total_s(self) -> float:
        return self.exec_s + self.launch_s


@dataclass
class PlanCost:
    """Timed breakdown of a whole fusion plan."""

    plan_policy: str
    target_name: str
    orchestration: Orchestration
    kernels: List[KernelCost] = field(default_factory=list)

    @property
    def num_launches(self) -> int:
        return len(self.kernels)

    @property
    def exec_s(self) -> float:
        return sum(k.exec_s for k in self.kernels)

    @property
    def launch_s(self) -> float:
        return sum(k.launch_s for k in self.kernels)

    @property
    def total_s(self) -> float:
        return self.exec_s + self.launch_s

    @property
    def compute_s(self) -> float:
        return sum(k.compute_s for k in self.kernels)

    @property
    def memory_s(self) -> float:
        return sum(k.memory_s for k in self.kernels)

    def summary(self) -> str:
        return (
            f"{self.plan_policy}/{self.orchestration.value} on {self.target_name}: "
            f"{self.total_s * 1e3:.3f} ms "
            f"({self.num_launches} launches, {self.launch_s * 1e3:.3f} ms overhead)"
        )

    def to_timeline(self) -> Timeline:
        """The plan's schedule as a span timeline.

        Launches occupy the ``orchestration`` lane and kernel bodies the
        ``kernel`` lane, serialized back-to-back — the Figure 10 picture,
        where software-orchestrated launch gaps dominate decode.
        """
        timeline = Timeline()
        now = 0.0
        for kernel in self.kernels:
            if kernel.launch_s > 0:
                timeline.record(
                    f"launch:{kernel.kernel_name}",
                    lane="orchestration",
                    category="orchestration",
                    start_s=now,
                    end_s=now + kernel.launch_s,
                    args={"orchestration": self.orchestration.value},
                )
                now += kernel.launch_s
            timeline.record(
                kernel.kernel_name,
                lane="kernel",
                category="kernel",
                start_s=now,
                end_s=now + kernel.exec_s,
                args={
                    "ops": kernel.num_ops,
                    "compute_ms": kernel.compute_s * 1e3,
                    "memory_ms": kernel.memory_s * 1e3,
                    "pipelined": kernel.pipelined,
                },
            )
            now += kernel.exec_s
        return timeline


def cost_kernel(
    kernel: Kernel,
    target: ExecutionTarget,
    pipelined: bool,
    orchestration: Orchestration,
    traffic_model: TrafficModel = SN40L_STREAMING,
) -> KernelCost:
    """Estimate the time of one kernel launch on a target."""
    cal = target.calibration
    roofline = target.roofline(pipelined)
    traffic = kernel_traffic_bytes(kernel, traffic_model)
    compute_s = roofline.compute_time(kernel.flops)
    memory_s = roofline.memory_time(traffic)

    comm_s = 0.0
    if kernel.comm_bytes > 0:
        num_collectives = sum(1 for op in kernel.ops if op.comm_bytes > 0)
        comm_s = (
            kernel.comm_bytes / target.p2p_bandwidth
            + num_collectives * cal.p2p_latency_s
        )

    if orchestration is Orchestration.HARDWARE:
        launch_s = cal.hw_launch_s
    else:
        num_args = len(kernel.external_inputs) + len(kernel.external_outputs)
        launch_s = cal.sw_launch_overhead(num_args)

    return KernelCost(
        kernel_name=kernel.name,
        num_ops=kernel.num_ops,
        pipelined=pipelined,
        compute_s=compute_s,
        memory_s=memory_s,
        comm_s=comm_s,
        launch_s=launch_s,
    )


def cost_plan(
    plan: FusionPlan,
    target: ExecutionTarget,
    orchestration: Orchestration = Orchestration.SOFTWARE,
    traffic_model: TrafficModel = SN40L_STREAMING,
) -> PlanCost:
    """Estimate total execution time of a fusion plan.

    Fused (streaming/conventional) kernels run as pipelines; single-op
    kernels from the unfused baseline run phase-serial.
    """
    result = PlanCost(
        plan_policy=plan.policy,
        target_name=target.name,
        orchestration=orchestration,
    )
    pipelined_plan = plan.policy != "unfused"
    # Even in a fused plan, a kernel that ended up with a single op has
    # no pipeline to exploit.
    result.kernels.extend(
        cost_kernel(kernel, target, pipelined_plan and kernel.num_ops > 1,
                    orchestration, traffic_model)
        for kernel in plan.kernels
    )
    return result


def speedup(baseline: PlanCost, improved: PlanCost) -> float:
    """Baseline-over-improved time ratio (>1 means ``improved`` is faster)."""
    if improved.total_s <= 0:
        raise ValueError("improved plan has non-positive time")
    return baseline.total_s / improved.total_s
