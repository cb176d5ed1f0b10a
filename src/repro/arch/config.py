"""Hardware configuration for the SN40L Reconfigurable Dataflow Unit.

These dataclasses capture every architecture parameter the performance model
depends on. Published figures from the paper (MICRO 2024, Section IV):

- 638 BF16 TFLOPS peak per socket from 1040 Pattern Compute Units (PCUs),
- 1040 Pattern Memory Units (PMUs) totalling 520 MiB on-chip SRAM,
- 64 GiB HBM per socket at ~2 TB/s,
- up to 1.5 TiB DDR per socket at >200 GB/s,
- two Reconfigurable Dataflow Dies (RDDs) per socket (CoWoS package),
- a node is eight sockets plus an x86 host, with >1 TB/s aggregate
  DDR-to-HBM copy bandwidth.

Where the paper does not publish a parameter (e.g. tile grid dimensions,
per-PMU bank count) we pick values consistent with the published aggregates
and with the SN10/Plasticine lineage; these only affect low-level simulation
detail, not the aggregate cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import GB, GiB, KiB, TB, TiB


@dataclass(frozen=True)
class PCUConfig:
    """Pattern Compute Unit parameters.

    The PCU body is configurable as an output-stationary systolic array or a
    pipelined SIMD core (paper Section IV-A). ``lanes`` is the SIMD width,
    ``stages`` the number of pipelined vector-compute stages. In systolic
    mode the body operates as a ``lanes x stages`` MAC grid.
    """

    lanes: int = 32
    stages: int = 6
    clock_ghz: float = 1.6
    #: FLOPs retired per MAC per cycle (multiply + add).
    flops_per_mac: int = 2

    @property
    def systolic_macs(self) -> int:
        """Number of MAC units available in systolic mode."""
        return self.lanes * self.stages

    @property
    def peak_flops(self) -> float:
        """Peak BF16 FLOP/s of one PCU in systolic mode."""
        return self.systolic_macs * self.flops_per_mac * self.clock_ghz * 1e9

    @property
    def simd_flops(self) -> float:
        """Peak FLOP/s of one PCU in SIMD (streaming elementwise) mode.

        SIMD mode retires one operation per lane per cycle: element-wise
        operators do not use the stage-parallel MAC grid.
        """
        return self.lanes * self.clock_ghz * 1e9


@dataclass(frozen=True)
class PMUConfig:
    """Pattern Memory Unit parameters.

    Each PMU holds a programmer-managed banked scratchpad with independent
    read and write address-generation pipelines (paper Section IV-B).
    520 MiB over 1040 PMUs gives 512 KiB per PMU.
    """

    capacity_bytes: int = 512 * KiB
    num_banks: int = 32
    #: Width of one bank port in bytes (one BF16 vector lane pair).
    bank_port_bytes: int = 8
    clock_ghz: float = 1.6
    #: Integer ALU stages available for address computation, shared between
    #: the read and write address pipelines (software partitions them).
    address_alu_stages: int = 8

    @property
    def bank_bytes(self) -> int:
        """Capacity of a single scratchpad bank."""
        return self.capacity_bytes // self.num_banks

    @property
    def read_bandwidth(self) -> float:
        """Peak conflict-free read bandwidth of one PMU in bytes/s."""
        return self.num_banks * self.bank_port_bytes * self.clock_ghz * 1e9

    @property
    def write_bandwidth(self) -> float:
        """Peak conflict-free write bandwidth of one PMU in bytes/s.

        Reads and writes are served by independent address pipelines and do
        not contend except on a per-bank basis (modelled in
        :mod:`repro.arch.pmu`).
        """
        return self.num_banks * self.bank_port_bytes * self.clock_ghz * 1e9


@dataclass(frozen=True)
class AGCUConfig:
    """Address Generation and Coalescing Unit parameters.

    AGCUs bridge the tile to the Top Level Network (TLN) and implement the
    kernel-launch mechanism: Program Load, Argument Load, Kernel Execute
    (paper Section IV-D). Launch overheads are calibration constants; see
    :mod:`repro.perf.calibration` for how they were chosen.
    """

    #: Time for a software-orchestrated kernel launch (host submits each
    #: Program Load / Argument Load / Execute command sequence).
    sw_launch_overhead_s: float = 12e-6
    #: Time for a hardware-orchestrated launch (static schedule offloaded to
    #: AGCU sequencers; paper Section IV-D).
    hw_launch_overhead_s: float = 0.5e-6
    #: Peak request bandwidth one AGCU can drive onto the TLN.
    tln_bandwidth: float = 256 * GB


@dataclass(frozen=True)
class RDNConfig:
    """Reconfigurable Dataflow Network parameters (paper Section IV-C).

    Three physical fabrics: a packet-switched vector fabric (tensor data),
    a packet-switched scalar fabric (metadata/addresses), and a
    circuit-switched single-bit control fabric (tokens).
    """

    #: Payload of one vector packet in bytes (one 32-lane BF16 vector).
    vector_packet_bytes: int = 64
    #: Payload of one scalar packet in bytes.
    scalar_packet_bytes: int = 4
    clock_ghz: float = 1.6
    #: Per-hop latency in cycles for the packet-switched fabrics.
    hop_latency_cycles: int = 2
    #: Credits per virtual channel on each switch input port.
    credits_per_port: int = 4
    #: Number of distinct flow IDs a switch flow table can hold. SN40L uses
    #: MPLS-like per-switch relabelling so IDs are local, not global.
    flow_table_entries: int = 64

    @property
    def link_bandwidth(self) -> float:
        """Peak bandwidth of a single vector-fabric link in bytes/s."""
        return self.vector_packet_bytes * self.clock_ghz * 1e9


@dataclass(frozen=True)
class TileConfig:
    """One RDU tile: a 2-D mesh of PCUs, PMUs, switches, and AGCUs.

    The published aggregate is 1040 PCUs + 1040 PMUs per socket over two
    dies. We model each die as four tiles of a 10x13 unit checkerboard
    (130 PCUs + 130 PMUs per tile), which reproduces the aggregates.
    """

    rows: int = 10
    cols: int = 13
    agcus: int = 4
    pcu: PCUConfig = field(default_factory=PCUConfig)
    pmu: PMUConfig = field(default_factory=PMUConfig)
    agcu: AGCUConfig = field(default_factory=AGCUConfig)
    rdn: RDNConfig = field(default_factory=RDNConfig)

    @property
    def num_pcus(self) -> int:
        """PCUs in this tile (half the checkerboard positions)."""
        return self.rows * self.cols

    @property
    def num_pmus(self) -> int:
        """PMUs in this tile (the other half of the checkerboard)."""
        return self.rows * self.cols


@dataclass(frozen=True)
class MemoryTierSpec:
    """Capacity/bandwidth/latency descriptor for one memory tier."""

    name: str
    capacity_bytes: int
    bandwidth: float
    latency_s: float


@dataclass(frozen=True)
class SocketConfig:
    """One SN40L socket: two dies of tiles, plus HBM and DDR interfaces."""

    dies: int = 2
    tiles_per_die: int = 4
    tile: TileConfig = field(default_factory=TileConfig)
    hbm: MemoryTierSpec = MemoryTierSpec(
        name="HBM", capacity_bytes=64 * GiB, bandwidth=2 * TB, latency_s=0.4e-6
    )
    ddr: MemoryTierSpec = MemoryTierSpec(
        name="DDR", capacity_bytes=int(1.5 * TiB), bandwidth=200 * GB, latency_s=0.9e-6
    )
    #: Die-to-die streaming bandwidth (tile components stream directly
    #: between dies without touching off-chip memory).
    d2d_bandwidth: float = 1 * TB
    #: PCIe link to the host CPU.
    host_link_bandwidth: float = 32 * GB
    #: Peer-to-peer bandwidth to other sockets.
    p2p_bandwidth: float = 200 * GB

    @property
    def num_tiles(self) -> int:
        return self.dies * self.tiles_per_die

    @property
    def num_pcus(self) -> int:
        return self.num_tiles * self.tile.num_pcus

    @property
    def num_pmus(self) -> int:
        return self.num_tiles * self.tile.num_pmus

    @property
    def peak_flops(self) -> float:
        """Peak BF16 FLOP/s per socket (paper: 638 TFLOPS)."""
        return self.num_pcus * self.tile.pcu.peak_flops

    @property
    def sram_capacity_bytes(self) -> int:
        """Total distributed PMU SRAM per socket (paper: 520 MiB)."""
        return self.num_pmus * self.tile.pmu.capacity_bytes

    @property
    def sram_bandwidth(self) -> float:
        """Aggregate on-chip SRAM read bandwidth per socket.

        The paper quotes "hundreds of TBps" of on-chip bandwidth; 1040 PMUs
        at ~409 GB/s each give ~426 TB/s, consistent with that claim.
        """
        return self.num_pmus * self.tile.pmu.read_bandwidth


@dataclass(frozen=True)
class NodeConfig:
    """An SN40L node: eight sockets plus one x86 host (paper Section V)."""

    sockets: int = 8
    socket: SocketConfig = field(default_factory=SocketConfig)

    @property
    def peak_flops(self) -> float:
        return self.sockets * self.socket.peak_flops

    @property
    def hbm_capacity_bytes(self) -> int:
        return self.sockets * self.socket.hbm.capacity_bytes

    @property
    def hbm_bandwidth(self) -> float:
        return self.sockets * self.socket.hbm.bandwidth

    @property
    def ddr_capacity_bytes(self) -> int:
        return self.sockets * self.socket.ddr.capacity_bytes

    @property
    def ddr_to_hbm_bandwidth(self) -> float:
        """Aggregate DDR->HBM copy bandwidth across the node.

        The paper reports loading models from DDR to HBM "at over 1 TB/s in
        a single SN40L Node": eight sockets each copying at DDR peak.
        """
        return self.sockets * self.socket.ddr.bandwidth


def sn40l_socket() -> SocketConfig:
    """The SN40L socket with published default parameters."""
    return SocketConfig()


def sn40l_node() -> NodeConfig:
    """The eight-socket SN40L node used for all Samba-CoE experiments."""
    return NodeConfig()


def sn10_like_socket() -> SocketConfig:
    """An SN10-like ablation config: no HBM tier (DDR + SRAM only).

    Used by the HBM ablation benchmark to quantify what the new HBM tier
    buys on memory-bound inference (paper Section IV-E). Modelled as the
    SN40L with the HBM tier's capacity set to zero.
    """
    return SocketConfig(
        hbm=MemoryTierSpec(name="HBM", capacity_bytes=0, bandwidth=1.0, latency_s=0.0)
    )
