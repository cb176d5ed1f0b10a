"""Deployment platforms and system-footprint analysis."""

from repro.systems.cluster import partition_experts
from repro.systems.footprint import (
    FootprintPoint,
    dgx_nodes_required,
    footprint_sweep,
    max_experts_single_node,
    sn40l_nodes_required,
)
from repro.systems.sensitivity import (
    SensitivityResult,
    decode_win_sensitivity,
    fusion_direction_sensitivity,
    oom_point_sensitivity,
    sweep_constant,
    switch_ratio_sensitivity,
)
from repro.systems.platforms import (
    Platform,
    dgx_a100_platform,
    dgx_h100_platform,
    gh200_capacity_bytes,
    sn40l_platform,
)

__all__ = [
    "partition_experts",
    "FootprintPoint", "dgx_nodes_required", "footprint_sweep",
    "max_experts_single_node", "sn40l_nodes_required", "Platform",
    "dgx_a100_platform", "dgx_h100_platform", "gh200_capacity_bytes",
    "sn40l_platform", "SensitivityResult", "decode_win_sensitivity",
    "fusion_direction_sensitivity", "oom_point_sensitivity",
    "sweep_constant", "switch_ratio_sensitivity",
]
