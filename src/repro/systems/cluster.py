"""Multi-node CoE serving: sharding an expert library across nodes.

The paper motivates the single-node SN40L deployment by the pain of the
alternative: "using more machines for HBM capacity ... increases costs,
complicates deployment, and introduces load balancing challenges"
(Section III-B). :func:`partition_experts` is the placement half of that
alternative: it shards a library across nodes, either contiguously or
balanced by per-expert weight bytes. Dispatch, work stealing and online
replication of hot experts (the classic load-balancing mitigation, which
pays its DDR->HBM copy on the shared clock) live in
:class:`repro.coe.cluster_engine.ClusterEngine`, and the live engine
shards the same way.
"""

from __future__ import annotations

import heapq
import warnings
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # the coe package imports systems.platforms, so cluster
    # keeps its coe imports type-only to keep the layering acyclic.
    from repro.coe.expert import ExpertLibrary, ExpertProfile


def partition_experts(
    library: "ExpertLibrary", num_nodes: int, balanced: bool = True
) -> List[List["ExpertProfile"]]:
    """Split a library across nodes.

    ``balanced`` assigns each expert to the currently lightest node by
    weight bytes (greedy bin packing over a min-heap — near-optimal for
    equal-size experts and good for heterogeneous ones); otherwise experts
    are dealt out contiguously in even runs (shard sizes differ by at most
    one). Either way shards only come up empty when ``num_nodes`` exceeds
    the library size, which draws a warning.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if num_nodes > len(library):
        warnings.warn(
            f"num_nodes={num_nodes} exceeds the library size {len(library)}; "
            f"{num_nodes - len(library)} shard(s) will be empty",
            stacklevel=2,
        )
    shards: List[List["ExpertProfile"]] = [[] for _ in range(num_nodes)]
    if not balanced:
        base, extra = divmod(len(library), num_nodes)
        start = 0
        for idx in range(num_nodes):
            size = base + (1 if idx < extra else 0)
            shards[idx] = list(library.experts[start : start + size])
            start += size
        return shards
    # (load, index) pairs of equal loads form a valid heap as-is; ties pop
    # the lowest index, matching the old loads.index(min(loads)) scan.
    heap: List[Tuple[int, int]] = [(0, idx) for idx in range(num_nodes)]
    for expert in sorted(library.experts, key=lambda e: -e.weight_bytes):
        load, target = heapq.heappop(heap)
        shards[target].append(expert)
        heapq.heappush(heap, (load + expert.weight_bytes, target))
    return shards
