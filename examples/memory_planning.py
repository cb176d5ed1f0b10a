#!/usr/bin/env python
"""The SN40L compiler's memory manager, step by step (paper Section V-A).

Shows the three mechanisms on a real model:

1. static garbage collection — symbols with disjoint lifetimes share
   device addresses, shrinking a llama2-7b prefill's activation footprint
   by an order of magnitude versus naive allocation,
2. HBM-first placement with bandwidth-ranked spilling — under a tight
   HBM budget, low-reuse activations spill to DDR while weights stay,
3. the CoE runtime's LRU expert cache with read-only skip-copyback.

Run:  python examples/memory_planning.py
"""

from repro.coe import CoERuntime, build_samba_coe_library
from repro.core.compile import build_symbols
from repro.dataflow import fusion
from repro.memory import MemoryHierarchy, peak_live_bytes, plan_memory
from repro.memory.tiers import TierKind
from repro.models import LLAMA2_7B, prefill_graph
from repro.units import GiB, fmt_bytes


def main() -> None:
    graph = prefill_graph(LLAMA2_7B, batch=1, seq=4096, tp=8)
    plan = fusion.group_by_prefix(graph)
    symbols = build_symbols(plan)

    total = sum(s.size_bytes for s in symbols)
    weights = sum(s.size_bytes for s in symbols if s.is_weight)
    peak = peak_live_bytes(symbols)
    print(f"llama2-7b prefill, per-layer fused: {len(symbols)} device symbols")
    print(f"  naive (no reuse) footprint : {fmt_bytes(total)}")
    print(f"  weights (always resident)  : {fmt_bytes(weights)}")
    print(f"  peak live (lower bound)    : {fmt_bytes(peak)}")

    memory = plan_memory(symbols, hbm_capacity_bytes=64 * GiB * 8,
                         ddr_capacity_bytes=12 * 1024 * GiB)
    print(f"  planned HBM extent         : {fmt_bytes(memory.extent(TierKind.HBM))} "
          f"(static GC reclaims {fmt_bytes(total - memory.extent(TierKind.HBM))})")
    print(f"  spilled symbols            : {len(memory.spilled)}\n")

    tight_budget = int((weights + 0.1 * GiB))
    tight = plan_memory(symbols, hbm_capacity_bytes=tight_budget,
                        ddr_capacity_bytes=12 * 1024 * GiB)
    spilled_weights = sum(
        1 for s in tight.spilled if tight.placements[s].symbol.is_weight
    )
    print(f"Under a tight {fmt_bytes(tight_budget)} HBM budget:")
    print(f"  spilled {len(tight.spilled)} symbols to DDR "
          f"({spilled_weights} of them weights)")
    print(f"  extra DDR traffic: {fmt_bytes(tight.spill_traffic_bytes)}\n")

    library = build_samba_coe_library(6)
    hierarchy = MemoryHierarchy.from_edge_times(lambda b: b / 1.05e12)
    runtime = CoERuntime(
        library.experts,
        hierarchy.with_capacities({"hbm": 3 * library.experts[0].weight_bytes}),
    )
    print("CoE runtime: 3-expert HBM cache, 6 experts requested round-robin:")
    for expert in library.experts + library.experts[:2]:
        event = runtime.activate(expert)
        action = "hit " if event.hit else f"copy {event.time_s * 1e3:5.1f} ms"
        evicted = f", evicted {', '.join(event.evicted)}" if event.evicted else ""
        print(f"  {expert.name:<22s} {action}{evicted}")
    stats = runtime.stats
    print(f"  totals: {stats.hits}/{stats.requests} hits, "
          f"{fmt_bytes(stats.bytes_up)} copied up, "
          f"{fmt_bytes(stats.bytes_down)} copied back "
          f"(read-only weights skip copy-back)")


if __name__ == "__main__":
    main()
