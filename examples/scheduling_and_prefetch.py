#!/usr/bin/env python
"""Serving-layer optimisations on top of the three-tier memory system.

The paper's CoE runtime serves requests FIFO with an LRU expert cache.
This example runs the serving engine one request per group and layers on
the two optimisations the architecture enables (see
repro.coe.scheduling):

1. expert-affinity batching (the ``affinity`` node policy) — interleaved
   user sessions thrash an LRU cache; regrouping same-expert requests
   inside a bounded window turns the thrash into runs of HBM hits,
2. speculative prefetch (the ``overlap`` node policy) — workflow traffic
   chains the same experts, so a transition predictor can start the
   DDR->HBM copy of the next expert while the current one runs and hide
   the switch.

Run:  python examples/scheduling_and_prefetch.py
"""

import random

from repro.coe import EngineRequest, ServingEngine, build_samba_coe_library
from repro.systems import sn40l_platform
from repro.units import GiB


def make_engine(library, cache_slots: int, policy: str,
                window: int = 16) -> ServingEngine:
    platform = sn40l_platform()
    budget = cache_slots * library.experts[0].weight_bytes + 1 * GiB
    return ServingEngine(
        platform, library, policy=policy, max_batch=1, window=window,
        reserved_hbm_bytes=platform.hbm_capacity_bytes - budget,
    )


def as_requests(experts):
    return [EngineRequest(rid, expert, output_tokens=10)
            for rid, expert in enumerate(experts)]


def main() -> None:
    library = build_samba_coe_library(80)

    # Twelve concurrent user sessions, each pinned to one expert, arriving
    # round-robin — the worst case for an 8-slot LRU cache.
    sessions = [library.experts[i * 6] for i in range(12)]
    requests = as_requests([expert for _ in range(10) for expert in sessions])

    print("12 interleaved sessions, 8-expert HBM cache, 120 requests:")
    for name, policy, window in (
        ("fifo", "fifo", 16),
        ("affinity (window=24)", "affinity", 24),
        ("affinity (window=60)", "affinity", 60),
    ):
        engine = make_engine(library, 8, policy, window)
        report = engine.run(requests)
        stats = engine.server.runtime.stats
        print(
            f"  {name:<22s}: {report.makespan_s:6.2f} s makespan, "
            f"{stats.misses:3d} misses, "
            f"{100 * stats.hit_rate:4.1f}% HBM hit rate"
        )

    # Multi-stage expert workflows: "outputs from one expert determine
    # which expert(s) to execute next" (paper Section I). Requests chain
    # code -> science -> writing etc., with occasional random hops.
    rng = random.Random(7)
    chains = [
        [library.experts[0], library.experts[6], library.experts[7]],
        [library.experts[2], library.experts[9]],
    ]
    stream = []
    while len(stream) < 120:
        if rng.random() < 0.85:
            stream.extend(rng.choice(chains))
        else:
            stream.append(rng.choice(library.experts[:20]))
    chained = as_requests(stream[:120])

    # window=1 keeps arrival order: overlap differs from fifo only by
    # its speculative prefetch.
    print("\nSpeculative prefetch on workflow-chained traffic (2-slot cache):")
    fifo = make_engine(library, 2, "fifo", window=1).run(chained)
    overlap = make_engine(library, 2, "overlap", window=1).run(chained)
    print(f"  switch time hidden : {overlap.hidden_switch_s * 1e3:.0f} ms")
    print(f"  end-to-end speedup : "
          f"{fifo.makespan_s / overlap.makespan_s:.3f}x over fifo")


if __name__ == "__main__":
    main()
