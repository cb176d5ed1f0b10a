#!/usr/bin/env python
"""Scale a CoE across nodes: sharding, stealing, online replication.

The paper (Section III-B) motivates the single-node SN40L by the load
balancing pain of scale-out CoE serving. This example measures that
pain — and its mitigation — through the unified `repro.serve` entry
point: one throughput engine per node on a shared simulated clock,
Zipf-skewed traffic, and three cluster policies:

1. `least_loaded` — static owner dispatch; the hot expert's node grinds
   while its neighbours idle.
2. `affinity`     — same, but same-expert runs extend on their node.
3. `steal`        — idle nodes steal queued groups they can serve, and
   replicate the hottest queued expert (paying the DDR->HBM copy on the
   sim clock) when they can't.

Run:  python examples/cluster_serving.py
"""

import repro
from repro.coe import ClusterPolicy, build_samba_coe_library
from repro.coe.engine import zipf_request_stream
from repro.systems import sn40l_platform

NUM_EXPERTS = 64
NUM_REQUESTS = 256
NODE_COUNTS = (1, 2, 4, 8)


def main() -> None:
    library = build_samba_coe_library(NUM_EXPERTS)
    requests = zipf_request_stream(
        library, NUM_REQUESTS, alpha=1.1, seed=1234, output_tokens=20
    )
    print(f"{NUM_REQUESTS} Zipf-1.1 requests over {NUM_EXPERTS} experts, "
          f"SN40L nodes\n")

    for policy in ClusterPolicy:
        print(f"--- {policy} ---")
        base = None
        for n in NODE_COUNTS:
            config = repro.ServeConfig(num_nodes=n, cluster_policy=policy)
            report = repro.serve(sn40l_platform, library, requests, config)
            if base is None:
                base = report.tokens_per_second
            print(f"  {n} node(s): {report.tokens_per_second:8.1f} tok/s "
                  f"({report.tokens_per_second / base:4.2f}x vs 1 node)"
                  f"  imbalance {report.load_imbalance:4.2f}  "
                  f"steals {report.steals:3d}  "
                  f"replications {report.replications:2d}")
        print()

    config = repro.ServeConfig(num_nodes=8, cluster_policy=ClusterPolicy.STEAL)
    report = repro.serve(sn40l_platform, library, requests, config)
    busiest = max(report.nodes, key=lambda s: s.busy_s)
    print(f"8-node steal run: {report.groups} groups, makespan "
          f"{report.makespan_s * 1e3:.0f} ms; busiest node {busiest.name} "
          f"computes {busiest.busy_s * 1e3:.0f} ms and hid "
          f"{busiest.hidden_switch_s * 1e3:.0f} ms of expert switching "
          f"behind execution.")
    print("Export the per-node timeline with: "
          "python -m repro trace --cluster -o cluster.json")
    print("Crash a node mid-run with: examples/fault_tolerance.py")


if __name__ == "__main__":
    main()
