#!/usr/bin/env python
"""Serve a trillion-parameter Composition of Experts on one SN40L node.

Builds Samba-CoE (150 Llama2-7B experts plus a router), routes a batch of
real prompts to domain experts, and serves them through the three-tier
memory system: DDR holds all experts, HBM LRU-caches the hot ones, and the
runtime reports the switch/execute latency split. A DGX-A100 cannot hold
all 150 experts (the paper's "DGX OOM"), so the same requests are then
replayed on it with 100 experts, which still overflow its HBM to host
DRAM, for the paper's latency comparison.

Run:  python examples/coe_serving.py
"""

from repro.coe import ExpertServer, Router, build_samba_coe_library
from repro.memory import CapacityError
from repro.systems import dgx_a100_platform, sn40l_platform

PROMPTS = [
    "Write a python function that merges two sorted lists",
    "Solve the integral of x * exp(x) dx",
    "Translate 'good morning, friend' into Japanese",
    "Summarize the key points of the attached meeting notes, tldr",
    "What treatment options exist for this diagnosis?",
    "Draft a contract clause limiting liability for data loss",
    "Explain the chemistry of this reaction step by step",
    "Write a short story about a lighthouse keeper",
]


def serve_on(platform_name: str, platform, library) -> None:
    server = ExpertServer(platform, library)
    print(f"--- {platform_name} ---")
    result = server.serve_prompts(PROMPTS, output_tokens=20, prompt_tokens=256)
    for request in result.requests:
        print(
            f"  {request.expert:<28s} switch {request.switch_s * 1e3:7.1f} ms   "
            f"execute {request.execute_s * 1e3:6.1f} ms"
        )
    print(
        f"  batch total: {result.total_s * 1e3:8.1f} ms "
        f"({100 * result.switch_fraction:.0f}% switching)"
    )
    stats = server.runtime.stats
    print(
        f"  runtime: {stats.requests} activations, "
        f"{stats.hits} HBM hits, {stats.bytes_up / 2**30:.1f} GiB copied up\n"
    )


def main() -> None:
    library = build_samba_coe_library(150)
    print(
        f"Samba-CoE: {len(library)} experts, "
        f"{library.total_params / 1e12:.2f}T total parameters, "
        f"{library.total_weight_bytes / 2**40:.2f} TiB of weights\n"
    )

    router = Router(library)
    print("Routing decisions:")
    for decision in router.route_batch(PROMPTS):
        print(f"  [{decision.domain:>13s}] {decision.prompt[:55]}")
    print()

    serve_on("SN40L node (experts in accelerator-local DDR)",
             sn40l_platform(), library)
    try:
        serve_on("DGX A100", dgx_a100_platform(), library)
    except CapacityError as exc:
        print(f"--- DGX A100 ---\n  out of memory: {exc}\n")
    serve_on("DGX A100, 100 experts (overflow to host DRAM)",
             dgx_a100_platform(), build_samba_coe_library(100))


if __name__ == "__main__":
    main()
