"""Figure 1: CoE latency breakdown — model switching vs model execution.

The paper's motivating figure: generating 20 output tokens from a
Llama2-7B expert when the expert must first be switched in. On the DGXs
(experts overflowing to host DRAM) switching dominates; on the SN40L the
DDR->HBM copy is a small fraction of total latency.
"""

import pytest

from benchmarks.conftest import fmt_ms, print_table
from repro.coe.expert import build_samba_coe_library
from repro.coe.serving import ExpertServer
from repro.systems.platforms import (
    dgx_a100_platform,
    dgx_h100_platform,
    sn40l_platform,
)

OUTPUT_TOKENS = 20


def breakdown_for(platform, library):
    server = ExpertServer(platform, library)
    # Cold expert: the request always pays the switch (the Figure 1 case).
    result = server.serve_experts([library.experts[0]],
                                  output_tokens=OUTPUT_TOKENS)
    request = result.requests[0]
    return {
        "platform": platform.name,
        "switch_s": request.switch_s,
        "execute_s": request.execute_s,
        "total_s": request.total_s,
    }


#: More experts than a DGX's HBM holds (~45), so experts overflow to host
#: DRAM, and fewer than its OOM point (147 at the server's reserve).
NUM_EXPERTS = 100


def run_breakdown():
    library = build_samba_coe_library(NUM_EXPERTS)
    return [
        breakdown_for(p, library)
        for p in (sn40l_platform(), dgx_h100_platform(), dgx_a100_platform())
    ]


def test_fig1_latency_breakdown(benchmark):
    rows_data = benchmark(run_breakdown)
    rows = [
        (
            d["platform"],
            fmt_ms(d["switch_s"]),
            fmt_ms(d["execute_s"]),
            fmt_ms(d["total_s"]),
            f"{100 * d['switch_s'] / d['total_s']:.0f}%",
        )
        for d in rows_data
    ]
    print_table(
        "Figure 1: 20-token CoE request, switch vs execute",
        ["Platform", "Switch", "Execute", "Total", "Switch share"],
        rows,
    )
    sn40l, h100, a100 = rows_data
    # Paper shape: switching dominates the DGXs but not the SN40L.
    assert sn40l["switch_s"] / sn40l["total_s"] < 0.35
    assert a100["switch_s"] / a100["total_s"] > 0.5
    assert h100["switch_s"] / h100["total_s"] > 0.5
    # And the SN40L total is several times lower.
    assert a100["total_s"] / sn40l["total_s"] > 3
