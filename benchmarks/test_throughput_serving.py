"""Throughput serving engine benchmark + cost-model microbenchmark.

Two perf trajectories for later PRs to regress against, emitted to
``BENCH_throughput.json`` at the repo root:

1. **Serving throughput** — requests/s and tokens/s per scheduling policy
   (fifo / affinity / overlap) per platform on a skewed (Zipf) request
   stream, with the switch-hidden fraction of the overlap policy.
2. **Cost-model microbenchmark** — wall-clock of a Figure-12-style sweep
   (150 experts x 512 decode tokens) through the per-token reference loop
   vs the closed-form + memoized ``decode_span_time`` path.
"""

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import fmt_ms, print_table
from repro.bench.sweep import SweepPoint, run_sweep
from repro.coe.engine import compare_policies, zipf_request_stream
from repro.coe.policies import NodePolicy
from repro.coe.expert import build_samba_coe_library
from repro.models.catalog import LLAMA2_7B
from repro.systems.platforms import (
    Platform,
    dgx_a100_platform,
    dgx_h100_platform,
    sn40l_platform,
)

NUM_EXPERTS = 100  # fits all three platforms (DGX OOMs at 150)
NUM_REQUESTS = 256
OUTPUT_TOKENS = 20
ZIPF_ALPHA = 1.1

SWEEP_EXPERTS = 150
SWEEP_TOKENS = 512
SWEEP_PROMPT = 256

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


_PLATFORM_FACTORIES = {
    "sn40l": sn40l_platform,
    "dgx_h100": dgx_h100_platform,
    "dgx_a100": dgx_a100_platform,
}


def _throughput_point(point: SweepPoint):
    """One platform's full policy ladder (fifo/affinity/overlap);
    module-level so the sweep runner's fork pool can pickle it."""
    platform = _PLATFORM_FACTORIES[point["platform"]]()
    library = build_samba_coe_library(NUM_EXPERTS)
    requests = zipf_request_stream(
        library, NUM_REQUESTS, alpha=ZIPF_ALPHA, seed=1234,
        output_tokens=OUTPUT_TOKENS,
    )
    return platform.name, compare_policies(platform, library, requests)


@pytest.fixture(scope="module")
def throughput_reports():
    swept = run_sweep(
        _throughput_point,
        {"platform": tuple(_PLATFORM_FACTORIES)},
        base_seed=1234,
    )
    return dict(swept)


@pytest.fixture(scope="module")
def microbench():
    """150-expert x 512-token sweep: reference loop vs closed form."""
    platform = sn40l_platform()
    loop_fn = Platform.decode_token_time.__wrapped__  # uncached reference

    start = time.perf_counter()
    loop_total = 0.0
    for _ in range(SWEEP_EXPERTS):
        for step in range(SWEEP_TOKENS):
            loop_total += loop_fn(platform, LLAMA2_7B, 1, SWEEP_PROMPT + step)
    loop_s = time.perf_counter() - start

    Platform.decode_span_time.cache_clear()  # cold closed-form path
    start = time.perf_counter()
    closed_total = 0.0
    for _ in range(SWEEP_EXPERTS):
        closed_total += platform.decode_span_time(
            LLAMA2_7B, SWEEP_TOKENS, 1, SWEEP_PROMPT
        )
    closed_s = time.perf_counter() - start

    return {
        "sweep_experts": SWEEP_EXPERTS,
        "sweep_tokens": SWEEP_TOKENS,
        "loop_wall_s": loop_s,
        "closed_form_wall_s": closed_s,
        "speedup": loop_s / closed_s if closed_s > 0 else float("inf"),
        "loop_total_s": loop_total,
        "closed_form_total_s": closed_total,
    }


def test_throughput_report(benchmark, throughput_reports):
    benchmark.pedantic(lambda: throughput_reports, rounds=1, iterations=1)
    rows = []
    for platform, reports in throughput_reports.items():
        for policy, report in reports.items():
            rows.append([
                platform, policy,
                f"{report.requests_per_second:.2f}",
                f"{report.tokens_per_second:.1f}",
                fmt_ms(report.p50_s), fmt_ms(report.p99_s),
                f"{report.mean_batch:.2f}",
                f"{100 * report.switch_hidden_fraction:.1f}%",
            ])
    print_table(
        f"Throughput serving: {NUM_REQUESTS} Zipf requests, "
        f"{NUM_EXPERTS} experts",
        ["Platform", "Policy", "req/s", "tok/s", "p50", "p99",
         "batch", "hidden"],
        rows,
    )


def test_overlap_strictly_beats_fifo(throughput_reports):
    """Acceptance: grouped batching + copy/compute overlap must win on a
    skewed stream, with a nonzero hidden-switch fraction, everywhere."""
    for platform, reports in throughput_reports.items():
        assert (reports["overlap"].requests_per_second
                > reports["fifo"].requests_per_second), platform
        assert reports["overlap"].switch_hidden_fraction > 0, platform


def test_policy_ladder_is_monotonic(throughput_reports):
    for platform, reports in throughput_reports.items():
        assert (reports["overlap"].requests_per_second
                >= reports["affinity"].requests_per_second
                >= reports["fifo"].requests_per_second), platform


def test_closed_form_agrees_and_is_10x_faster(microbench):
    rel = abs(microbench["loop_total_s"] - microbench["closed_form_total_s"])
    rel /= microbench["loop_total_s"]
    assert rel <= 1e-9
    assert microbench["speedup"] >= 10.0


def test_emit_bench_json(throughput_reports, microbench):
    payload = {
        "workload": {
            "experts": NUM_EXPERTS,
            "requests": NUM_REQUESTS,
            "output_tokens": OUTPUT_TOKENS,
            "zipf_alpha": ZIPF_ALPHA,
            "policies": list(NodePolicy.values()),
        },
        "serving": {
            platform: {policy: report.to_dict()
                       for policy, report in reports.items()}
            for platform, reports in throughput_reports.items()
        },
        "cost_model_microbenchmark": microbench,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    assert OUTPUT_PATH.exists()
