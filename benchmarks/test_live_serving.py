"""Live wall-clock serving benchmark + sim/live decision cross-check.

The policy/clock split claims the asyncio backend is the same serving
stack on a different clock. This benchmark exercises the live engine
end to end — open-loop Poisson arrivals, bounded queues, streamed
tokens, graceful drain — and emits ``BENCH_live.json`` at the repo
root with the numbers an operator would watch:

1. **Open-loop run** — p50/p99 request latency (model seconds),
   goodput (completed tokens/s), shed rate, streamed-token count.
2. **Deadline run** — the same trace under an admission SLO, where the
   ETA-based shed path actually fires.
3. **Cross-check** — the recorded trace served on both clocks must
   produce byte-identical policy decisions (the PR's correctness
   artifact, asserted here so CI reruns it on every change).

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for CI smoke runs.
"""

import json
import os
from pathlib import Path

import pytest

from benchmarks.conftest import fmt_ms, print_table
from repro.coe.api import ServeConfig
from repro.coe.crosscheck import cross_check
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import LiveEngine
from repro.load import ArrivalSpec, generate_trace
from repro.systems.platforms import sn40l_platform

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

NUM_EXPERTS = 12 if SMOKE else 24
NUM_NODES = 2 if SMOKE else 4
RATE_RPS = 30.0 if SMOKE else 60.0
DURATION_S = 2.0 if SMOKE else 6.0
#: Wall seconds per model second: compresses the trace for CI while
#: leaving real asyncio sleeps in the loop. Not lower — per-token
#: decode sleeps hit the event loop's ~1ms timer floor, and at harsher
#: compression that wall jitter dominates the reported model latencies.
TIME_SCALE = 0.1
ZIPF_ALPHA = 1.1
SEED = 1234
#: Admission SLO for the deadline run (model seconds), scaled so the
#: ETA path actually fires on the smoke trace's shallower backlogs.
DEADLINE_S = 0.3 if SMOKE else 1.0

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_live.json"


def _config(**overrides):
    base = dict(
        policy="affinity",
        cluster_policy="least_loaded",
        num_nodes=NUM_NODES,
        mode="live",
        time_scale=TIME_SCALE,
    )
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(NUM_EXPERTS)


@pytest.fixture(scope="module")
def requests(library):
    spec = ArrivalSpec(
        rate_rps=RATE_RPS, duration_s=DURATION_S, zipf_alpha=ZIPF_ALPHA,
        seed=SEED,
    )
    return generate_trace(spec, library).to_requests(library)


@pytest.fixture(scope="module")
def live_report(library, requests):
    tokens = []
    engine = LiveEngine(
        sn40l_platform, library, _config(), token_callback=tokens.append
    )
    report = engine.serve(requests)
    return report, len(tokens)


@pytest.fixture(scope="module")
def deadline_report(library, requests):
    engine = LiveEngine(
        sn40l_platform, library, _config(deadline_s=DEADLINE_S)
    )
    return engine.serve(requests)


@pytest.fixture(scope="module")
def check(library, requests):
    return cross_check(sn40l_platform, library, requests, _config())


def test_live_serving_report(benchmark, live_report, deadline_report):
    (report, _), slo = live_report, deadline_report
    benchmark.pedantic(lambda: report, rounds=1, iterations=1)
    rows = []
    for label, r in (("open", report), ("deadline", slo)):
        rows.append([
            label, r.requests, r.completed_requests, r.rejected,
            f"{r.shed_rate * 100:.1f}%",
            f"{r.goodput_tokens_per_second:.1f}",
            fmt_ms(r.p50_s), fmt_ms(r.p99_s),
            f"{r.wall_s:.2f}s",
        ])
    print_table(
        f"Live serving: {RATE_RPS:.0f} rps Poisson x {DURATION_S:.0f} model "
        f"s, Zipf-{ZIPF_ALPHA}, {NUM_NODES} nodes, time_scale={TIME_SCALE}",
        ["Run", "reqs", "done", "shed", "shed%", "good tok/s",
         "p50", "p99", "wall"],
        rows,
    )


def test_open_loop_run_completes_everything(live_report, requests):
    report, streamed = live_report
    assert report.drained
    assert report.completed_requests == len(requests)
    assert report.rejected == 0
    assert report.goodput_tokens_per_second > 0
    assert 0 < report.p50_s <= report.p99_s
    # Every completed output token was delivered through the callback.
    assert streamed == report.output_tokens == report.tokens_streamed


def test_deadline_run_sheds_typed_and_conserves(deadline_report, requests):
    report = deadline_report
    assert report.drained
    assert report.completed_requests + report.rejected == len(requests)
    assert report.shed_backpressure == 0  # default queue is deep enough
    # The SLO actually bites on this trace, but never starves it.
    assert 0 < report.shed_deadline < len(requests)


def test_sim_and_live_decisions_are_identical(check):
    assert check.match, check.mismatch
    assert check.decisions > 0
    assert "admission" in check.streams


def test_emit_bench_json(live_report, deadline_report, check):
    report, streamed = live_report
    payload = {
        "workload": {
            "experts": NUM_EXPERTS,
            "nodes": NUM_NODES,
            "rate_rps": RATE_RPS,
            "duration_s": DURATION_S,
            "zipf_alpha": ZIPF_ALPHA,
            "time_scale": TIME_SCALE,
            "deadline_s": DEADLINE_S,
            "seed": SEED,
            "smoke": SMOKE,
        },
        "open_loop": {**report.to_dict(), "tokens_via_callback": streamed},
        "deadline": deadline_report.to_dict(),
        "cross_check": check.to_dict(),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {OUTPUT_PATH}")
    assert OUTPUT_PATH.exists()
