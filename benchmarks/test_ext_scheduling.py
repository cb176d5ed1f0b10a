"""Extension: serving-schedule policies on the three-tier memory system.

Not a paper figure — an ablation of the serving-layer policies the SN40L
architecture enables, run on the serving engine
(:class:`repro.coe.engine.ServingEngine`) one request per group
(``max_batch=1``), so only the schedule differs between rows: FIFO vs
bounded-window expert-affinity batching (the ``affinity`` node policy),
and speculative prefetch (the ``overlap`` node policy) on
workflow-chained traffic.
"""

import random

import pytest

from benchmarks.conftest import print_table
from repro.coe.engine import EngineRequest, ServingEngine
from repro.coe.expert import build_samba_coe_library
from repro.systems.platforms import sn40l_platform
from repro.units import GiB


def _engine(library, cache_slots, policy, window=16):
    platform = sn40l_platform()
    budget = cache_slots * library.experts[0].weight_bytes + 1 * GiB
    return ServingEngine(
        platform, library, policy=policy, max_batch=1, window=window,
        reserved_hbm_bytes=platform.hbm_capacity_bytes - budget,
    )


def _requests(experts):
    return [
        EngineRequest(rid, expert, output_tokens=10)
        for rid, expert in enumerate(experts)
    ]


def run_scheduling():
    library = build_samba_coe_library(80)
    sessions = [library.experts[i * 6] for i in range(12)]
    requests = _requests([expert for _ in range(10) for expert in sessions])
    outcomes = {}
    for name, policy, window in (
        ("fifo", "fifo", 16),
        ("affinity-w24", "affinity", 24),
        ("affinity-w60", "affinity", 60),
    ):
        engine = _engine(library, 8, policy, window)
        report = engine.run(requests)
        outcomes[name] = (report, engine.server.runtime.stats.misses)

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
    chained = _requests(stream[:120])
    # window=1 keeps arrival order, so overlap differs from fifo only by
    # prefetching the next group's expert while the current one runs.
    prefetch = {
        policy: _engine(library, 2, policy, window=1).run(chained)
        for policy in ("fifo", "overlap")
    }
    return outcomes, prefetch


@pytest.fixture(scope="module")
def results():
    return run_scheduling()


def _speedup(prefetch):
    return prefetch["fifo"].makespan_s / prefetch["overlap"].makespan_s


def test_scheduling_report(benchmark, results):
    benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    outcomes, prefetch = results
    print_table(
        "Extension: schedule policy (120 reqs, 12 sessions, 8-slot cache)",
        ["Policy", "Makespan", "Misses", "Hit rate"],
        [(name, f"{r.makespan_s:.2f} s", misses,
          f"{100 * (1 - misses / r.requests):.0f}%")
         for name, (r, misses) in outcomes.items()],
    )
    overlap = prefetch["overlap"]
    print(f"Speculative prefetch: {overlap.hidden_switch_s * 1e3:.0f} ms "
          f"hidden, {_speedup(prefetch):.3f}x over fifo")


def test_affinity_strictly_improves(results):
    outcomes, _ = results
    fifo, w24, w60 = (outcomes[name] for name in
                      ("fifo", "affinity-w24", "affinity-w60"))
    assert w24[1] < fifo[1]
    assert w60[1] < w24[1]
    assert w60[0].makespan_s < fifo[0].makespan_s


def test_prefetch_hides_switch_time(results):
    _, prefetch = results
    assert prefetch["overlap"].hidden_switch_s > 0
    assert _speedup(prefetch) > 1.0
