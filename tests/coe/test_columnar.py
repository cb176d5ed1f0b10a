"""Unit pins for the columnar drain core's building blocks.

The reference == columnar report identity lives in
``test_batched_equivalence.py``; this file pins the individual
equivalences the columnar drain is built from, so a future regression
points at the broken piece rather than at "some report byte differs":

- the cumsum timestamp chain is *bitwise* the scalar accumulation loop,
- ``CompletedLog`` presents exactly the records a plain list would,
- each cache policy's ``on_access_run`` equals its scalar hit sequence,
- ``CoERuntime.touch_run`` equals sequential hit ``activate`` calls, and
  its ``overlap`` form the demand hit + speculative refresh sequence,
- ``ExpertPredictor.observe_run`` equals sequential ``observe`` calls,
- ``summarize_latencies`` equals the scalar ``percentile`` oracle,
- traced, pipelined, ``lookahead`` and ``overlap`` single-node runs
  send every group through the columnar drain (no fallback loop),
- ``overlap`` groups join runs, but only while their prefetch is a plain
  recency refresh,
- a drain stops strictly before its horizon, and its run scan reads
  what it drains, not the whole queue,
- engines reject re-entry instead of leaking prior run state.
"""

import math
import random

import numpy as np
import pytest

from repro.coe.api import build_server
from repro.coe.cache import BeladyPolicy, first_uses, make_policy
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.columnar import (
    CompletedLog,
    drain as columnar_drain,
    latency_values,
    lower_queue,
    token_total,
)
from repro.coe.decisions import DecisionLog
from repro.coe import engine as engine_module
from repro.coe.engine import (
    CompletedRequest,
    EngineReentryError,
    EngineRequest,
    ServingEngine,
    zipf_request_stream,
)
from repro.coe.expert import build_samba_coe_library
from repro.coe.metrics import percentile, summarize_latencies
from repro.coe.node import NodeState
from repro.coe.policies import DrainMode
from repro.coe.runtime import CoERuntime
from repro.coe.scheduling import (
    ExpertPredictor, RequestGroup, coalesce_groups,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import Timeline
from repro.sim.engine import Simulator
from repro.systems.platforms import sn40l_platform
from tests.coe.grouping import node_order
from tests.coe.test_tiered_golden import GOLDEN


# ---------------------------------------------------------------------------
# cumsum timestamp chain


def test_cumsum_chain_is_bitwise_scalar_accumulation():
    """The drain's one float trick: seeding np.cumsum with ``now`` and the
    flattened (compute, stage, overhead) triples reproduces the scalar
    ``now = ((now + a) + b) + c`` chain *bitwise* — np.cumsum accumulates
    strictly left to right (pairwise summation applies to np.sum only)."""
    rng = random.Random(0xC0FFEE)
    for _ in range(50):
        m = rng.randrange(1, 40)
        now = rng.uniform(0.0, 1e4)
        phases = [
            (rng.uniform(1e-6, 2.0), rng.uniform(1e-6, 2.0),
             rng.uniform(1e-9, 0.1))
            for _ in range(m)
        ]
        starts, ends, cursor = [], [], now
        for a, b, c in phases:
            starts.append(cursor)
            cursor = ((cursor + a) + b) + c
            ends.append(cursor)

        acc = np.empty(3 * m + 1, dtype=np.float64)
        acc[0] = now
        acc[1:] = np.asarray(phases, dtype=np.float64).reshape(-1)
        np.cumsum(acc, out=acc)
        assert acc[0 : 3 * m : 3].tolist() == starts
        assert acc[3::3].tolist() == ends
        assert float(acc[-1]) == cursor


# ---------------------------------------------------------------------------
# CompletedLog


def _record(i, expert="e0", batch=1, arrival=0.0, start=1.0, end=2.0, tok=3):
    return CompletedRequest(i, expert, batch, arrival, start, end, tok)


#: Materialized records take their expert name from the block's names
#: column; the requests' expert only has to be a real profile.
_BLOCK_EXPERT = build_samba_coe_library(1).experts[0]


def _block_records(first_id, names_sizes, start0, gap=0.0):
    """Build extend_block arguments plus the equivalent scalar records:
    the block's request table holds one padding row on either side of
    the rows it covers. Each group runs 1.5 s and the next one starts
    ``gap`` after it ends, as after a copy wait."""
    names = [n for n, _ in names_sizes]
    sizes = [s for _, s in names_sizes]
    starts, ends, cursor = [], [], start0
    for _ in names:
        starts.append(cursor)
        cursor += 1.5
        ends.append(cursor)
        cursor += gap
    pad = EngineRequest(request_id=-1, expert=_BLOCK_EXPERT)
    table, arrivals, tokens, records = [pad], [-1.0], [-1], []
    rid = first_id
    for k, (name, size) in enumerate(zip(names, sizes)):
        for _ in range(size):
            table.append(EngineRequest(
                request_id=rid, expert=_BLOCK_EXPERT,
                output_tokens=rid + 10, arrival_s=0.25 * rid,
            ))
            arrivals.append(0.25 * rid)
            tokens.append(rid + 10)
            records.append(
                CompletedRequest(rid, name, size, 0.25 * rid, starts[k],
                                 ends[k], rid + 10))
            rid += 1
    columns = (
        table + [pad], np.asarray(arrivals + [-1.0]),
        np.asarray(tokens + [-1], dtype=np.int64), 1, len(table), names,
        np.asarray(starts), np.asarray(ends),
        np.asarray(sizes, dtype=np.int64),
    )
    return columns, records


def test_completed_log_mixes_scalars_and_blocks_in_order():
    log = CompletedLog()
    expected = []

    log.append(_record(0))
    expected.append(_record(0))
    columns, records = _block_records(1, [("a", 2), ("b", 1)], start0=2.0)
    log.extend_block(*columns)
    expected.extend(records)
    log.append(_record(4))
    log.append(_record(5))
    expected.extend([_record(4), _record(5)])
    columns, records = _block_records(6, [("c", 3)], start0=9.0)
    log.extend_block(*columns)
    expected.extend(records)

    assert len(log) == len(expected)
    assert list(log) == expected
    assert log.materialize() == expected
    assert log[0] == expected[0] and log[-1] == expected[-1]


def test_completed_log_block_first_keeps_append_bound():
    """A block arriving before any scalar record must not orphan the
    bound ``append`` (the empty-tail insert path)."""
    log = CompletedLog()
    columns, records = _block_records(0, [("a", 1), ("b", 2)], start0=0.0)
    log.extend_block(*columns)
    log.append(_record(99))
    assert list(log) == records + [_record(99)]


def test_completed_log_len_counts_every_segment():
    """``len`` is a running count; it must agree with the records after
    appends to an open tail, blocks that close it, and back to back
    blocks on an empty tail."""
    log = CompletedLog()
    expected = []
    assert len(log) == 0
    columns, records = _block_records(0, [("a", 2)], start0=0.0)
    log.extend_block(*columns)
    expected.extend(records)
    assert len(log) == len(expected) == 2
    columns, records = _block_records(2, [("b", 1), ("c", 3)], start0=3.0)
    log.extend_block(*columns)
    expected.extend(records)
    assert len(log) == len(expected) == 6
    for rid in (6, 7):
        log.append(_record(rid))
        expected.append(_record(rid))
        assert len(log) == len(expected)
    columns, records = _block_records(8, [("d", 4)], start0=9.0)
    log.extend_block(*columns)
    expected.extend(records)
    log.append(_record(12))
    expected.append(_record(12))
    assert len(log) == len(expected) == 13
    assert list(log) == expected


def test_completed_log_materialize_caches_until_grown():
    log = CompletedLog()
    log.append(_record(0))
    first = log.materialize()
    assert log.materialize() is first
    log.append(_record(1))
    second = log.materialize()
    assert second is not first
    assert len(second) == 2


def test_completed_log_latency_and_tokens_match_scalar():
    log = CompletedLog()
    expected = []
    log.append(_record(0, arrival=0.125, end=7.25, tok=11))
    expected.append(_record(0, arrival=0.125, end=7.25, tok=11))
    columns, records = _block_records(1, [("a", 2), ("b", 3)], start0=1.0)
    log.extend_block(*columns)
    expected.extend(records)

    want_latencies = [c.latency_s for c in expected]
    assert log.latency_values() == want_latencies  # bitwise, not approx
    assert latency_values(log) == want_latencies
    assert log.token_total() == sum(c.output_tokens for c in expected)
    assert token_total(log) == sum(c.output_tokens for c in expected)


def test_completed_log_block_with_gaps_keeps_each_start():
    """A copy wait leaves a gap between one group's end and the next
    group's start: records, latencies and the last finish read each
    group's own start and end."""
    log = CompletedLog()
    columns, records = _block_records(
        0, [("a", 2), ("b", 1), ("c", 3)], start0=1.0, gap=0.75)
    log.extend_block(*columns)
    assert [(c.start_s, c.finish_s) for c in records] == [
        (1.0, 2.5), (1.0, 2.5), (3.25, 4.75),
        (5.5, 7.0), (5.5, 7.0), (5.5, 7.0)]
    assert log.materialize() == records
    assert log.latency_values() == [c.latency_s for c in records]
    assert log.last_finish_s() == 7.0
    log.append(_record(6, start=7.5, end=9.0))
    assert log.last_finish_s() == 9.0


# ---------------------------------------------------------------------------
# policy / runtime / predictor batch-equivalence


def _hit_run(rng, experts, length):
    return [rng.choice(experts) for _ in range(length)]


def _fresh_runtime(library, cache_policy):
    budget = sum(e.weight_bytes for e in library.experts) * 2
    return CoERuntime(
        library.experts,
        MemoryHierarchy.from_edge_times(lambda b: b * 1e-9)
        .with_capacities({"hbm": budget}),
        policy=cache_policy,
    )


@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf"])
def test_touch_run_equals_sequential_hit_activates(cache_policy):
    rng = random.Random(f"touch:{cache_policy}")
    library = build_samba_coe_library(12)
    experts = list(library.experts)

    scalar = _fresh_runtime(library, cache_policy)
    batched = _fresh_runtime(library, cache_policy)
    scalar_log, batched_log = DecisionLog(), DecisionLog()
    scalar.attach_decisions(scalar_log, "node0.cache")
    batched.attach_decisions(batched_log, "node0.cache")
    for runtime in (scalar, batched):
        for expert in experts:
            runtime.activate(expert)

    for trial in range(20):
        run = _hit_run(rng, experts, rng.randrange(1, 15))
        for expert in run:
            scalar.activate(expert)
        batched.touch_run(run)

        assert list(scalar.resident_map) == list(batched.resident_map), trial
        assert scalar.stats == batched.stats, trial
        assert scalar.demand_trace == batched.demand_trace, trial
        assert scalar.policy.eviction_order(scalar.resident_map) == \
            batched.policy.eviction_order(batched.resident_map), trial
        assert scalar_log == batched_log, batched_log.diff(scalar_log)


def _overlap_policy(name, trace):
    """A fresh policy by name; Belady replays ``trace`` and lookahead
    reads it as its backlog, so both can rank victims."""
    if name == "belady":
        return BeladyPolicy(trace)
    policy = make_policy(name)
    if name == "lookahead":
        policy.bind_backlog(lambda: first_uses(trace))
    return policy


def _policy_state(policy):
    """A policy's bookkeeping: sequence numbers, last accesses,
    frequencies, priorities, replay cursor (no bound collaborators)."""
    return {
        key: value for key, value in vars(policy).items()
        if key not in ("_runtime", "_backlog", "predictor", "trace",
                       "_positions")
    }


@pytest.mark.parametrize(
    "cache_policy", ["lru", "lfu", "gdsf", "predictive", "lookahead", "belady"]
)
def test_touch_run_with_prefetches_equals_scalar_overlap_sequence(
        cache_policy):
    """The ``overlap`` run form: ``touch_run(run, prefetched)`` leaves
    runtime and policy exactly as demand ``activate(run[k])`` followed by
    speculative ``activate(prefetched[k], speculative=True)`` would —
    only demand accesses count towards frequencies and Belady's cursor,
    every access towards sequence numbers and recency."""
    rng = random.Random(f"touch-overlap:{cache_policy}")
    library = build_samba_coe_library(12)
    experts = list(library.experts)
    trace = [rng.choice(experts).name for _ in range(400)]
    budget = sum(e.weight_bytes for e in experts) * 2
    scalar, batched = (
        CoERuntime(experts,
                   MemoryHierarchy.from_edge_times(lambda b: b * 1e-9)
                   .with_capacities({"hbm": budget}),
                   policy=_overlap_policy(cache_policy, trace))
        for _ in range(2)
    )
    scalar_log, batched_log = DecisionLog(), DecisionLog()
    scalar.attach_decisions(scalar_log, "node0")
    batched.attach_decisions(batched_log, "node0")
    for runtime in (scalar, batched):
        for expert in experts:
            runtime.activate(expert)

    for trial in range(20):
        run = _hit_run(rng, experts, rng.randrange(1, 15))
        # Each group prefetches the one up next; the last group of the
        # queue has none.
        prefetched = run[1:] + _hit_run(rng, experts, rng.randrange(2))
        for k, expert in enumerate(run):
            scalar.activate(expert)
            if k < len(prefetched):
                scalar.activate(prefetched[k], speculative=True)
        batched.touch_run(run, prefetched)

        assert list(scalar.resident_map) == list(batched.resident_map), trial
        assert scalar.stats == batched.stats, trial
        assert batched.stats.speculative_hits > 0, trial
        assert scalar.demand_trace == batched.demand_trace, trial
        assert _policy_state(scalar.policy) == \
            _policy_state(batched.policy), trial
        assert scalar.policy.eviction_order(scalar.resident_map) == \
            batched.policy.eviction_order(batched.resident_map), trial
        assert scalar_log == batched_log, batched_log.diff(scalar_log)


def test_touch_run_rejects_non_resident_experts():
    library = build_samba_coe_library(4)
    runtime = _fresh_runtime(library, "lru")
    with pytest.raises(ValueError, match="resident"):
        runtime.touch_run([library.experts[0]])


def test_belady_on_access_run_advances_cursor_like_scalar():
    library = build_samba_coe_library(6)
    experts = list(library.experts)
    trace = [e.name for e in experts] * 3
    scalar, batched = BeladyPolicy(trace), BeladyPolicy(trace)
    for expert in experts[:4]:
        scalar.on_access(expert, True)
    batched.on_access_run(experts[:4])
    resident = {e.name: e for e in experts}
    assert scalar.eviction_order(resident) == batched.eviction_order(resident)


def test_observe_run_equals_sequential_observe():
    rng = random.Random("observe")
    library = build_samba_coe_library(10)
    experts = list(library.experts)
    scalar, batched = ExpertPredictor(), ExpertPredictor()

    for trial in range(20):
        run = _hit_run(rng, experts, rng.randrange(1, 12))
        for expert in run:
            scalar.observe(expert)
        batched.observe_run(run)

        assert scalar._counts == batched._counts, trial
        assert scalar._last_seen == batched._last_seen, trial
        assert scalar._transitions == batched._transitions, trial
        assert scalar._clock == batched._clock, trial
        assert scalar._prev == batched._prev, trial
        assert [e.name for e in scalar.candidates()] == \
            [e.name for e in batched.candidates()], trial


def test_observe_run_empty_is_a_noop():
    predictor = ExpertPredictor()
    predictor.observe_run([])
    assert predictor._clock == 0 and predictor._prev is None


# ---------------------------------------------------------------------------
# summarize_latencies


def test_summarize_latencies_matches_percentile_oracle():
    rng = random.Random("summary")
    for _ in range(30):
        values = [rng.uniform(0.0, 50.0) for _ in range(rng.randrange(1, 300))]
        summary = summarize_latencies(values)
        assert summary.p50_s == percentile(values, 50)
        assert summary.p95_s == percentile(values, 95)
        assert summary.p99_s == percentile(values, 99)
        assert summary.mean_s == sum(values) / len(values)


def test_summarize_latencies_empty_is_zero():
    assert summarize_latencies([]) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# drain-mode plumbing and re-entry


def _small_workload(seed=7):
    library = build_samba_coe_library(16)
    requests = zipf_request_stream(library, 40, seed=seed)
    return library, requests


def test_drain_mode_resolution_and_back_compat():
    library, _ = _small_workload()
    assert ServingEngine(sn40l_platform(), library).drain_mode == "columnar"
    assert ServingEngine(
        sn40l_platform(), library, drain_mode="reference"
    ).drain_mode == "reference"
    assert ServingEngine(
        sn40l_platform(), library, drain_mode=DrainMode.COLUMNAR
    ).drain_mode == "columnar"


def test_drain_mode_rejects_unknown_names():
    library, _ = _small_workload()
    with pytest.raises(ValueError):
        ServingEngine(sn40l_platform(), library, drain_mode="bogus")


@pytest.mark.parametrize("engine_type", ["single", "cluster"])
def test_batched_drain_mode_is_gone(engine_type):
    """The batched loop was folded into the columnar drain: asking for
    it is a typed error that lists the modes that exist."""
    library, _ = _small_workload()
    with pytest.raises(ValueError) as excinfo:
        if engine_type == "single":
            ServingEngine(sn40l_platform(), library, drain_mode="batched")
        else:
            ClusterEngine(sn40l_platform, library, num_nodes=2,
                          drain_mode="batched")
    message = str(excinfo.value)
    assert "unknown DrainMode 'batched'" in message
    assert "'reference', 'columnar'" in message
    assert DrainMode.values() == ("reference", "columnar")


def _spy_columnar_drain(monkeypatch):
    """Wrap the engine's columnar drain; returns the list of each call's
    group count."""
    calls = []
    real = engine_module._columnar_drain

    def spy(engine, cols, *args):
        calls.append(len(cols))
        return real(engine, cols, *args)

    monkeypatch.setattr(engine_module, "_columnar_drain", spy)
    return calls


@pytest.mark.parametrize(
    "config", ["traced", "pipeline_promotions", "lookahead", "overlap"]
)
def test_every_single_node_drain_is_columnar(monkeypatch, config):
    """Zero fallbacks: each configuration that once dropped to a second
    drain loop sends every group through the columnar drain."""
    library = build_samba_coe_library(24)
    requests = zipf_request_stream(library, 300, seed=5)
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(0.4 * working_set), biggest)
    caps = {"hbm": hbm, "ddr": max(int(0.55 * working_set), hbm)}
    kwargs = {
        "traced": dict(record_timeline=True),
        "pipeline_promotions": dict(
            record_timeline=False, tier_capacities=caps,
            pipeline_promotions=True,
        ),
        "lookahead": dict(
            record_timeline=False, tier_capacities=caps,
            cache_policy="lookahead",
        ),
        "overlap": dict(record_timeline=False, policy="overlap"),
    }[config]
    kwargs.setdefault("policy", "affinity")
    calls = _spy_columnar_drain(monkeypatch)
    report = ServingEngine(sn40l_platform(), library, **kwargs).run(requests)
    assert calls, "no drain went through the columnar core"
    assert sum(calls) == report.groups
    assert report.requests == len(requests)
    if config == "pipeline_promotions":
        assert report.pipelined_promotions > 0
    if config == "lookahead":
        assert report.demand_hit_rate < 1.0  # evictions were ranked


def _overlap_spies(monkeypatch, engine):
    """Record, at every group step and every run, whether an ``overlap``
    group could be a plain recency refresh: no speculative copy open
    and every expert the predictor knows resident."""
    state = engine.state

    def refresh_only():
        resident = state.server.runtime.resident_map
        return (not state.spec_open
                and state.predictor.known_names <= resident.keys())

    steps, runs = [], []
    begin, touch_run = NodeState.begin, CoERuntime.touch_run

    def spy_begin(self, group, next_expert, now):
        steps.append(refresh_only())
        return begin(self, group, next_expert, now)

    def spy_touch_run(self, experts, prefetched=()):
        runs.append((refresh_only(), len(experts), len(prefetched)))
        return touch_run(self, experts, prefetched)

    monkeypatch.setattr(NodeState, "begin", spy_begin)
    monkeypatch.setattr(CoERuntime, "touch_run", spy_touch_run)
    return steps, runs


def test_overlap_groups_join_runs(monkeypatch):
    """A one-node ``overlap`` engine whose experts fit forms runs: fewer
    group steps than groups, every run booking its prefetches."""
    library = build_samba_coe_library(24)
    requests = zipf_request_stream(library, 600, seed=11)
    engine = ServingEngine(sn40l_platform(), library, policy="overlap")
    steps, runs = _overlap_spies(monkeypatch, engine)
    report = engine.run(requests)
    assert runs and len(steps) < report.groups
    assert sum(length for _, length, _ in runs) + len(steps) == report.groups
    assert all(prefetched >= length - 1 for _, length, prefetched in runs)


def test_overlap_runs_wait_for_speculation_to_settle(monkeypatch):
    """With HBM too small for the library the predictor knows evicted
    experts and speculative copies open; no run forms while either
    holds: those groups go through the group step one by one."""
    library = build_samba_coe_library(24)
    requests = zipf_request_stream(library, 600, alpha=0.8, seed=11)
    working_set = sum(e.weight_bytes for e in library.experts)
    engine = ServingEngine(
        sn40l_platform(), library, policy="overlap",
        tier_capacities={"hbm": int(0.4 * working_set)},
    )
    steps, runs = _overlap_spies(monkeypatch, engine)
    report = engine.run(requests)
    assert report.speculative_prefetches > 0
    assert not all(steps), "speculation never blocked a run"
    assert all(refresh_only for refresh_only, _, _ in runs)


@pytest.mark.parametrize("which", ["first", "last"])
def test_drain_stops_strictly_before_its_horizon(which):
    """Every event strictly before the horizon runs and none at or after
    it: with the horizon at a group's exact finish (the first group's, a
    decision point, or the last group's) that group is left in flight
    and nothing after it begins."""
    library, requests = _small_workload()
    finished = ServingEngine(
        sn40l_platform(), library, policy="affinity"
    ).run(requests).completed
    ends = sorted({c.finish_s for c in finished})
    horizon = ends[0] if which == "first" else ends[-1]
    engine = ServingEngine(sn40l_platform(), library, policy="affinity",
                           simulator=Simulator())
    groups = coalesce_groups(
        node_order(requests, engine.policy, engine.window), engine.max_batch
    )
    engine.precompute_phases(groups)
    stop = columnar_drain(engine, lower_queue(engine, groups), 0.0, horizon)
    index = 0 if which == "first" else len(groups) - 1
    assert stop.begun == index + 1
    assert stop.current[0] is groups[index]
    assert len(engine.completed) == sum(len(g.requests) for g in groups[:index])


class _CountingDict(dict):
    """A dict that counts its ``get`` calls."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_drain_scan_reads_what_it_drains():
    """Draining a long all-resident queue to a horizon two groups in
    reads O(drained) names: the run scan stops once the run's no-wait
    end passes the horizon instead of walking to the end of the run."""
    library = build_samba_coe_library(1)
    expert = library.experts[0]
    groups = [RequestGroup(expert, (EngineRequest(i, expert),))
              for i in range(2_000)]

    def drain(horizon):
        engine = ServingEngine(sn40l_platform(), library, policy="fifo",
                               simulator=Simulator())
        engine.state.copy_done = _CountingDict()
        stop = columnar_drain(engine, lower_queue(engine, groups), 0.0,
                              horizon)
        return engine, stop

    whole, _ = drain(math.inf)
    # The first group copies its expert in; the rest are one run.
    assert whole.state.copy_done.reads >= len(groups)
    ends = [c.finish_s for c in whole.completed]
    engine, stop = drain(ends[2])
    assert stop.begun == 3 and stop.current[0] is groups[2]
    assert list(engine.completed) == list(whole.completed)[:2]
    assert engine.state.copy_done.reads <= 32


def test_columnar_lanes_and_spans_equal_reference():
    """Spans of a drain are recorded in bulk once its compute lane
    exists, and at each completion before: lane creation order (here
    the switch lane, then compute, then prefetch once a promotion runs)
    is what ``Timeline.lanes`` and cross-lane ties of ``spans()``
    follow, and it matches the reference drain's."""
    library = build_samba_coe_library(24)
    requests = zipf_request_stream(library, 300, seed=1)
    working_set = sum(e.weight_bytes for e in library.experts)
    hbm = int(0.5 * working_set)
    reports = [
        ServingEngine(
            sn40l_platform(), library, drain_mode=mode,
            pipeline_promotions=True,
            tier_capacities={"hbm": hbm, "ddr": hbm},
        ).run(requests)
        for mode in ("reference", "columnar")
    ]
    reference, columnar = (report.timeline for report in reports)
    assert reference.lanes == ["switch", "compute", "prefetch"]
    assert columnar.lanes == reference.lanes
    assert columnar.spans() == reference.spans()
    assert list(reports[1].completed) == list(reports[0].completed)
    # Back-to-back spans share one boundary float (peak memory).
    compute = columnar.spans(lane="compute")
    assert all(a.end_s is b.start_s for a, b in zip(compute, compute[1:])
               if a.end_s == b.start_s)


def test_columnar_drain_completes_without_the_group_step(monkeypatch):
    """On the memwall golden setup (decision points outnumber runs)
    no group completes through ``NodeState.finish``: the drain logs one
    block and records the compute spans in a few bulk calls."""
    num_experts, num_requests, make_config = GOLDEN["memwall_1node"][:3]
    library = build_samba_coe_library(num_experts)
    requests = zipf_request_stream(library, num_requests, seed=11)
    finishes, compute_runs = [], []
    finish, record_run = NodeState.finish, Timeline.record_run

    def spy_finish(self, *args):
        finishes.append(args)
        return finish(self, *args)

    def spy_record_run(self, lane, *columns):
        if lane == "compute":
            compute_runs.append(len(columns[0]))
        return record_run(self, lane, *columns)

    monkeypatch.setattr(NodeState, "finish", spy_finish)
    monkeypatch.setattr(Timeline, "record_run", spy_record_run)
    server = build_server(sn40l_platform, library, make_config(library))
    report = server.serve(requests)
    assert report.groups > 1_000
    assert finishes == []
    assert len(compute_runs) <= 2 + report.groups // 2048
    assert sum(compute_runs) == len(report.timeline.spans(lane="compute"))
    assert len(server.completed._segments) == 2  # one block, empty tail


def test_serving_engine_rejects_reentry():
    library, requests = _small_workload()
    engine = ServingEngine(sn40l_platform(), library)
    engine.run(requests)
    with pytest.raises(EngineReentryError):
        engine.run(requests)


def test_cluster_engine_rejects_reentry():
    library, requests = _small_workload()
    engine = ClusterEngine(sn40l_platform, library, num_nodes=2)
    engine.serve(requests)
    with pytest.raises(EngineReentryError):
        engine.serve(requests)
