"""Property test: the columnar fast drain IS the event-by-event reference.

``drain_mode="columnar"`` (the default) starts every run in one t=0
simulator event that drains each node's queue on a local clock up to a
horizon (infinite unless ``steal`` hooks are installed) and hands the
rest to the event path; ``drain_mode="reference"`` is
the seed-equivalent reference — one begin/finish event pair per group, the
heap popped one event at a time. The two must be indistinguishable in
every observable: report stats (including the logical ``events_run``
count), completed-request records, the byte-level timeline and the
cache DecisionLog — across scheduling policies, cache policies, traced
and untraced runs, the memory hierarchy, pipelined promotions,
``lookahead`` eviction, ``overlap`` prefetching and randomized
workloads.

Most timelines are compared per lane over sorted lane names
(:func:`_timeline_lanes`); the cluster runs through
:func:`_assert_same_run` also pin lane order, which cross-lane ties in
``spans()`` and the Chrome trace's thread ids follow.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.coe import cluster_engine as cluster_module
from repro.coe import engine as engine_module
from repro.coe.cache import LookaheadPolicy
from repro.coe.cluster_engine import ClusterEngine, run_cluster
from repro.coe.decisions import DecisionLog
from repro.coe.engine import EngineRequest, ServingEngine, zipf_request_stream
from repro.coe.expert import (
    build_heterogeneous_library,
    build_samba_coe_library,
)
from repro.models.catalog import LLAMA2_7B, LLAMA2_13B
from repro.obs import to_chrome_events
from repro.sim.faults import random_schedule
from repro.systems.platforms import sn40l_platform

DRAIN_MODES = ("reference", "columnar")


def _timeline_lanes(timeline):
    """Per-lane span tuples keyed by lane name, order-insensitive
    across lanes, order-preserving within a lane."""
    if timeline is None:
        return None
    lanes = {}
    for span in timeline.spans():
        lanes.setdefault(span.lane, []).append(
            (span.name, span.category, span.start_s, span.end_s,
             repr(sorted(span.args.items())))
        )
    return {lane: lanes[lane] for lane in sorted(lanes)}


def _random_workload(rng):
    library = build_samba_coe_library(rng.randrange(24, 64))
    requests = zipf_request_stream(
        library,
        rng.randrange(150, 400),
        alpha=rng.uniform(1.05, 1.4),
        seed=rng.randrange(1 << 30),
        output_tokens=rng.randrange(4, 32),
    )
    return library, requests


@pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf"])
def test_engine_batched_equals_reference(policy, cache_policy):
    rng = random.Random(f"engine:{policy}:{cache_policy}")
    library, requests = _random_workload(rng)

    def run(drain_mode):
        engine = ServingEngine(
            sn40l_platform(), library, policy=policy,
            max_batch=rng_max_batch, window=rng_window,
            cache_policy=cache_policy, drain_mode=drain_mode,
        )
        return engine.run(requests)

    rng_max_batch = rng.randrange(1, 12)
    rng_window = rng.randrange(1, 32)
    fast, reference = run("columnar"), run("reference")

    assert fast.to_dict() == reference.to_dict()
    assert fast.events_run == reference.events_run
    assert fast.completed == reference.completed
    assert _timeline_lanes(fast.timeline) == _timeline_lanes(
        reference.timeline
    )


@pytest.mark.parametrize("policy", ["least_loaded", "affinity", "steal"])
@pytest.mark.parametrize("num_nodes", [2, 4, 80])
def test_cluster_batched_equals_reference(policy, num_nodes):
    # ``steal`` drains each node on the columnar core only up to the
    # first instant a steal hook could act, then runs the hooks on the
    # event path; that axis pins the handoff between the two. 80 nodes
    # outnumber every library here: the empty shards are dropped.
    rng = random.Random(f"cluster:{policy}:{num_nodes}")
    library, requests = _random_workload(rng)

    def run(drain_mode):
        return run_cluster(
            sn40l_platform, library, requests, num_nodes=num_nodes,
            policy=policy, online_replication=policy == "steal",
            drain_mode=drain_mode,
        )

    fast, reference = run("columnar"), run("reference")

    assert fast.to_dict() == reference.to_dict()
    assert fast.events_run == reference.events_run
    assert _timeline_lanes(fast.timeline) == _timeline_lanes(
        reference.timeline
    )


def test_cluster_deadline_shedding_batched_equals_reference():
    rng = random.Random("deadline")
    library, requests = _random_workload(rng)
    makespan = run_cluster(
        sn40l_platform, library, requests, num_nodes=2,
        policy="least_loaded",
    ).makespan_s

    def run(drain_mode):
        return run_cluster(
            sn40l_platform, library, requests, num_nodes=2,
            policy="least_loaded", deadline_s=0.5 * makespan,
            drain_mode=drain_mode,
        )

    fast, reference = run("columnar"), run("reference")
    assert fast.rejected > 0
    assert fast.to_dict() == reference.to_dict()
    assert _timeline_lanes(fast.timeline) == _timeline_lanes(
        reference.timeline
    )


def test_cluster_deadline_priorities_and_log_equal_reference():
    """Both drains of a deadline run agree, after the same shedding and
    records: three ``least_loaded`` nodes, a deadline over mixed
    priorities and lengths, and a decision log. (Both modes admit
    through ``admit_backlog``; ``TestAdmissionOracle`` in
    test_scheduling.py checks it against the per-group path.)"""
    rng = random.Random("deadline-priorities")
    library, requests = _random_workload(rng)
    requests = [
        dataclasses.replace(
            r, priority=rng.randrange(3),
            prompt_tokens=rng.choice((128, 256, 512)),
            output_tokens=rng.randrange(4, 32),
        )
        for r in requests
    ]
    makespan = run_cluster(
        sn40l_platform, library, requests, num_nodes=3,
        policy="least_loaded",
    ).makespan_s

    def run(drain_mode):
        log = DecisionLog()
        cluster = ClusterEngine(
            sn40l_platform, library, 3, policy="least_loaded",
            deadline_s=0.5 * makespan, decision_log=log,
            drain_mode=drain_mode,
        )
        return cluster, cluster.serve(requests), log

    (fast, fast_report, fast_log), (ref, ref_report, ref_log) = (
        run("columnar"), run("reference"))
    assert 0 < fast_report.rejected < len(requests)
    assert len({r.priority for r in fast.rejected}) > 1
    assert fast_report.to_dict() == ref_report.to_dict()
    assert [r.request_id for r in fast.rejected] == [
        r.request_id for r in ref.rejected]
    assert fast_log.stream("admission") == ref_log.stream("admission")
    assert fast_log == ref_log, fast_log.diff(ref_log)
    assert fast.completed_requests() == ref.completed_requests()


def test_cluster_untraced_batched_matches_traced_reference_metrics():
    """``record_timeline=False`` (the sweep fast path) must leave every
    simulated metric identical — only timeline-derived per-node fields
    (busy/switch seconds) and the trace itself go dark."""
    rng = random.Random("untraced")
    library, requests = _random_workload(rng)

    def run(drain_mode, record):
        return run_cluster(
            sn40l_platform, library, requests, num_nodes=4,
            policy="affinity", drain_mode=drain_mode,
            record_timeline=record,
        )

    fast, reference = run("columnar", False), run("reference", True)
    assert fast.timeline is None
    assert fast.events_run == reference.events_run
    assert fast.makespan_s == reference.makespan_s
    assert fast.tokens_per_second == reference.tokens_per_second
    # load_imbalance derives from per-node busy seconds, which are
    # timeline-derived — dark in the untraced run along with the trace.
    skip = {"nodes", "timeline", "load_imbalance"}
    fast_d = {k: v for k, v in fast.to_dict().items() if k not in skip}
    ref_d = {k: v for k, v in reference.to_dict().items() if k not in skip}
    assert fast_d == ref_d


@pytest.mark.parametrize("policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_engine_three_way_equivalence(policy, cache_policy, record):
    """reference == columnar, byte for byte.

    Reports, completion records, event counts, timelines, and the cache
    DecisionLog must all agree, traced and untraced, under every node
    policy (``overlap`` makes every group a decision point).
    """
    rng = random.Random(f"threeway:{policy}:{cache_policy}:{record}")
    library, requests = _random_workload(rng)
    max_batch = rng.randrange(1, 12)
    window = rng.randrange(1, 32)

    def run(mode):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy=policy,
            max_batch=max_batch, window=window,
            cache_policy=cache_policy, drain_mode=mode,
            record_timeline=record, decision_log=log,
        ).run(requests)
        return report, log

    reference, reference_log = run("reference")
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert report.completed == reference.completed
    assert report.events_run == reference.events_run
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    )
    assert log == reference_log, log.diff(reference_log)


@pytest.mark.parametrize("policy", ["least_loaded", "affinity", "steal"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_cluster_three_way_equivalence(policy, record):
    """Cluster-level reference == columnar identity, decision log
    included.

    ``steal`` drains to its horizon on the columnar core and hands the
    steal tail to the event path, so that axis pins the handoff; the
    others exercise the whole-queue columnar drain per node.
    """
    rng = random.Random(f"cluster3:{policy}:{record}")
    library, requests = _random_workload(rng)

    def run(mode):
        log = DecisionLog()
        report = ClusterEngine(
            sn40l_platform, library, num_nodes=3, policy=policy,
            online_replication=policy == "steal", drain_mode=mode,
            record_timeline=record, decision_log=log,
        ).serve(requests)
        return report, log

    reference, reference_log = run("reference")
    skip = {"nodes", "timeline", "load_imbalance"}
    report, log = run("columnar")
    if record:
        assert report.to_dict() == reference.to_dict()
        assert _timeline_lanes(report.timeline) == _timeline_lanes(
            reference.timeline
        )
    else:
        got = {k: v for k, v in report.to_dict().items() if k not in skip}
        want = {k: v for k, v in reference.to_dict().items()
                if k not in skip}
        assert got == want
    assert report.events_run == reference.events_run
    assert log == reference_log, log.diff(reference_log)


def _check_queue_index(cluster):
    """Each engine's queue index, where built, is a fresh count of its
    queue; returns how many engines had one."""
    built = 0
    for node in cluster.nodes:
        engine = node.engine
        if engine._queued is not None:
            assert engine._queued == Counter(
                group.expert.name for group in engine._queue)
            built += 1
    return built


def _cluster_pair(monkeypatch, library, requests, policy="steal",
                  clocks=None, indexed=None, reentered=None, **kwargs):
    """The same cluster run columnar and reference, each with its
    engine, report and DecisionLog; also returns the columnar run's
    per-node ``DrainStop`` records. ``clocks``, when given, collects
    the shared clock's time at each of those drains.

    Both runs check every engine's queue index around each steal hook
    and after ``serve``; ``indexed``, when given, collects the drain
    mode and clock time of each hook that found an index built, and
    ``reentered`` the clock time of each hook that replicated an
    expert and re-entered the columnar drain."""
    stops = []
    real = engine_module._columnar_drain
    real_idle = ClusterEngine._node_idle

    def spy(engine, cols, start_at, *horizon_args):
        if clocks is not None:
            clocks.append(engine._sim.now)
        stop = real(engine, cols, start_at, *horizon_args)
        stops.append(stop)
        return stop

    def idle_spy(cluster, node):
        built = _check_queue_index(cluster)
        replications, drains = cluster.replications, len(stops)
        real_idle(cluster, node)
        built += _check_queue_index(cluster)
        if indexed is not None and built:
            indexed.append((cluster.drain_mode, cluster.sim.now))
        if (reentered is not None and cluster.replications > replications
                and len(stops) > drains):
            reentered.append(cluster.sim.now)

    monkeypatch.setattr(engine_module, "_columnar_drain", spy)
    monkeypatch.setattr(ClusterEngine, "_node_idle", idle_spy)
    runs = {}
    for mode in DRAIN_MODES:
        log = DecisionLog()
        cluster = ClusterEngine(
            sn40l_platform, library, policy=policy, drain_mode=mode,
            decision_log=log, **kwargs,
        )
        runs[mode] = (cluster, cluster.serve(requests), log)
        _check_queue_index(cluster)
    return runs["columnar"], runs["reference"], stops


def _drained(stops):
    """Groups the columnar run completed before its horizon."""
    return sum(stop.begun - (stop.current is not None) for stop in stops)


def _assert_same_run(fast, reference):
    """Every observable of two cluster runs, lane order included."""
    (fast_cluster, fast_report, fast_log) = fast
    (ref_cluster, ref_report, ref_log) = reference
    assert fast_report.to_dict() == ref_report.to_dict()
    assert fast_report.events_run == ref_report.events_run
    assert fast_cluster.completed_requests() == \
        ref_cluster.completed_requests()
    assert fast_log == ref_log, fast_log.diff(ref_log)
    if ref_report.timeline is None:
        assert fast_report.timeline is None
        return
    # Stricter than _timeline_lanes: lane order is what cross-lane ties
    # in spans() and the Chrome trace's thread ids follow.
    assert fast_report.timeline.lanes == ref_report.timeline.lanes
    assert fast_report.timeline.spans() == ref_report.timeline.spans()
    assert to_chrome_events(fast_report.timeline) == \
        to_chrome_events(ref_report.timeline)


def _mixed_workload(rng):
    """Mixed expert sizes and request lengths: groups of very different
    durations, so steals fire while other nodes are mid-group."""
    library = build_heterogeneous_library(
        ((LLAMA2_7B, rng.randrange(8, 24)), (LLAMA2_13B, rng.randrange(2, 8)))
    )
    experts = library.experts
    alpha = rng.uniform(0.8, 1.4)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(experts))]
    requests = [
        EngineRequest(i, expert, output_tokens=rng.choice((4, 20, 200)))
        for i, expert in enumerate(
            rng.choices(experts, weights, k=rng.randrange(150, 400)))
    ]
    return library, requests


def _cluster_fuzz(monkeypatch, policy, node_policy, cache_policy, record):
    """One seeded cluster workload, columnar against reference; returns
    the columnar run's ``DrainStop`` records."""
    rng = random.Random(f"{policy}:{node_policy}:{cache_policy}:{record}")
    library, requests = _mixed_workload(rng)
    indexed, reentered = [], []
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, policy=policy, indexed=indexed,
        reentered=reentered,
        num_nodes=rng.randrange(2, 5), node_policy=node_policy,
        cache_policy=cache_policy, record_timeline=record,
        max_batch=rng.randrange(1, 12), window=rng.randrange(1, 32),
    )
    assert _drained(stops) > 0, "no group went through the columnar core"
    _assert_same_run(fast, reference)
    if policy == "steal":
        assert {mode for mode, _ in indexed} == set(DRAIN_MODES), \
            "a drain mode never checked a built queue index"
        assert reentered, "no replication re-entered the columnar drain"
    else:
        assert not reentered
    return stops


@pytest.mark.parametrize("node_policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf", "predictive"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_steal_horizon_drain_fuzz(monkeypatch, node_policy, cache_policy,
                                  record):
    """A ``steal`` cluster's t=0 horizon drain, its event-path tail and
    the drains each online replication re-enters are the reference run,
    across node and cache policies, traced and untraced, on 2-4 nodes
    with seeded workloads."""
    _cluster_fuzz(monkeypatch, "steal", node_policy, cache_policy, record)


@pytest.mark.parametrize("policy", ["least_loaded", "affinity"])
@pytest.mark.parametrize("node_policy", ["fifo", "affinity", "overlap"])
@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf", "predictive"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_hookless_cluster_drain_fuzz(monkeypatch, policy, node_policy,
                                     cache_policy, record):
    """The other cluster policies install no hook, so their t=0 drain
    has an infinite horizon: every node drains dry on the columnar core,
    and the run — lane order and Chrome thread ids included — is still
    the reference's."""
    stops = _cluster_fuzz(monkeypatch, policy, node_policy, cache_policy,
                          record)
    assert all(stop.current is None for stop in stops)


@pytest.mark.parametrize("policy", ["least_loaded", "affinity"])
def test_hookless_cluster_lane_order(monkeypatch, policy):
    """A traced 4-node cluster's drains create their lanes node by node;
    the t=0 drain puts them back in the order the reference's
    interleaved events created them."""
    library = build_samba_coe_library(32)
    requests = zipf_request_stream(library, 400, seed=11)
    fast, reference, _ = _cluster_pair(
        monkeypatch, library, requests, policy=policy, num_nodes=4,
    )
    nodes = [lane.split("/")[0] for lane in reference[1].timeline.lanes]
    changes = sum(a != b for a, b in zip(nodes, nodes[1:]))
    assert changes > len(set(nodes)) - 1, "lane creation never interleaved"
    _assert_same_run(fast, reference)


def test_steal_horizon_tie_across_nodes(monkeypatch):
    """Two nodes serving equal-shape groups tie at every instant: their
    last groups finish at the same float time, at or after the horizon,
    so the handed-off finishes and the lanes must fall back on dispatch
    order exactly as the reference's scheduling order does."""
    library = build_samba_coe_library(2)
    requests = [
        EngineRequest(request_id=i, expert=library.experts[i % 2])
        for i in range(96)
    ]
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, num_nodes=2,
    )
    ref_cluster = reference[0]
    last_finish = [
        max(c.finish_s for c in node.engine.completed)
        for node in ref_cluster.nodes
    ]
    assert last_finish[0] == last_finish[1], "the crafted tie did not occur"
    assert _drained(stops) > 0
    _assert_same_run(fast, reference)


def test_steal_horizon_before_a_copy_lands(monkeypatch):
    """A node holding one tiny group puts the horizon before the other
    node's first expert copy lands: that node's first group is handed
    off mid-copy, its deferred prefetch still due at its exec start."""
    library = build_samba_coe_library(2)
    tiny, busy = library.experts
    requests = [EngineRequest(0, tiny, prompt_tokens=1, output_tokens=1)]
    requests += [EngineRequest(i, busy) for i in range(1, 80)]
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, num_nodes=2, max_batch=4,
    )
    assert any(stop.prefetch_due for stop in stops)
    _assert_same_run(fast, reference)


def test_steal_while_a_handed_off_group_runs(monkeypatch):
    """One node's long first group is still running, handed off in
    flight, when another node runs dry: the victim ranking must see it
    busy, with its remaining time in its backlog estimate, and the
    drain the replication re-enters must hand it off again."""
    library = build_samba_coe_library(3)
    short, long_, deep = library.experts
    requests = [
        EngineRequest(0, short, output_tokens=4),
        EngineRequest(1, long_, output_tokens=4000),
        EngineRequest(2, short, output_tokens=4),
    ]
    requests += [EngineRequest(10 + i, long_, output_tokens=4)
                 for i in range(5)]
    requests += [EngineRequest(20 + i, deep, output_tokens=4)
                 for i in range(9)]
    reentered = []
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, num_nodes=3, max_batch=1,
        reentered=reentered,
    )
    assert any(stop.current is not None and stop.current[0].requests[0]
               .output_tokens == 4000 for stop in stops)
    assert reference[1].replications > 0 and reentered
    _assert_same_run(fast, reference)


def _fault_fuzz(monkeypatch, seed, policy, record):
    """One seeded cluster workload under a random fault schedule (at
    least one crash, maybe slow windows and copy faults), columnar
    against reference; returns whether a drain re-entered at a crash's
    recovery, and whether one re-entered after an online replication."""
    rng = random.Random(f"faults:{seed}:{policy}:{record}")
    library, requests = _mixed_workload(rng)
    num_nodes = rng.randrange(2, 5)
    kwargs = dict(
        policy=policy, num_nodes=num_nodes,
        node_policy=rng.choice(["fifo", "affinity", "overlap"]),
        cache_policy=rng.choice(["lru", "lfu", "gdsf", "predictive"]),
        max_batch=rng.randrange(1, 12), window=rng.randrange(1, 32),
    )
    clean = ClusterEngine(sn40l_platform, library, record_timeline=False,
                          **kwargs).serve(requests)
    faults = random_schedule(
        num_nodes, clean.makespan_s, seed=rng.randrange(1 << 30),
        crashes=rng.randrange(1, num_nodes), slow_nodes=rng.randrange(3),
        copy_faults=rng.randrange(3), slow_multiplier=rng.choice((1.5, 3.0)),
    )
    clocks, reentered = [], []
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, clocks=clocks, faults=faults,
        heartbeat_s=rng.choice((0.05, clean.makespan_s / 7)),
        record_timeline=record, reentered=reentered, **kwargs,
    )
    assert _drained(stops) > 0, "no group went through the columnar core"
    _assert_same_run(fast, reference)
    recovered = {n.detected_at for n in fast[0].nodes} - {None}
    return not recovered.isdisjoint(clocks), bool(reentered)


@pytest.mark.parametrize("policy", ["steal", "least_loaded", "affinity"])
@pytest.mark.parametrize("record", [True, False], ids=["traced", "untraced"])
def test_fault_schedule_drain_fuzz(monkeypatch, policy, record):
    """Crashes, slow windows and copy faults on the columnar core: the
    t=0 drain stops at the first cluster event, and each recovery, slow
    window edge and copy fault drains the alive nodes again, as does
    each online replication under ``steal``. Every observable is the
    reference run's, and recoveries (and replications) re-enter."""
    recovered, replicated = zip(*(
        _fault_fuzz(monkeypatch, seed, policy, record) for seed in range(4)))
    assert any(recovered), "no drain re-entered after a recovery"
    assert any(replicated) == (policy == "steal"), \
        "a steal cluster's replications never re-entered the drain"


def _fault_pair(monkeypatch, faults, **kwargs):
    """The 4-node ``steal`` cluster of ``test_every_fault_kind_at_t0``,
    columnar against reference, with the drains' clock times."""
    library = build_samba_coe_library(32)
    requests = zipf_request_stream(library, 300, seed=5)
    clocks = []
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, num_nodes=4, faults=faults,
        clocks=clocks, **kwargs,
    )
    _assert_same_run(fast, reference)
    return fast, reference, stops, clocks


def test_queue_index_across_a_recovery(monkeypatch):
    """Node 1 crashes after the steal tail has built the queue indexes;
    its recovery re-dispatches onto the survivors and re-enters the
    drain, and the indexes stay fresh counts of their queues before the
    crash and after the re-entry, in both drain modes."""
    library = build_samba_coe_library(32)
    requests = zipf_request_stream(library, 300, seed=5)
    crash_at = 1.05
    clocks, indexed = [], []
    fast, reference, _ = _cluster_pair(
        monkeypatch, library, requests, num_nodes=4, clocks=clocks,
        indexed=indexed, faults=[f"crash:node1:{crash_at!r}"],
    )
    _assert_same_run(fast, reference)
    detected = fast[0].nodes[1].detected_at
    assert detected in clocks and fast[1].redispatched_groups > 0
    for mode in DRAIN_MODES:
        times = [time for checked, time in indexed if checked == mode]
        assert min(times) < crash_at < detected < max(times)


def test_recovery_drain_edits_each_survivors_queue_in_place(monkeypatch):
    """Node 1 crashes while every node has work queued; the drain its
    recovery re-enters reads each survivor's queue in place: the same
    object before and after, with its head moved past the groups the
    drain began."""
    library = build_samba_coe_library(32)
    requests = zipf_request_stream(library, 300, seed=5)
    cluster = ClusterEngine(sn40l_platform, library, num_nodes=4,
                            faults=["crash:node1:0.6"])
    real = cluster_module._drain_to_horizon
    drains = []

    def spy(engines, held=False):
        before = [(engine, engine.state.queue, engine.state.queue.head)
                  for engine in engines if not engine.halted]
        real(engines, held)
        drains.append((cluster.sim.now, [
            (engine.state.queue is queue, engine.state.queue.head - head)
            for engine, queue, head in before
        ]))

    monkeypatch.setattr(cluster_module, "_drain_to_horizon", spy)
    report = cluster.serve(requests)
    assert report.redispatched_groups > 0
    detected = cluster.nodes[1].detected_at
    survivors = [moves for now, moves in drains if now == detected]
    assert len(survivors) == 1 and len(survivors[0]) == 3
    for same, advanced in survivors[0]:
        assert same and advanced > 0


@pytest.mark.parametrize("fault", [
    "crash:node1:0.0", "slow:node1:0.0:0.3:2.0", "copyfail:node1:0.0:2",
])
@pytest.mark.parametrize("policy", ["steal", "least_loaded"])
def test_every_fault_kind_at_t0(monkeypatch, fault, policy):
    """A fault at t=0 runs before the t=0 drain. A crashed node's held
    begin is a no-op there, as on the reference path: the drain must
    skip the halted engine, not serve a group on the dead node."""
    fast, reference, stops, _ = _fault_pair(
        monkeypatch, [fault], policy=policy,
    )
    assert _drained(stops) > 0
    if fault.startswith("crash"):
        node = fast[0].nodes[1]
        assert node.crashed_at == 0.0 and not node.engine.completed


def test_slow_window_opens_and_closes_mid_run(monkeypatch):
    """Both edges of a straggler window re-enter the drain: groups begun
    inside it are stretched, those begun after it are not."""
    opens, closes = 0.4, 0.7
    fast, reference, stops, clocks = _fault_pair(
        monkeypatch, [f"slow:node0:{opens!r}:{closes - opens!r}:3.0"],
    )
    assert opens in clocks and closes in clocks
    assert max(c.finish_s for c in reference[0].completed_requests()) > closes


def test_crash_while_a_handed_off_group_runs(monkeypatch):
    """The t=0 drain stops at the crash, handing a long group off in
    flight; the crash cuts it short (a ``lost`` span) and recovery
    re-dispatches it, then drains the survivors again."""
    library = build_samba_coe_library(3)
    short, long_, deep = library.experts
    requests = [
        EngineRequest(0, short, output_tokens=4),
        EngineRequest(1, long_, output_tokens=4000),
        EngineRequest(2, short, output_tokens=4),
    ]
    requests += [EngineRequest(10 + i, long_, output_tokens=4)
                 for i in range(5)]
    requests += [EngineRequest(20 + i, deep, output_tokens=4)
                 for i in range(9)]
    kwargs = dict(num_nodes=3, max_batch=1)
    probe = ClusterEngine(sn40l_platform, library, **kwargs)
    probe.serve(requests)
    node, record = next(
        (i, c) for i, n in enumerate(probe.nodes)
        for c in n.engine.completed if c.output_tokens == 4000
    )
    crash_at = (record.start_s + record.finish_s) / 2
    clocks = []
    fast, reference, stops = _cluster_pair(
        monkeypatch, library, requests, clocks=clocks,
        faults=[f"crash:node{node}:{crash_at!r}"], **kwargs,
    )
    _assert_same_run(fast, reference)
    assert any(stop.current is not None and stop.current[0].requests[0]
               .output_tokens == 4000 for stop in stops)
    lost = reference[1].timeline.spans(f"node{node}/compute", "lost")
    assert [span.end_s for span in lost] == [crash_at]
    assert fast[0].nodes[node].detected_at in clocks


def test_randomized_drain_mode_fuzz():
    """Seeded fuzz over the drain-mode config space beyond the fixed grid."""
    rng = random.Random(20260809)
    for trial in range(6):
        policy = rng.choice(["fifo", "affinity", "overlap"])
        cache = rng.choice(["lru", "lfu", "gdsf", "predictive"])
        record = rng.random() < 0.5
        library, requests = _random_workload(rng)
        reports = {}
        for mode in DRAIN_MODES:
            reports[mode] = ServingEngine(
                sn40l_platform(), library, policy=policy, cache_policy=cache,
                drain_mode=mode, record_timeline=record,
            ).run(requests)
        key = (trial, policy, cache, record)
        fast, reference = reports["columnar"], reports["reference"]
        assert fast.to_dict() == reference.to_dict(), key
        assert fast.completed == reference.completed, key
        assert _timeline_lanes(fast.timeline) == _timeline_lanes(
            reference.timeline
        ), key


def _tier_caps(library, hbm_frac=0.5, ddr_frac=0.75):
    """Constrained-memory capacities as fractions of the working set."""
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(hbm_frac * working_set), biggest)
    return {"hbm": hbm, "ddr": max(int(ddr_frac * working_set), hbm)}


@pytest.mark.parametrize("cache_policy", ["lru", "lfu", "gdsf"])
def test_engine_three_way_equivalence_tiered(cache_policy):
    """The reference == columnar identity holds with the full memory
    hierarchy on: a 3-tier capacity ladder (NVMe promotions in play) and
    the expert-reorder admission scheduler."""
    rng = random.Random(f"tiered:{cache_policy}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library)

    def run(mode):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy="affinity",
            cache_policy=cache_policy, drain_mode=mode,
            scheduler="expert_reorder", tier_capacities=caps,
            decision_log=log,
        ).run(requests)
        return report, log

    reference, reference_log = run("reference")
    assert reference.scheduler == "expert_reorder"
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert report.completed == reference.completed
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    )
    assert log == reference_log, log.diff(reference_log)


@pytest.mark.parametrize("cache_policy", ["gdsf", "lookahead"])
def test_engine_three_way_equivalence_pipelined(cache_policy):
    """The reference == columnar identity holds with pipelined NVMe->DDR
    promotions on, traced (promotions happen at run boundaries), and
    with the lookahead policy (its backlog window is the queue from its
    head)."""
    rng = random.Random(f"pipelined:{cache_policy}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library, hbm_frac=0.4, ddr_frac=0.55)

    def run(mode):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy="affinity",
            cache_policy=cache_policy, drain_mode=mode,
            scheduler="expert_reorder", tier_capacities=caps,
            decision_log=log, pipeline_promotions=True,
        ).run(requests)
        return report, log

    reference, reference_log = run("reference")
    assert reference.pipelined_promotions > 0
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert report.completed == reference.completed
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    )
    assert log == reference_log, log.diff(reference_log)


@pytest.mark.parametrize("horizon", [3, 8])
@pytest.mark.parametrize("seed", range(4))
def test_lookahead_window_at_run_ends(seed, horizon):
    """A short lookahead horizon makes every entry of the window count:
    a pipelined promotion at a run's end ranks its DDR victims from the
    group after the run, as the reference path's begin sees it, so the
    drain moves the queue's head past the run first."""
    rng = random.Random(f"pipelined-horizon:{horizon}:{seed}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library, hbm_frac=0.4, ddr_frac=0.55)

    def run(mode):
        log = DecisionLog()
        report = ServingEngine(
            sn40l_platform(), library, policy="affinity",
            cache_policy=lambda: LookaheadPolicy(horizon=horizon),
            drain_mode=mode, scheduler="expert_reorder",
            tier_capacities=caps, decision_log=log,
            pipeline_promotions=True,
        ).run(requests)
        return report, log

    reference, reference_log = run("reference")
    assert reference.pipelined_promotions > 0
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert log == reference_log, log.diff(reference_log)


@pytest.mark.parametrize("policy", ["least_loaded", "affinity", "steal"])
def test_cluster_three_way_equivalence_tiered(policy):
    rng = random.Random(f"cluster-tiered:{policy}")
    library, requests = _random_workload(rng)
    caps = _tier_caps(library)

    def run(mode):
        log = DecisionLog()
        report = ClusterEngine(
            sn40l_platform, library, num_nodes=3, policy=policy,
            drain_mode=mode, scheduler="expert_reorder",
            tier_capacities=caps, decision_log=log,
        ).serve(requests)
        return report, log

    reference, reference_log = run("reference")
    assert reference.scheduler == "expert_reorder"
    report, log = run("columnar")
    assert report.to_dict() == reference.to_dict()
    assert report.events_run == reference.events_run
    assert _timeline_lanes(report.timeline) == _timeline_lanes(
        reference.timeline
    )
    assert log == reference_log, log.diff(reference_log)


def test_randomized_tiered_drain_fuzz():
    """Seeded fuzz with the hierarchy and scheduler axes in the mix."""
    rng = random.Random(20260810)
    for trial in range(4):
        cache = rng.choice(["lru", "lfu", "gdsf"])
        scheduler = rng.choice(["fifo", "expert_reorder"])
        library, requests = _random_workload(rng)
        caps = _tier_caps(library, hbm_frac=rng.uniform(0.2, 0.8),
                          ddr_frac=rng.uniform(0.8, 1.2))
        reports = {}
        for mode in DRAIN_MODES:
            reports[mode] = ServingEngine(
                sn40l_platform(), library, policy="affinity",
                cache_policy=cache, drain_mode=mode, scheduler=scheduler,
                tier_capacities=caps,
            ).run(requests)
        key = (trial, cache, scheduler)
        fast, reference = reports["columnar"], reports["reference"]
        assert fast.to_dict() == reference.to_dict(), key
        assert fast.completed == reference.completed, key


def test_sim_live_cross_check_with_hierarchy_and_scheduler():
    """The sim/live decision cross-check holds with the whole PR on:
    3-tier capacities, NVMe promotions, and expert reordering."""
    from repro.coe.api import ServeConfig
    from repro.coe.crosscheck import cross_check
    from repro.load import ArrivalSpec, generate_trace

    library = build_samba_coe_library(16)
    spec = ArrivalSpec(rate_rps=40.0, duration_s=2.0, zipf_alpha=1.1, seed=11)
    requests = generate_trace(spec, library).to_requests(library)
    config = ServeConfig(
        policy="affinity", cluster_policy="least_loaded", mode="live",
        num_nodes=2, scheduler="expert_reorder",
        tier_capacities=_tier_caps(library),
    )
    result = cross_check(sn40l_platform, library, requests, config)
    assert result.match, result.mismatch
    assert result.decisions > 0


def test_randomized_seeds_sweep():
    """A seeded fuzz over the config space beyond the fixed grid."""
    rng = random.Random(20260808)
    for trial in range(6):
        policy = rng.choice(["fifo", "affinity", "overlap"])
        cache = rng.choice(["lru", "lfu", "gdsf", "predictive"])
        library, requests = _random_workload(rng)
        fast = ServingEngine(
            sn40l_platform(), library, policy=policy, cache_policy=cache,
            drain_mode="columnar",
        ).run(requests)
        reference = ServingEngine(
            sn40l_platform(), library, policy=policy, cache_policy=cache,
            drain_mode="reference",
        ).run(requests)
        assert fast.to_dict() == reference.to_dict(), (trial, policy, cache)
        assert fast.completed == reference.completed, (trial, policy, cache)
        assert _timeline_lanes(fast.timeline) == _timeline_lanes(
            reference.timeline
        ), (trial, policy, cache)
