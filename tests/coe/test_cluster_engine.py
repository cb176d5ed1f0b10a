"""The cluster serving engine: shared-clock dispatch, stealing, replication."""

import dataclasses
import json
import random

import pytest

from repro.coe.cluster_engine import (
    ClusterEngine,
    cluster_lanes,
    run_cluster,
)
from repro.coe.engine import (
    EngineRequest,
    ServingEngine,
    _tie_key,
    zipf_request_stream,
)
from repro.coe.expert import ExpertProfile, build_samba_coe_library
from repro.coe.policies import ClusterPolicy
from repro.coe.scheduling import coalesce_groups
from repro.systems.platforms import sn40l_platform
from tests.coe.grouping import node_order


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(32)


@pytest.fixture(scope="module")
def stream(library):
    return zipf_request_stream(library, 96, alpha=1.1, seed=7)


@pytest.fixture(scope="module")
def steal_report(library, stream):
    return run_cluster(
        sn40l_platform, library, stream, num_nodes=4, policy="steal"
    )


class TestConstruction:
    def test_rejects_unknown_policy(self, library):
        with pytest.raises(ValueError, match="unknown ClusterPolicy"):
            ClusterEngine(sn40l_platform, library, 2, policy="random")

    def test_rejects_bad_node_count(self, library):
        # A bool or a non-integral count is a typo, not a node count.
        for bad in (0, 2.5, "2", True):
            with pytest.raises(ValueError, match="num_nodes"):
                ClusterEngine(sn40l_platform, library, bad)

    @pytest.mark.parametrize("kwargs, match", [
        ({"deadline_s": float("nan")}, "deadline_s"),
        ({"heartbeat_s": float("nan")}, "heartbeat_s"),
        ({"heartbeat_s": float("inf")}, "heartbeat_s"),
        ({"max_batch": 0}, "max_batch"),
        ({"max_batch": -1}, "max_batch"),
        ({"max_batch": True}, "max_batch"),
        ({"max_batch": 2.5}, "max_batch"),
        ({"window": True}, "window"),
    ])
    def test_rejects_non_finite_and_empty_limits(self, library, kwargs,
                                                 match):
        with pytest.raises(ValueError, match=match):
            ClusterEngine(sn40l_platform, library, 2, **kwargs)

    def test_rejects_empty_backlog(self, library):
        engine = ClusterEngine(sn40l_platform, library, 2)
        with pytest.raises(ValueError, match="empty"):
            engine.serve([])

    def test_rejects_an_expert_no_node_hosts(self, library):
        engine = ClusterEngine(sn40l_platform, library, 2)
        ghost = ExpertProfile("ghost", "chat")
        with pytest.raises(KeyError, match="no node hosts expert 'ghost'"):
            engine.serve([EngineRequest(0, ghost)])

    def test_empty_shards_dropped_names_dense(self):
        small = build_samba_coe_library(3)
        engine = ClusterEngine(sn40l_platform, small, 3)
        assert [n.name for n in engine.nodes] == ["node0", "node1", "node2"]
        # More nodes than experts: the empty shards are dropped, the
        # names stay dense, and every owner index is a live node.
        with pytest.warns(UserWarning, match="exceeds the library size"):
            engine = ClusterEngine(sn40l_platform, small, 6)
        assert engine.num_nodes == 3
        assert [n.name for n in engine.nodes] == ["node0", "node1", "node2"]
        for expert in small.experts:
            (owner,) = engine._owners[expert.name]
            assert 0 <= owner < engine.num_nodes

    def test_nodes_share_one_simulator(self, library):
        engine = ClusterEngine(sn40l_platform, library, 4)
        assert all(n.engine._sim is engine.sim for n in engine.nodes)
        assert {n.engine.lane_prefix for n in engine.nodes} == {
            "node0/", "node1/", "node2/", "node3/",
        }


class TestCompletion:
    def test_every_request_completes_exactly_once(self, library, stream):
        for policy in ClusterPolicy.values():
            report = run_cluster(
                sn40l_platform, library, stream, num_nodes=4, policy=policy
            )
            assert report.requests == len(stream)
            engine = ClusterEngine(sn40l_platform, library, 4, policy=policy)
            engine.serve(stream)
            ids = [c.request_id for c in engine.completed_requests()]
            assert sorted(ids) == sorted(r.request_id for r in stream)

    def test_single_node_matches_standalone_engine(self, library, stream):
        cluster = run_cluster(
            sn40l_platform, library, stream, num_nodes=1, policy="steal"
        )
        standalone = ServingEngine(
            sn40l_platform(), library, policy="overlap"
        ).run(stream)
        assert cluster.makespan_s == pytest.approx(standalone.makespan_s)
        assert cluster.output_tokens == standalone.output_tokens

    def test_makespan_covers_every_span(self, steal_report):
        last = max(s.end_s for s in steal_report.timeline.spans())
        assert steal_report.makespan_s == pytest.approx(last)


class TestTimelineLanes:
    def test_per_node_lanes_recorded(self, steal_report):
        lanes = set(steal_report.timeline.lanes)
        for idx in range(4):
            assert f"node{idx}/compute" in lanes
        assert lanes <= set(cluster_lanes(4))

    def test_cross_node_compute_overlap(self, steal_report):
        """Nodes genuinely run concurrently on the shared clock."""
        tl = steal_report.timeline
        assert tl.overlap_s("node0/compute", "node1/compute") > 0

    def test_tokens_per_second_is_sum_of_node_rates(self, steal_report):
        """Cluster throughput must equal the sum of per-node rates derived
        from the same timeline — the report cannot drift from the trace."""
        assert steal_report.tokens_per_second == pytest.approx(
            sum(n.tokens_per_second for n in steal_report.nodes)
        )
        assert steal_report.output_tokens == sum(
            n.output_tokens for n in steal_report.nodes
        )

    def test_node_stats_derive_from_timeline(self, steal_report):
        tl = steal_report.timeline
        for node in steal_report.nodes:
            assert node.busy_s == pytest.approx(
                tl.busy_s(f"{node.name}/compute")
            )
            assert node.switch_s == pytest.approx(
                tl.busy_s(f"{node.name}/switch")
            )


class TestStealingAndReplication:
    def test_skewed_traffic_triggers_steals_and_replication(self, steal_report):
        assert steal_report.steals > 0
        assert steal_report.replications > 0
        assert sum(n.steals_in for n in steal_report.nodes) == steal_report.steals
        assert (sum(n.replicas_hosted for n in steal_report.nodes)
                == steal_report.replications)

    def test_replication_disabled_means_none(self, library, stream):
        report = run_cluster(
            sn40l_platform, library, stream, num_nodes=4,
            policy="steal", online_replication=False,
        )
        assert report.replications == 0

    def test_replication_pays_copy_on_receiving_node(self, library, stream):
        """A replica's DDR->HBM copy lands as a switch span on the node
        that received it — replication is never free."""
        engine = ClusterEngine(sn40l_platform, library, 4, policy="steal")
        report = engine.serve(stream)
        receivers = [n for n in engine.nodes if n.replicas_hosted > 0]
        assert receivers
        for node in receivers:
            assert report.timeline.busy_s(f"{node.name}/switch") > 0

    def test_stealing_beats_least_loaded_on_imbalance(self, library, stream):
        static = run_cluster(
            sn40l_platform, library, stream, num_nodes=4,
            policy="least_loaded",
        )
        stealing = run_cluster(
            sn40l_platform, library, stream, num_nodes=4, policy="steal"
        )
        assert stealing.load_imbalance <= static.load_imbalance
        assert stealing.makespan_s <= static.makespan_s

    def test_deterministic_across_runs(self, library, stream):
        a = run_cluster(sn40l_platform, library, stream, num_nodes=4)
        b = run_cluster(sn40l_platform, library, stream, num_nodes=4)
        assert a.makespan_s == b.makespan_s
        assert a.steals == b.steals
        assert a.replications == b.replications


class TestHorizonTieOrder:
    """``_tie_key`` orders a t=0 drain's handed-off events and drained
    lanes as the simulator's scheduling order would: ``times`` is a
    node's drained begin/finish chain, ``parent`` the index of the event
    that scheduled the one keyed."""

    def test_earlier_parent_wins_a_tie(self):
        late_parent = _tie_key([0.0, 1.5], 0, 2.0, 1, 1)
        early_parent = _tie_key([0.0, 1.0], 1, 2.0, 1, 1)
        assert early_parent < late_parent

    def test_equal_parents_defer_to_grandparents(self):
        assert (_tie_key([0.0, 0.5, 1.0], 1, 2.0, 2, 1)
                < _tie_key([0.0, 0.7, 1.0], 0, 2.0, 2, 1))

    def test_admission_root_precedes_run_scheduled_event(self):
        root = _tie_key([], 1, 0.0, -1, 1)
        scheduled_at_zero = _tie_key([0.0], 0, 0.0, 0, 1)
        assert root < scheduled_at_zero

    def test_equal_chains_keep_dispatch_order(self):
        assert (_tie_key([0.0, 1.0], 0, 2.0, 1, 1)
                < _tie_key([0.0, 1.0], 1, 2.0, 1, 1))

    def test_begin_schedules_prefetch_before_finish(self):
        assert _tie_key([0.0], 0, 1.0, 0, 0) < _tie_key([0.0], 0, 1.0, 0, 1)


class TestAdmissionPhaseMemo:
    def test_each_node_memo_holds_exactly_its_admitted_shapes(self, library):
        """Admission seeds every node's phase memo from the distinct
        shapes it hosts; a missing shape would fall back to scalar cost
        calls, an extra one would be wasted cost math. ``least_loaded``
        never replicates, so no shape can arrive after admission."""
        rng = random.Random(3)
        requests = [
            dataclasses.replace(
                r,
                prompt_tokens=rng.choice((128, 256)),
                output_tokens=rng.choice((10, 20)),
            )
            for r in zipf_request_stream(library, 400, seed=3)
        ]
        cluster = ClusterEngine(
            sn40l_platform, library, 4, policy="least_loaded",
            node_policy="affinity",
        )
        seeded = {}
        for node in cluster.nodes:
            engine = node.engine

            def precompute(groups, inner=engine.precompute_phases,
                           engine=engine):
                computed = inner(groups)
                seeded[engine] = set(engine.state.phase_cache)
                return computed

            engine.precompute_phases = precompute
        report = cluster.serve(requests)
        assert report.replications == 0 and report.steals == 0
        # The groups admission forms, as the per-group path forms them.
        admitted = coalesce_groups(
            node_order(requests, "affinity", cluster.window),
            cluster.max_batch,
        )
        assert report.groups == len(admitted)
        for node in cluster.nodes:
            hosted = {g.phase_key for g in admitted
                      if g.expert.name in node.hosted}
            assert len(hosted) > 1
            # Seeded at admission, and nothing added since.
            assert seeded[node.engine] == hosted
            assert set(node.engine.state.phase_cache) == hosted


class TestAffinityPolicy:
    @pytest.mark.parametrize("faults", [(), ("crash:node1:0.5",)])
    def test_affinity_routes_as_least_loaded(self, faults):
        """Every expert has one owner unless ``steal`` replicates it, so
        the queue-tail rule never has a choice to make: ``affinity`` and
        ``least_loaded`` runs differ only in their policy label, a
        crash's re-dispatch and promotions included."""
        library = build_samba_coe_library(48)
        requests = zipf_request_stream(library, 3_000, seed=7)
        affinity, least_loaded = (
            run_cluster(sn40l_platform, library, requests, num_nodes=4,
                        policy=policy, faults=faults)
            for policy in ("affinity", "least_loaded")
        )
        if faults:
            assert affinity.redispatched_groups > 0
        assert affinity.cluster_policy == "affinity"
        assert dataclasses.replace(
            affinity, cluster_policy="least_loaded"
        ) == least_loaded
        assert affinity.completed == least_loaded.completed


class TestReporting:
    def test_to_dict_json_round_trip(self, steal_report):
        payload = json.loads(json.dumps(steal_report.to_dict()))
        assert payload["num_nodes"] == 4
        assert payload["requests"] == steal_report.requests
        assert len(payload["nodes"]) == 4
        assert payload["tokens_per_second"] == pytest.approx(
            steal_report.tokens_per_second
        )

    def test_cluster_lanes_order(self):
        assert cluster_lanes(2) == [
            "node0/compute", "node0/switch", "node0/prefetch", "node0/faults",
            "node1/compute", "node1/switch", "node1/prefetch", "node1/faults",
        ]
