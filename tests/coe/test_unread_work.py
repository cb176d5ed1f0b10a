"""Serving does no per-request work that nothing reads.

A node keeps and feeds an expert predictor only where a policy reads
it, admission takes each group's expert from the grouping's per-code
table (one profile per expert name, the first seen), requests carry no
instance dict, and the report's offered-token total comes from the
grouping rather than from another pass over the requests.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.coe.api import ServeConfig
from repro.coe.cache import CACHE_POLICIES, PredictivePolicy
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.columnar import admit_backlog, group_backlog
from repro.coe.engine import (
    EngineRequest, ServingEngine, zipf_request_stream,
)
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import LiveEngine
from repro.coe.node import NodeState
from repro.coe.policies import NodePolicy
from repro.coe.scheduling import ExpertPredictor
from repro.systems.platforms import sn40l_platform


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(12)


def _stream(library, n=96, seed=5):
    """A Zipf stream whose requests differ in output length."""
    return [
        dataclasses.replace(r, output_tokens=3 + i % 11)
        for i, r in enumerate(zipf_request_stream(library, n, seed=seed))
    ]


class TestPredictorOnlyWhereRead:
    @pytest.mark.parametrize("cache", CACHE_POLICIES)
    @pytest.mark.parametrize("policy", NodePolicy.values())
    def test_matrix(self, library, policy, cache):
        engine = ServingEngine(sn40l_platform(), library, policy=policy,
                               cache_policy=cache)
        predictor = engine.state.predictor
        runtime_policy = engine.server.runtime.policy
        if policy == "overlap" or cache == "predictive":
            assert isinstance(predictor, ExpertPredictor)
        else:
            assert predictor is None
        if cache == "predictive":
            assert runtime_policy.predictor is predictor

    def test_predictive_policy_with_its_own_predictor(self, library):
        own = ExpertPredictor()
        engine = ServingEngine(sn40l_platform(), library, policy="fifo",
                               cache_policy=PredictivePolicy(own))
        assert engine.state.predictor is None
        assert engine.server.runtime.policy.predictor is own

    def test_node_state_defaults_to_no_predictor(self, library):
        assert NodeState(sn40l_platform(), library).predictor is None

    @pytest.mark.parametrize("cache", ["lru", "predictive"])
    def test_live_nodes(self, library, cache):
        engine = LiveEngine(
            sn40l_platform(), library,
            ServeConfig(mode="live", policy="fifo", num_nodes=2,
                        cluster_policy="least_loaded", cache_policy=cache),
        )
        for node in engine.nodes:
            assert (node.state.predictor is None) == (cache == "lru")


class TestPredictorSpy:
    @pytest.fixture
    def observed(self, monkeypatch):
        calls = []
        observe, observe_run = (ExpertPredictor.observe,
                                ExpertPredictor.observe_run)

        def spy_observe(self, expert):
            calls.append(1)
            return observe(self, expert)

        def spy_observe_run(self, experts):
            calls.append(len(experts))
            return observe_run(self, experts)

        monkeypatch.setattr(ExpertPredictor, "observe", spy_observe)
        monkeypatch.setattr(ExpertPredictor, "observe_run", spy_observe_run)
        return calls

    @pytest.mark.parametrize("policy,cache", [("fifo", "lru"),
                                              ("affinity", "lookahead")])
    def test_unread_predictor_is_never_fed(self, library, observed, policy,
                                           cache):
        report = ServingEngine(sn40l_platform(), library, policy=policy,
                               cache_policy=cache).run(_stream(library))
        assert report.completed_requests == report.requests
        assert observed == []

    def test_overlap_still_feeds_its_predictor(self, library, observed):
        report = ServingEngine(sn40l_platform(), library,
                               policy="overlap").run(_stream(library))
        assert sum(observed) == report.groups


class TestGroupExperts:
    def test_admitted_groups_share_the_library_profiles(self, library):
        by_name = {e.name: e for e in library.experts}
        requests = _stream(library)
        engine = ServingEngine(sn40l_platform(), library, policy="affinity")
        backlog = group_backlog(requests, engine.scheduler, engine.policy,
                                engine.window, engine.max_batch)
        # Two admissions: the first builds the queue's columns, the
        # second extends them.
        half = len(backlog.starts) // 2
        admit_backlog([engine], backlog, 0, half)
        admit_backlog([engine], backlog, half)
        queue = engine.state.queue
        assert len(queue) == len(backlog.starts)
        for i, (name, expert) in enumerate(zip(queue.names, queue.experts)):
            assert expert is by_name[name]
            assert queue.group(i).expert is by_name[name]

    def test_cluster_groups_share_the_library_profiles(self, library,
                                                       monkeypatch):
        by_name = {e.name: e for e in library.experts}
        seen = []
        begin = NodeState.begin

        def spy(state, group, next_expert, now):
            seen.append(group.expert is by_name[group.expert.name])
            return begin(state, group, next_expert, now)

        monkeypatch.setattr(NodeState, "begin", spy)
        ClusterEngine(sn40l_platform, library, 3, policy="least_loaded",
                      node_policy="fifo", drain_mode="reference",
                      record_timeline=False).serve(_stream(library))
        assert seen and all(seen)

    def test_same_name_profiles_take_the_first_seen(self, library):
        first = library.experts[0]
        other = dataclasses.replace(first)
        assert other == first and other is not first
        second = library.experts[1]
        carried = [other, first, second, other, first]
        requests = [EngineRequest(i, e) for i, e in enumerate(carried)]
        engine = ServingEngine(sn40l_platform(), library, policy="fifo",
                               max_batch=1)
        backlog = group_backlog(requests, engine.scheduler, engine.policy,
                                engine.window, engine.max_batch)
        assert backlog.names == [first.name, second.name]
        assert backlog.experts[0] is other
        assert backlog.experts[1] is second
        admit_backlog([engine], backlog)
        queue = engine.state.queue
        # Every group of the name carries the trace's first profile, its
        # own head request's (``first``, at rows 1 and 4) or not.
        assert [e is other for e in queue.experts] == [
            True, True, False, True, True]
        assert [queue.group(i).expert for i in range(5)] == [
            other, other, second, other, other]


class TestSlottedRequests:
    def test_no_instance_dict(self):
        assert "__slots__" in vars(EngineRequest)
        assert not hasattr(EngineRequest(0, None), "__dict__")

    def test_round_trips(self, library):
        request = EngineRequest(7, library.experts[2], prompt_tokens=64,
                                output_tokens=9, arrival_s=0.5, priority=2)
        for clone in (pickle.loads(pickle.dumps(request)),
                      copy.deepcopy(request),
                      dataclasses.replace(request)):
            assert clone == request
            assert hash(clone) == hash(request)
        moved = dataclasses.replace(request, output_tokens=10)
        assert moved.output_tokens == 10 and moved.request_id == 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.output_tokens = 1


class TestOfferedTokens:
    def test_serving_engine(self, library):
        requests = _stream(library)
        report = ServingEngine(sn40l_platform(), library,
                               policy="affinity").run(requests)
        assert report.output_tokens == sum(r.output_tokens for r in requests)

    def test_cluster_that_sheds(self, library):
        requests = _stream(library, n=160)
        report = ClusterEngine(sn40l_platform, library, 2,
                               deadline_s=0.02).serve(requests)
        assert report.rejected > 0
        assert report.output_tokens == sum(r.output_tokens for r in requests)

    def test_live(self, library):
        requests = _stream(library, n=24)
        report = LiveEngine(
            sn40l_platform(), library,
            ServeConfig(mode="live", policy="fifo",
                        cluster_policy="least_loaded", time_scale=0.001),
        ).serve(requests)
        assert report.completed_requests == len(requests)
        assert report.output_tokens == sum(r.output_tokens for r in requests)
