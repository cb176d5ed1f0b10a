"""The correctness artifact: sim and live decide byte-identically."""

import dataclasses

import pytest

from repro.coe.api import ServeConfig, build_server
from repro.coe.crosscheck import CHECK_TIME_SCALE, CrossCheckResult, cross_check
from repro.coe.decisions import DecisionLog
from repro.coe.engine import EngineRequest
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import LiveEngine
from repro.coe.report import ServeReport
from repro.load import ArrivalSpec, generate_trace
from repro.systems.platforms import sn40l_platform


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(12)


@pytest.fixture(scope="module")
def requests(library):
    # A realistic open-loop trace: Zipf-skewed Poisson arrivals.
    spec = ArrivalSpec(rate_rps=40.0, duration_s=4.0, zipf_alpha=1.1, seed=7)
    return generate_trace(spec, library).to_requests(library)


class TestDecisionParity:
    @pytest.mark.parametrize("config_kwargs", [
        # Single node, each cache policy the live engine supports.
        dict(policy="affinity", num_nodes=1, cache_policy="lru"),
        dict(policy="affinity", num_nodes=1, cache_policy="gdsf"),
        dict(policy="fifo", num_nodes=1, cache_policy="predictive"),
        # Cluster dispatch, both live-legal cluster policies.
        dict(policy="affinity", num_nodes=4, cluster_policy="least_loaded"),
        dict(policy="affinity", num_nodes=4, cluster_policy="affinity",
             cache_policy="gdsf"),
        # Deadline admission in the loop (admit/shed ETA records).
        dict(policy="affinity", num_nodes=2, cluster_policy="least_loaded",
             cache_policy="predictive", deadline_s=0.5),
    ], ids=["lru", "gdsf", "fifo-predictive", "least-loaded-4",
            "affinity-4", "deadline-2"])
    def test_identical_decisions(self, library, requests, config_kwargs):
        config = ServeConfig(mode="live", **config_kwargs)
        result = cross_check(sn40l_platform, library, requests, config)
        assert result.match, result.mismatch
        assert result.mismatch is None
        assert result.decisions > 0
        assert result.sim_log == result.live_log
        # Cache streams exist per node; admission only for clusters.
        nodes = config_kwargs.get("num_nodes", 1)
        expected = {f"node{i}" for i in range(nodes)}
        if nodes > 1:
            expected.add("admission")
        assert set(result.streams) <= expected
        assert any(s.startswith("node") for s in result.streams)
        # One report type on both clocks, agreeing on the work done.
        sim, live = result.sim_report, result.live_report
        assert isinstance(sim, ServeReport) and isinstance(live, ServeReport)
        assert set(sim.to_dict()) == set(live.to_dict())
        for name in ("requests", "completed_requests", "groups",
                     "output_tokens"):
            assert getattr(sim, name) == getattr(live, name), name
        assert ([(n.requests, n.groups) for n in sim.nodes]
                == [(n.requests, n.groups) for n in live.nodes])

    def test_lookahead_pipelined_tiered_parity(self, library, requests):
        # The CoServe scenario end to end: constrained HBM/DDR budgets,
        # reordered backlog, lookahead eviction and pipelined NVMe->DDR
        # promotions — both backends must still decide byte-identically
        # (promotions are prefetcher traffic, never decision records).
        working_set = sum(e.weight_bytes for e in library.experts)
        biggest = max(e.weight_bytes for e in library.experts)
        hbm = max(int(0.5 * working_set), biggest)
        config = ServeConfig(
            policy="fifo", num_nodes=1,
            cache_policy="lookahead", scheduler="expert_reorder",
            tier_capacities={
                "hbm": hbm, "ddr": max(int(0.35 * working_set), hbm),
            },
            pipeline_promotions=True,
        )
        result = cross_check(sn40l_platform, library, requests, config)
        assert result.match, result.mismatch
        assert result.decisions > 0
        # Both backends actually ran the pipelined path, identically.
        assert result.sim_report.pipelined_promotions > 0
        assert (result.live_report.pipelined_promotions
                == result.sim_report.pipelined_promotions)

    def test_default_config_is_live_valid(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:40])
        assert result.match, result.mismatch

    def test_sim_config_derives_its_live_twin(self, library, requests):
        # The caller may hand over a sim-mode config; the check derives
        # the live twin itself — one config, two clocks.
        config = ServeConfig(policy="affinity", cluster_policy="affinity",
                             num_nodes=3)
        result = cross_check(sn40l_platform, library, requests[:60], config)
        assert result.match, result.mismatch
        assert "admission" in result.streams

    def test_reports_come_back_from_both_backends(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:30])
        assert isinstance(result, CrossCheckResult)
        assert result.live_report.completed_requests > 0
        assert result.sim_report is not None
        # The check pins max_queue above the backlog: nothing sheds.
        assert result.live_report.shed_backpressure == 0

    def test_to_dict_is_compact(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:20])
        payload = result.to_dict()
        assert payload["match"] is True
        assert payload["decisions"] == result.decisions
        assert "sim_log" not in payload  # logs stay out of JSON summaries


class TestWriterParity:
    """Both clocks end a group through ``NodeState.finish``: the same
    compute spans and completion records per node, not just the same
    decisions."""

    @pytest.mark.parametrize("at_t0", [True, False], ids=["t0", "spread"])
    def test_spans_and_completions_match_per_node(
        self, library, requests, at_t0
    ):
        if at_t0:
            requests = [dataclasses.replace(r, arrival_s=0.0)
                        for r in requests]
        config = ServeConfig(policy="affinity", num_nodes=2,
                             cluster_policy="least_loaded")
        sim = build_server(sn40l_platform, library, config)
        sim_report = sim.serve(requests)
        live = LiveEngine(sn40l_platform, library, config.with_(
            mode="live", max_queue=len(requests) + 1,
            time_scale=CHECK_TIME_SCALE,
        ))
        live_report = live.serve(requests)
        assert live_report.completed_requests == len(requests)
        for index, (sim_node, live_node) in enumerate(
                zip(sim.nodes, live.nodes)):
            lane = f"node{index}/compute"
            sim_spans = sim_report.timeline.spans(lane)
            assert sim_spans
            assert ([(s.name, s.category, s.args)
                     for s in live_report.timeline.spans(lane)]
                    == [(s.name, s.category, s.args) for s in sim_spans])
            sim_done = list(sim_node.engine.completed)
            assert sim_done
            assert ([(c.request_id, c.expert, c.batch, c.arrival_s,
                      c.output_tokens) for c in live_node.state.completed]
                    == [(c.request_id, c.expert, c.batch, c.arrival_s,
                         c.output_tokens) for c in sim_done])
            assert live_node.state.groups_done == sim_node.engine.groups_done


class TestPreconditions:
    def test_mixed_priorities_rejected(self, library):
        expert = library.experts[0]
        reqs = [
            EngineRequest(0, expert, priority=0),
            EngineRequest(1, expert, priority=1, arrival_s=1.0),
        ]
        with pytest.raises(ValueError, match="uniform request priorities"):
            cross_check(sn40l_platform, library, reqs)

    def test_mixed_priorities_at_one_instant_match(self, library, requests):
        # Every arrival at t=0: each clock admits the whole trace in one
        # admission call, highest priority first, so a deadline sheds
        # the same groups and the node queues hold the same order.
        reqs = [dataclasses.replace(r, arrival_s=0.0, priority=i % 3)
                for i, r in enumerate(requests)]
        config = ServeConfig(mode="live", policy="affinity", num_nodes=3,
                             cluster_policy="least_loaded", deadline_s=0.5)
        result = cross_check(sn40l_platform, library, reqs, config)
        assert result.match, result.mismatch
        verdicts = [record for record in result.sim_log.stream("admission")
                    if record.kind == "admit"]
        assert {record.choice for record in verdicts} == {"admit", "shed"}
        assert result.live_report.shed_deadline > 0


class TestTamperDetection:
    def test_a_single_flipped_record_is_caught(self, library, requests):
        # Corrupt one record of the live log and re-diff: the harness
        # must localize the divergence, not just report a boolean.
        result = cross_check(sn40l_platform, library, requests[:40])
        assert result.match
        data = result.live_log.to_jsonable()
        stream = next(iter(data))
        kind, subject, choice, detail = data[stream][0]
        data[stream][0] = [kind, subject, "tampered", detail]
        tampered = DecisionLog.from_jsonable(data)
        diff = result.sim_log.diff(tampered)
        assert diff is not None
        assert stream in diff
        assert "tampered" in diff

    def test_a_missing_record_is_caught(self, library, requests):
        result = cross_check(sn40l_platform, library, requests[:40])
        data = result.live_log.to_jsonable()
        stream = next(iter(data))
        data[stream].pop()
        assert result.sim_log.diff(DecisionLog.from_jsonable(data)) is not None
