"""Wall-clock serving: drain, backpressure, streaming, task hygiene."""

import asyncio
from collections import defaultdict

import pytest

from repro.coe.api import ServeConfig, ServeModeError, build_server
from repro.coe.crosscheck import CHECK_TIME_SCALE
from repro.coe.engine import EngineRequest, ServingEngine
from repro.coe.expert import build_samba_coe_library
from repro.coe.live_engine import (
    LiveEngine,
    ShedRequest,
    TokenEvent,
)
from repro.coe.node import NodeState
from repro.coe.policies import FIELDS
from repro.coe.report import ServeReport
from repro.coe.runtime import CoERuntime
from repro.load import ArrivalSpec, generate_trace
from repro.systems.platforms import sn40l_platform

#: Fast-forward: one model second in a millisecond of wall time.
FAST = 0.001


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(8)


@pytest.fixture(scope="module")
def platform():
    return sn40l_platform()


def live_config(**kwargs):
    kwargs.setdefault("policy", "fifo")
    kwargs.setdefault("cluster_policy", "least_loaded")
    kwargs.setdefault("time_scale", FAST)
    return ServeConfig(mode="live", **kwargs)


def backlog(library, n, *, output_tokens=20, spread_s=0.0):
    experts = library.experts
    return [
        EngineRequest(
            i,
            experts[i % len(experts)],
            output_tokens=output_tokens,
            arrival_s=(spread_s * i / n) if spread_s else 0.0,
        )
        for i in range(n)
    ]


class TestLiveServe:
    def test_serves_a_backlog_to_completion(self, platform, library):
        engine = LiveEngine(platform, library, live_config())
        report = engine.serve(backlog(library, 12))
        assert isinstance(report, ServeReport)
        assert report.completed_requests == 12
        assert report.rejected == 0
        assert report.drained
        assert report.requests == 12
        assert report.makespan_s > 0
        assert report.wall_s > 0
        assert report.p50_s <= report.p95_s <= report.p99_s
        assert {c.request_id for c in report.completed} == set(range(12))

    def test_open_loop_arrivals_are_respected(self, platform, library):
        # Later arrivals cannot finish before they arrive.
        engine = LiveEngine(platform, library, live_config(time_scale=0.01))
        report = engine.serve(backlog(library, 6, spread_s=3.0))
        for c in report.completed:
            assert c.finish_s >= c.arrival_s

    def test_empty_backlog_rejected(self, platform, library):
        engine = LiveEngine(platform, library, live_config())
        with pytest.raises(ValueError, match="empty"):
            engine.serve([])

    def test_build_server_returns_live_engine(self, platform, library):
        server = build_server(platform, library, live_config())
        assert isinstance(server, LiveEngine)
        assert server.max_queue == FIELDS["max_queue"].unset

    def test_rejects_sim_config(self, platform, library):
        with pytest.raises(ServeModeError, match="live"):
            LiveEngine(platform, library, ServeConfig(policy="fifo"))

    def test_report_dict_is_json_ready(self, platform, library):
        import json

        engine = LiveEngine(platform, library, live_config())
        report = engine.serve(backlog(library, 4))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed_requests"] == 4
        assert payload["drained"] is True


class TestBackpressure:
    def test_full_queue_sheds_with_typed_result(self, platform, library):
        # All arrivals at t=0 and a single-slot queue: the dispatcher
        # admits without yielding, so exactly one group fits and the
        # rest shed deterministically.
        engine = LiveEngine(
            platform, library,
            live_config(max_batch=1, max_queue=1, num_nodes=1),
        )
        experts = library.experts
        reqs = [EngineRequest(i, experts[0]) for i in range(8)]
        report = engine.serve(reqs)
        assert report.shed_backpressure == 7
        assert report.completed_requests == 1
        assert report.drained
        for shed in report.shed:
            assert isinstance(shed, ShedRequest)
            assert shed.reason == "backpressure"
            assert shed.expert == experts[0].name
        # Conservation: nothing silently dropped.
        assert report.completed_requests + report.rejected == 8

    def test_deadline_sheds_before_queueing(self, platform, library):
        experts = library.experts
        engine = LiveEngine(
            platform, library,
            live_config(max_batch=1, deadline_s=0.03),
        )
        reqs = [EngineRequest(i, experts[0]) for i in range(8)]
        report = engine.serve(reqs)
        assert report.shed_deadline >= 1
        assert report.shed_backpressure == 0
        assert all(s.reason == "deadline" for s in report.shed)
        assert report.completed_requests + report.shed_deadline == 8


class TestGracefulShutdown:
    def test_drain_completes_in_flight_work(self, platform, library):
        # Long decodes still finish inside a generous drain budget.
        engine = LiveEngine(platform, library, live_config())
        report = engine.serve(backlog(library, 6, output_tokens=200))
        assert report.drained
        assert report.completed_requests == 6

    def test_drain_timeout_cancels_and_reports(self, platform, library):
        # Real time with a ~2.2 wall-second decode against a 50 ms drain
        # budget: shutdown must cancel, report drained=False, and not
        # hang the test.
        engine = LiveEngine(
            platform, library,
            live_config(time_scale=1.0, drain_timeout_s=0.05, max_batch=1),
        )
        report = engine.serve(
            [EngineRequest(0, library.experts[0], output_tokens=2000)]
        )
        assert not report.drained
        assert report.completed_requests == 0
        assert report.rejected == 0

    def test_no_task_leaks_after_aserve(self, platform, library):
        async def run():
            engine = LiveEngine(platform, library, live_config())
            await engine.aserve(backlog(library, 6))
            return asyncio.all_tasks()

        tasks = asyncio.run(run())
        assert len(tasks) == 1  # only the caller itself

    def test_no_task_leaks_after_drain_timeout(self, platform, library):
        async def run():
            engine = LiveEngine(
                platform, library,
                live_config(
                    time_scale=1.0, drain_timeout_s=0.05, max_batch=1
                ),
            )
            report = await engine.aserve(
                [EngineRequest(0, library.experts[0], output_tokens=2000)]
            )
            return report, asyncio.all_tasks()

        report, tasks = asyncio.run(run())
        assert not report.drained
        assert len(tasks) == 1


class TestTokenStreaming:
    def test_every_output_token_is_streamed(self, platform, library):
        events = []
        config = live_config()
        engine = LiveEngine(
            platform, library, config, token_callback=events.append
        )
        reqs = backlog(library, 6, output_tokens=16)
        report = engine.serve(reqs)
        assert report.tokens_streamed == 6 * 16
        assert len(events) == report.tokens_streamed
        assert report.output_tokens == 6 * 16

    def test_events_are_typed_ordered_and_timestamped(self, platform, library):
        events = []
        engine = LiveEngine(
            platform, library, live_config(), token_callback=events.append
        )
        engine.serve(backlog(library, 4, output_tokens=8))
        per_request = defaultdict(list)
        for event in events:
            assert isinstance(event, TokenEvent)
            assert event.time_s >= 0.0
            per_request[event.request_id].append(event)
        assert set(per_request) == set(range(4))
        names = {e.name for e in library.experts}
        for stream in per_request.values():
            # Indices arrive in order, one per decode step, and never
            # run backwards in model time.
            assert [e.index for e in stream] == list(range(8))
            times = [e.time_s for e in stream]
            assert times == sorted(times)
            assert stream[0].expert in names
            assert stream[0].node.startswith("node")

    def test_sim_mode_rejects_token_callback(self, platform, library):
        with pytest.raises(ServeModeError, match="token_callback"):
            build_server(
                platform, library, ServeConfig(policy="fifo"),
                token_callback=lambda event: None,
            )


class TestClusterLive:
    @pytest.mark.parametrize("cluster_policy", ["least_loaded", "affinity"])
    def test_multi_node_serves_and_shards(
        self, platform, library, cluster_policy
    ):
        engine = LiveEngine(
            sn40l_platform, library,
            live_config(num_nodes=4, cluster_policy=cluster_policy),
        )
        assert engine.num_nodes == 4
        hosted = [node.hosted for node in engine.nodes]
        assert set().union(*hosted) == {e.name for e in library.experts}
        report = engine.serve(backlog(library, 16))
        assert report.completed_requests == 16
        assert report.num_nodes == 4
        # Work actually lands on more than one node.
        assert sum(1 for node in engine.nodes if node.state.completed) > 1

    def test_timeline_spans_use_node_lanes(self, platform, library):
        engine = LiveEngine(
            sn40l_platform, library, live_config(num_nodes=2)
        )
        report = engine.serve(backlog(library, 8))
        lanes = {span.lane for span in report.timeline.spans()}
        assert any(lane.startswith("node0/") for lane in lanes)
        assert any(lane.startswith("node1/") for lane in lanes)


def tiered_caps(library):
    """HBM at half and DDR at 0.35x the working set: the CoServe split
    the sim/live cross-check uses, with part of the library on NVMe."""
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(0.5 * working_set), biggest)
    return {"hbm": hbm, "ddr": max(int(0.35 * working_set), hbm)}


class TestPipelinedPromotions:
    def test_promote_spans_end_by_the_makespan(self, platform, library):
        engine = LiveEngine(
            platform, library,
            live_config(tier_capacities=tiered_caps(library),
                        pipeline_promotions=True),
        )
        report = engine.serve(backlog(library, 16))
        promotes = report.timeline.spans(category="promote")
        assert report.drained and promotes
        assert len(promotes) == report.pipelined_promotions
        assert all(s.end_s <= report.makespan_s for s in promotes)

    def test_drain_timeout_clips_an_inflight_promotion(
        self, platform, library
    ):
        # The first group copies a DDR-resident expert in and starts the
        # second group's ~1.9 s NVMe->DDR promotion behind it, then
        # decodes for ~2.2 s; a 0.3 s drain budget stops the run while
        # the promotion is still on the DMA.
        runtime = LiveEngine(
            platform, library,
            live_config(tier_capacities=tiered_caps(library)),
        ).nodes[0].state.server.runtime
        ddr = next(
            e for e in library.experts if runtime.tier_of(e.name) == "ddr"
        )
        nvme = next(
            e for e in library.experts if runtime.tier_of(e.name) == "nvme"
        )
        engine = LiveEngine(
            platform, library,
            live_config(tier_capacities=tiered_caps(library),
                        pipeline_promotions=True, max_batch=1,
                        time_scale=1.0, drain_timeout_s=0.3),
        )
        report = engine.serve([
            EngineRequest(0, ddr, output_tokens=2000),
            EngineRequest(1, nvme, output_tokens=2000),
        ])
        assert not report.drained
        (promote,) = report.timeline.spans(category="promote")
        assert promote.name == f"promote:{nvme.name}"
        assert promote.start_s < report.makespan_s
        assert promote.end_s == report.makespan_s


class TestOneGroupStep:
    def test_every_serving_path_runs_the_node_group_step(self, monkeypatch):
        # The sim/live cross-check's lookahead + pipelined + tiered
        # config: every group begins through NodeState.begin on the
        # reference drain and in the live worker; the columnar drain
        # calls it at each decision point and batches the rest.
        library = build_samba_coe_library(12)
        spec = ArrivalSpec(rate_rps=40.0, duration_s=4.0, zipf_alpha=1.1,
                           seed=7)
        requests = generate_trace(spec, library).to_requests(library)
        config = ServeConfig(
            mode="live", policy="fifo", num_nodes=1,
            cache_policy="lookahead", scheduler="expert_reorder",
            tier_capacities=tiered_caps(library), pipeline_promotions=True,
            max_queue=len(requests) + 1, time_scale=CHECK_TIME_SCALE,
        )
        calls = []
        begin = NodeState.begin

        def spy(state, group, next_expert, now):
            calls.append((state, group))
            return begin(state, group, next_expert, now)

        touched = []
        touch_run = CoERuntime.touch_run

        def touch_spy(runtime, experts):
            touched.append(len(experts))
            return touch_run(runtime, experts)

        monkeypatch.setattr(NodeState, "begin", spy)
        monkeypatch.setattr(CoERuntime, "touch_run", touch_spy)

        def sim(drain_mode):
            calls.clear()
            touched.clear()
            engine = ServingEngine(
                sn40l_platform(), library, policy="fifo",
                max_batch=config.max_batch, window=config.window,
                cache_policy="lookahead", scheduler="expert_reorder",
                tier_capacities=config.tier_capacities,
                pipeline_promotions=True, drain_mode=drain_mode,
            )
            report = engine.run(requests)
            assert {id(state) for state, _ in calls} == {id(engine.state)}
            return report, [group for _, group in calls]

        report, reference = sim("reference")
        assert len(reference) == report.groups
        assert len({id(g) for g in reference}) == report.groups
        assert not touched

        report, decisions = sim("columnar")
        assert decisions and touched
        assert len(decisions) + sum(touched) == report.groups
        assert len({id(g) for g in decisions}) == len(decisions)

        calls.clear()
        engine = LiveEngine(sn40l_platform, library, config)
        live_report = engine.serve(requests)
        (node,) = engine.nodes
        assert {id(state) for state, _ in calls} == {id(node.state)}
        assert len(calls) == node.state.groups_done
        assert live_report.pipelined_promotions == report.pipelined_promotions
        assert ([g.expert.name for _, g in calls]
                == [g.expert.name for g in reference])
