"""Chrome-trace export."""

import json

import pytest

from repro.arch.config import SocketConfig
from repro.coe.engine import ServingEngine, zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.coe.serving import ExpertServer
from repro.dataflow import fusion
from repro.models.fftconv import monarch_fft_graph
from repro.perf.kernel_cost import ExecutionTarget, Orchestration, cost_plan
from repro.perf.trace import (
    plan_cost_trace,
    serve_result_trace,
    total_duration_s,
    write_trace,
)
from repro.systems.platforms import sn40l_platform


@pytest.fixture(scope="module")
def cost():
    graph = monarch_fft_graph(m=256)
    target = ExecutionTarget.from_socket(SocketConfig())
    return cost_plan(fusion.unfused(graph), target, Orchestration.SOFTWARE)


class TestPlanTrace:
    def test_one_exec_event_per_kernel(self, cost):
        events = plan_cost_trace(cost)
        execs = [e for e in events if e["cat"] == "kernel"]
        assert len(execs) == cost.num_launches

    def test_launch_events_present_under_software(self, cost):
        events = plan_cost_trace(cost)
        assert any(e["cat"] == "orchestration" for e in events)

    def test_events_do_not_overlap_within_a_lane(self, cost):
        events = sorted(plan_cost_trace(cost), key=lambda e: e["ts"])
        end_by_tid = {}
        for event in events:
            tid = event["tid"]
            assert event["ts"] >= end_by_tid.get(tid, 0.0) - 1e-9
            end_by_tid[tid] = event["ts"] + event["dur"]

    def test_total_duration_matches_cost(self, cost):
        events = plan_cost_trace(cost)
        assert total_duration_s(events) == pytest.approx(cost.total_s, rel=1e-6)


class TestServeTrace:
    def test_phases_appear_in_lanes(self):
        library = build_samba_coe_library(10)
        server = ExpertServer(sn40l_platform(), library)
        result = server.serve_experts(library.experts[:2], output_tokens=5)
        events = serve_result_trace(result)
        categories = {e["cat"] for e in events}
        assert {"router", "switch", "prefill", "decode"} <= categories
        assert total_duration_s(events) == pytest.approx(result.total_s, rel=1e-6)


class TestWriteTrace:
    def test_file_is_valid_chrome_trace(self, cost, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(plan_cost_trace(cost), str(path))
        data = json.loads(path.read_text())
        assert "traceEvents" in data
        assert all(e["ph"] == "X" for e in data["traceEvents"])

    def test_empty_trace_duration(self):
        assert total_duration_s([]) == 0.0


class TestServeReportTrace:
    """Serving traces reflect real (overlapping) simulated time.

    Regression for the old export, which laid every phase end-to-end and
    could not show an expert switch hidden behind the previous group's
    decode.
    """

    @pytest.fixture(scope="class")
    def report(self):
        library = build_samba_coe_library(30)
        stream = zipf_request_stream(library, 48, alpha=1.1, seed=7)
        engine = ServingEngine(sn40l_platform(), library, policy="overlap")
        return engine.run(stream)

    def test_switch_overlaps_previous_groups_decode(self, report):
        events = serve_result_trace(report)
        decodes = [e for e in events if e["cat"] == "decode"]
        switches = [e for e in events if e["cat"] == "switch"]
        assert decodes and switches

        def intersect(a, b):
            lo = max(a["ts"], b["ts"])
            hi = min(a["ts"] + a["dur"], b["ts"] + b["dur"])
            return hi - lo

        assert any(
            intersect(s, d) > 0 for s in switches for d in decodes
        ), "no switch event overlaps a decode event"

    def test_timestamps_are_sim_times(self, report):
        events = serve_result_trace(report)
        last_end = max(e["ts"] + e["dur"] for e in events)
        assert last_end / 1e6 == pytest.approx(report.makespan_s, rel=1e-9)

    def test_lanes_match_engine_timeline(self, report):
        events = serve_result_trace(report)
        tids = {e["tid"] for e in events}
        assert tids == set(range(len(report.timeline.lanes)))
