"""The throughput serving engine: grouping, overlap, and reporting."""

import pytest

from repro.coe.engine import (
    EngineRequest,
    ServingEngine,
    compare_policies,
    zipf_request_stream,
)
from repro.coe.expert import build_samba_coe_library
from repro.coe.node import NodeState
from repro.coe.policies import NodePolicy
from repro.coe.scheduling import (
    Request, RequestGroup, coalesce_groups,
)
from repro.obs import Timeline
from repro.systems.platforms import (
    dgx_a100_platform,
    dgx_h100_platform,
    sn40l_platform,
)
from tests.coe.grouping import node_order


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(60)


@pytest.fixture(scope="module")
def stream(library):
    return zipf_request_stream(library, 96, alpha=1.1, seed=7)


class TestGroupCoalescing:
    def test_consecutive_same_expert_merges(self, library):
        e0, e1 = library.experts[0], library.experts[1]
        reqs = [Request(i, e) for i, e in enumerate([e0, e0, e1, e0])]
        groups = coalesce_groups(reqs)
        assert [(g.expert.name, g.batch) for g in groups] == [
            (e0.name, 2), (e1.name, 1), (e0.name, 1),
        ]

    def test_max_batch_caps_group_size(self, library):
        e0 = library.experts[0]
        reqs = [Request(i, e0) for i in range(10)]
        groups = coalesce_groups(reqs, max_batch=4)
        assert [g.batch for g in groups] == [4, 4, 2]

    def test_groups_preserve_every_request(self, library):
        reqs = [Request(i, library.experts[i % 5]) for i in range(23)]
        groups = coalesce_groups(reqs, max_batch=3)
        flat = [r.request_id for g in groups for r in g.requests]
        assert flat == list(range(23))

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError):
            coalesce_groups([], max_batch=0)


class TestEngineBasics:
    def test_every_request_completes_exactly_once(self, library, stream):
        for policy in NodePolicy.values():
            engine = ServingEngine(sn40l_platform(), library, policy=policy)
            report = engine.run(stream)
            assert report.requests == len(stream)
            ids = sorted(c.request_id for c in report.completed)
            assert ids == sorted(r.request_id for r in stream)

    def test_empty_backlog_rejected(self, library):
        with pytest.raises(ValueError):
            ServingEngine(sn40l_platform(), library).run([])

    def test_unknown_policy_rejected(self, library):
        with pytest.raises(ValueError):
            ServingEngine(sn40l_platform(), library, policy="lifo")

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"window": 0},
        {"max_batch": 2.5},
        {"max_batch": "8"},
        {"window": True},
    ])
    def test_bad_counts_rejected(self, library, kwargs):
        name, = kwargs
        with pytest.raises(ValueError, match=name):
            ServingEngine(sn40l_platform(), library, **kwargs)

    def test_runs_event_driven(self, library, stream):
        report = ServingEngine(sn40l_platform(), library, policy="overlap").run(
            stream
        )
        # begin + finish per group at minimum, chained through the queue.
        assert report.events_run >= 2 * report.groups

    def test_percentiles_are_ordered(self, library, stream):
        for platform in (sn40l_platform(), dgx_h100_platform()):
            report = ServingEngine(platform, library, policy="fifo").run(stream)
            assert report.p50_s <= report.p95_s <= report.p99_s
            assert report.p99_s <= report.makespan_s

    def test_makespan_is_last_completion(self, library, stream):
        report = ServingEngine(sn40l_platform(), library, policy="overlap").run(
            stream
        )
        assert report.makespan_s == pytest.approx(
            max(c.finish_s for c in report.completed)
        )

    def test_batched_groups_beat_batch_of_one(self, library):
        """One 8-wide group is faster end-to-end than 8 singleton groups
        of the same expert (shared switch + shared weight reads)."""
        expert = library.experts[0]
        reqs = [EngineRequest(i, expert) for i in range(8)]
        batched = ServingEngine(
            sn40l_platform(), library, policy="fifo", max_batch=8
        ).run(reqs)
        singles = ServingEngine(
            sn40l_platform(), library, policy="fifo", max_batch=1
        ).run(reqs)
        assert batched.groups == 1
        assert singles.groups == 8
        assert batched.makespan_s < singles.makespan_s


class TestPolicyOrdering:
    def test_overlap_strictly_beats_fifo_on_zipf(self, library, stream):
        for platform in (sn40l_platform(), dgx_a100_platform()):
            reports = compare_policies(platform, library, stream)
            assert (reports["overlap"].requests_per_second
                    > reports["fifo"].requests_per_second)
            assert reports["overlap"].switch_hidden_fraction > 0

    def test_affinity_not_worse_than_fifo(self, library, stream):
        reports = compare_policies(sn40l_platform(), library, stream)
        assert (reports["affinity"].requests_per_second
                >= reports["fifo"].requests_per_second)

    def test_hidden_fraction_bounded(self, library, stream):
        reports = compare_policies(sn40l_platform(), library, stream)
        for report in reports.values():
            assert 0.0 <= report.switch_hidden_fraction <= 1.0
        assert reports["fifo"].hidden_switch_s == 0.0
        assert reports["affinity"].hidden_switch_s == 0.0

    def test_affinity_strictly_beats_fifo_on_interleaved_sessions(
        self, library
    ):
        """HBM holds ~37 experts: a stream cycling through 50 experts
        misses on every FIFO request, while one window holding the whole
        stream turns each expert's repeats into hits."""
        reqs = [
            EngineRequest(i, library.experts[i % 50], output_tokens=5)
            for i in range(150)
        ]
        misses, makespans = {}, {}
        for policy, window in (("fifo", 16), ("affinity", 150)):
            engine = ServingEngine(
                sn40l_platform(), library, policy=policy, max_batch=1,
                window=window,
            )
            makespans[policy] = engine.run(reqs).makespan_s
            misses[policy] = engine.server.runtime.stats.misses
        assert misses == {"fifo": 150, "affinity": 50}
        assert makespans["affinity"] < makespans["fifo"]

    def test_affinity_reordering_is_window_bounded(self, library):
        """No request may be displaced by a full window or more."""
        stream = zipf_request_stream(library, 64, alpha=1.0, seed=3)
        engine = ServingEngine(
            sn40l_platform(), library, policy="affinity", window=16
        )
        ordered = node_order(stream, engine.policy, engine.window)
        for pos, req in enumerate(ordered):
            assert abs(pos - req.request_id) < 16


class TestSpeculativePrefetch:
    def test_speculation_fires_when_next_group_is_resident(self, library):
        """With a tight HBM budget and a recurring rotation, the DMA-idle
        windows (next group already resident) warm the predictor's guess
        for an expert the rotation will come back to."""
        platform = sn40l_platform()
        hot = library.experts[0]
        rotation = library.experts[1:4]
        reqs = []
        for i in range(32):
            expert = hot if i % 2 == 0 else rotation[(i // 2) % 3]
            reqs.append(EngineRequest(i, expert))
        budget = 3 * hot.weight_bytes
        reserved = platform.hbm_capacity_bytes - budget
        report = ServingEngine(
            platform, library, policy="overlap", max_batch=1, window=1,
            reserved_hbm_bytes=reserved,
        ).run(reqs)
        assert report.speculative_prefetches > 0

    def test_overlap_hides_switches_on_a_workflow_chain(self, library):
        """A repeating a -> b -> c workflow through a one-slot cache
        switches on every request; overlap copies the next group's
        expert while the current one runs. ``window=1`` keeps arrival
        order, so only the prefetch differs from fifo."""
        a, b, c = library.experts[:3]
        reqs = [EngineRequest(i, e, output_tokens=5)
                for i, e in enumerate([a, b, c] * 6)]
        platform = sn40l_platform()
        reserved = platform.hbm_capacity_bytes - int(1.5 * a.weight_bytes)
        reports = {
            policy: ServingEngine(
                sn40l_platform(), library, policy=policy, max_batch=1,
                window=1, reserved_hbm_bytes=reserved,
            ).run(reqs)
            for policy in ("fifo", "overlap")
        }
        assert reports["overlap"].hidden_switch_s > 0
        assert reports["overlap"].makespan_s < reports["fifo"].makespan_s


class TestReportSerialization:
    def test_to_dict_round_trips_to_json(self, library, stream):
        import json

        report = ServingEngine(sn40l_platform(), library, policy="overlap").run(
            stream
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["policy"] == "overlap"
        assert payload["requests"] == len(stream)
        assert payload["requests_per_second"] > 0
        (node,) = payload["nodes"]
        assert 0.0 <= node["hidden_switch_s"] <= node["switch_s"]


class TestZipfStream:
    def test_deterministic_under_seed(self, library):
        a = zipf_request_stream(library, 50, seed=9)
        b = zipf_request_stream(library, 50, seed=9)
        assert [r.expert.name for r in a] == [r.expert.name for r in b]

    def test_skew_concentrates_on_head_experts(self, library):
        stream = zipf_request_stream(library, 400, alpha=1.5, seed=2)
        head = sum(1 for r in stream if r.expert is library.experts[0])
        assert head > 400 / len(library)  # far above uniform share

    def test_invalid_arguments_rejected(self, library):
        with pytest.raises(ValueError):
            zipf_request_stream(library, 0)
        with pytest.raises(ValueError):
            zipf_request_stream(library, 10, alpha=-1.0)


class TestRunTimeline:
    """The span timeline every run records (see docs/OBSERVABILITY.md)."""

    def test_every_policy_attaches_a_timeline(self, library, stream):
        for policy in NodePolicy.values():
            report = ServingEngine(
                sn40l_platform(), library, policy=policy
            ).run(stream)
            assert report.timeline is not None
            assert "compute" in report.timeline.lanes
            # Per-lane non-overlap and end >= start hold by construction:
            # Timeline.record would have raised during the run otherwise.
            for lane in report.timeline.lanes:
                spans = report.timeline.spans(lane)
                for prev, nxt in zip(spans, spans[1:]):
                    assert nxt.start_s >= prev.end_s - 1e-12

    def test_compute_busy_time_covers_all_groups(self, library, stream):
        engine = ServingEngine(sn40l_platform(), library, policy="fifo")
        report = engine.run(stream)
        starts = {c.start_s for c in report.completed}
        finishes = {c.finish_s for c in report.completed}
        busy = report.timeline.busy_s("compute")
        expected = sum(f - s for s, f in zip(sorted(starts), sorted(finishes)))
        assert busy == pytest.approx(expected, rel=1e-9)

    def test_switch_stats_are_timeline_derived(self, library, stream):
        """Satellite: the reported switch-hidden stat equals the timeline
        overlap query on a seeded workload, to well within 1e-9."""
        for policy in NodePolicy.values():
            report = ServingEngine(
                sn40l_platform(), library, policy=policy
            ).run(stream)
            timeline = report.timeline
            assert report.switch_s == pytest.approx(
                timeline.busy_s("switch"), abs=1e-15
            )
            assert abs(
                report.switch_hidden_fraction
                - timeline.hidden_fraction("switch", "compute")
            ) < 1e-9

    def test_hidden_time_matches_analytic_overlap(self, library):
        """Two groups, overlap policy: group B's copy runs concurrently
        with group A's execution, so hidden time is min(copy, exec)."""
        a, b = library.experts[0], library.experts[1]
        reqs = [EngineRequest(0, a), EngineRequest(1, b)]
        engine = ServingEngine(
            sn40l_platform(), library, policy="overlap", max_batch=1
        )
        report = engine.run(reqs)
        switch_spans = report.timeline.spans("switch")
        assert len(switch_spans) == 2  # cold copies of A then B
        copy_b = switch_spans[1]
        exec_a = next(c for c in report.completed if c.expert == a.name)
        expected = min(copy_b.duration_s, exec_a.finish_s - exec_a.start_s)
        assert report.hidden_switch_s == pytest.approx(expected, rel=1e-9)

    def test_overlap_run_has_switch_concurrent_with_decode(self, library):
        """Regression: a switch span really overlaps the previous group's
        decode span in sim time (the PR 1 behaviour the old serialized
        trace export could not show)."""
        stream = zipf_request_stream(library, 48, alpha=1.1, seed=7)
        report = ServingEngine(
            sn40l_platform(), library, policy="overlap"
        ).run(stream)
        decodes = report.timeline.spans("compute", category="decode")
        assert any(
            switch.overlap_s(decode) > 0
            for switch in report.timeline.spans("switch")
            for decode in decodes
        )

    def test_serial_policies_hide_nothing_on_the_timeline(self, library, stream):
        report = ServingEngine(sn40l_platform(), library, policy="fifo").run(
            stream
        )
        assert report.timeline.overlap_s("switch", "compute") == 0.0

    def test_speculative_copies_live_on_the_prefetch_lane(self, library):
        platform = sn40l_platform()
        hot = library.experts[0]
        rotation = library.experts[1:4]
        reqs = []
        for i in range(32):
            expert = hot if i % 2 == 0 else rotation[(i // 2) % 3]
            reqs.append(EngineRequest(i, expert))
        budget = 3 * hot.weight_bytes
        reserved = platform.hbm_capacity_bytes - budget
        report = ServingEngine(
            platform, library, policy="overlap", max_batch=1, window=1,
            reserved_hbm_bytes=reserved,
        ).run(reqs)
        prefetches = report.timeline.spans("prefetch")
        assert len(prefetches) == report.speculative_prefetches
        assert all(s.category == "prefetch" for s in prefetches)

    @pytest.mark.parametrize("phase_times", [
        (0.001, 0.002, 0.003), (0.0, 0.002, 0.003), (0.001, 0.0, 0.0),
        (0.0, 0.0, 0.0), (0.1, 0.2, 0.7),
    ])
    def test_phase_spans_match_per_span_recording(self, library,
                                                  phase_times):
        """A group's phase spans go in with one ``record_run``: the spans
        one ``record`` per non-zero phase makes, sharing one args dict
        per group (exporters copy args)."""
        expert = library.experts[0]
        group = RequestGroup(
            expert, (EngineRequest(0, expert), EngineRequest(1, expert))
        )
        state = NodeState(sn40l_platform(), library, lane_prefix="node0/")
        state.reset(None, Timeline())
        expected = Timeline()
        for exec_started in (0.0, 2.0):
            state.finish(group, exec_started, phase_times,
                         exec_started + 1.0, 7)
            end = exec_started
            for category, duration in zip(("router", "prefill", "decode"),
                                          phase_times):
                if duration > 0:
                    expected.record(
                        f"{category}:{expert.name}", "node0/compute",
                        category, end, end + duration,
                        {"group": 7, "batch": 2},
                    )
                end += duration
        spans = state.timeline.spans()
        assert spans == expected.spans()
        assert len({id(span.args) for span in spans}) == (2 if spans else 0)
        # Each finish also logs the group's requests and counts it.
        assert [(c.request_id, c.batch, c.start_s, c.finish_s)
                for c in state.completed] == [
            (0, 2, 0.0, 1.0), (1, 2, 0.0, 1.0),
            (0, 2, 2.0, 3.0), (1, 2, 2.0, 3.0),
        ]
        assert state.groups_done == 2


class TestReportEdgeCases:
    def test_zero_completions_report_has_no_division_error(self, library, stream):
        """A node that crashes before starting any group still reports."""
        # The reference drain runs each group's begin as its own event,
        # so replacing ``_begin_next`` halts the node before its first
        # group (the columnar drain begins groups without that hook).
        engine = ServingEngine(
            sn40l_platform(), library, policy="fifo", drain_mode="reference"
        )
        engine._begin_next = engine.halt  # fail-stop before the first group
        report = engine.run(stream)
        assert report.completed_requests == 0
        assert report.completed == ()
        assert report.mean_s == 0.0
        assert report.p50_s == report.p95_s == report.p99_s == 0.0
        assert report.to_dict()["mean_s"] == 0.0

    def test_report_carries_cache_policy_and_demand_hit_rate(
        self, library, stream
    ):
        engine = ServingEngine(sn40l_platform(), library, policy="overlap",
                               cache_policy="lfu")
        report = engine.run(stream)
        assert report.cache_policy == "lfu"
        assert 0.0 <= report.demand_hit_rate <= 1.0
        payload = report.to_dict()
        assert payload["cache_policy"] == "lfu"
        assert payload["demand_hit_rate"] == report.demand_hit_rate

    def test_default_cache_policy_is_lru(self, library, stream):
        report = ServingEngine(sn40l_platform(), library).run(stream)
        assert report.cache_policy == "lru"


class TestDemandAccounting:
    def test_one_demand_activation_per_group(self, library, stream):
        """Prefetches and warms are speculative: the runtime's demand
        request count is exactly the number of groups served."""
        for policy in NodePolicy.values():
            engine = ServingEngine(sn40l_platform(), library, policy=policy)
            report = engine.run(stream)
            stats = engine.server.runtime.stats
            assert stats.requests == report.groups
            assert stats.hits + stats.misses == report.groups

    def test_speculative_copies_booked_separately(self, library):
        # A resident-next pipeline with spare DMA time speculates; those
        # copies must land in the speculative counters only.
        stream = zipf_request_stream(library, 64, alpha=1.5, seed=3)
        engine = ServingEngine(sn40l_platform(), library, policy="overlap")
        engine.run(stream)
        stats = engine.server.runtime.stats
        if engine.speculative_prefetches:
            assert stats.speculative_requests > 0
        assert stats.bytes_up + stats.speculative_bytes_up > 0
