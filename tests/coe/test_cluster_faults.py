"""Fault tolerance in the cluster engine: crash, detect, recover.

The invariants under test are the ones an operator cares about:
determinism (same seed + same schedule reproduces the run bit-for-bit),
exactly-once re-dispatch (a crash never loses or duplicates a request),
explicit degradation (deadline shedding is reported, never silent), and
observability (the outage is visible as spans on the faults lane).
"""

import hashlib
import json

import pytest

from repro.coe.cluster_engine import ClusterEngine, run_cluster
from repro.coe.engine import zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.sim.faults import FaultSchedule, random_schedule
from repro.systems.platforms import sn40l_platform


@pytest.fixture(scope="module")
def library():
    return build_samba_coe_library(32)


@pytest.fixture(scope="module")
def stream(library):
    return zipf_request_stream(library, 96, alpha=1.1, seed=7)


@pytest.fixture(scope="module")
def clean_report(library, stream):
    return run_cluster(sn40l_platform, library, stream, num_nodes=4)


@pytest.fixture(scope="module")
def crash_report(library, stream, clean_report):
    # Kill a node a quarter of the way through the clean makespan:
    # squarely mid-decode, with plenty of queued work to re-dispatch.
    crash_at = 0.25 * clean_report.makespan_s
    return run_cluster(
        sn40l_platform, library, stream, num_nodes=4,
        faults=[f"node1:{crash_at}"],
    )


class TestCrashRecovery:
    def test_every_request_still_completes_exactly_once(
        self, library, stream, clean_report
    ):
        crash_at = 0.25 * clean_report.makespan_s
        engine = ClusterEngine(
            sn40l_platform, library, 4, faults=[f"node1:{crash_at}"]
        )
        report = engine.serve(stream)
        assert report.crashes == 1
        ids = [c.request_id for c in engine.completed_requests()]
        assert sorted(ids) == sorted(r.request_id for r in stream)

    def test_crash_is_counted_and_attributed(self, crash_report):
        assert crash_report.crashes == 1
        dead = [n for n in crash_report.nodes if not n.alive]
        assert [n.name for n in dead] == ["node1"]
        assert 0 < dead[0].crashed_at < crash_report.makespan_s
        alive = [n for n in crash_report.nodes if n.alive]
        assert len(alive) == 3 and all(n.crashed_at is None for n in alive)

    def test_work_was_redispatched(self, crash_report):
        assert crash_report.redispatched_groups > 0
        assert crash_report.rejected == 0

    def test_availability_and_recovery_bounds(self, crash_report):
        assert 0.7 < crash_report.availability < 1.0
        # Detection waits at most one heartbeat (0.05s default); recovery
        # adds at most the promotion copies on top.
        assert 0.0 <= crash_report.recovery_s < 0.2

    def test_degrades_but_keeps_goodput(self, clean_report, crash_report):
        assert crash_report.makespan_s >= clean_report.makespan_s
        retention = (crash_report.goodput_tokens_per_second
                     / clean_report.tokens_per_second)
        assert retention >= 0.6  # 1-of-4 nodes died a quarter in

    def test_outage_spans_on_faults_lane(self, crash_report):
        lanes = {s.lane for s in crash_report.timeline.spans()}
        assert "node1/faults" in lanes
        names = [s.name for s in crash_report.timeline.spans()
                 if s.lane == "node1/faults"]
        assert any(n.startswith("crash:") for n in names)
        assert any(n.startswith("recovery:") for n in names)

    def test_crashed_node_records_no_compute_after_death(self, crash_report):
        dead = next(n for n in crash_report.nodes if not n.alive)
        compute_end = max(
            (s.end_s for s in crash_report.timeline.spans()
             if s.lane == f"{dead.name}/compute"), default=0.0,
        )
        assert compute_end <= dead.crashed_at + 1e-9

    def test_makespan_still_covers_every_span(self, crash_report):
        last = max(s.end_s for s in crash_report.timeline.spans())
        assert crash_report.makespan_s == pytest.approx(last)


class TestDeterminism:
    def test_same_schedule_same_report(self, library, stream):
        kwargs = dict(num_nodes=4, faults=["node1:0.15", "slow:2:0.05:0.1"])
        a = run_cluster(sn40l_platform, library, stream, **kwargs)
        b = run_cluster(sn40l_platform, library, stream, **kwargs)
        da, db = a.to_dict(), b.to_dict()
        assert da == db
        assert [(s.lane, s.name, s.start_s, s.end_s)
                for s in a.timeline.spans()] == [
            (s.lane, s.name, s.start_s, s.end_s)
            for s in b.timeline.spans()
        ]

    def test_random_schedule_reproduces(self, library, stream):
        schedule = random_schedule(4, 0.3, seed=11, crashes=1, slow_nodes=1)
        a = run_cluster(sn40l_platform, library, stream, num_nodes=4,
                        faults=schedule)
        b = run_cluster(sn40l_platform, library, stream, num_nodes=4,
                        faults=FaultSchedule.from_specs(schedule.specs()))
        assert a.to_dict() == b.to_dict()


class TestSlowAndCopyFaults:
    def test_slow_window_stretches_the_run(self, library, stream,
                                           clean_report):
        slowed = run_cluster(
            sn40l_platform, library, stream, num_nodes=4,
            faults=[f"slow:0:0.0:{clean_report.makespan_s}:3.0"],
        )
        assert slowed.makespan_s > clean_report.makespan_s
        names = [s.name for s in slowed.timeline.spans()
                 if s.lane == "node0/faults"]
        assert any(n.startswith("slow") for n in names)

    def test_copy_faults_add_retries(self, library, stream):
        faulty = run_cluster(
            sn40l_platform, library, stream, num_nodes=4,
            faults=["copyfail:0:0.0:3"],
        )
        retries = sum(
            1 for s in faulty.timeline.spans()
            if s.name.startswith("copy-failed:")
        )
        assert 0 < retries <= 3

    def test_copy_fault_retries_never_booked_as_runtime_failures(
        self, library, stream
    ):
        """An injected retry's copy ultimately *succeeds*: the runtime's
        ``failures`` counter (copies that never happened, contributing no
        bytes/time) must stay zero, and the discarded attempt's DMA time
        is accounted explicitly on the engine instead."""
        engine = ClusterEngine(
            sn40l_platform, library, 4, faults=["copyfail:0:0.0:3"],
        )
        report = engine.serve(stream)
        fault_spans = [
            s for s in report.timeline.spans()
            if s.name.startswith("copy-failed:")
        ]
        assert fault_spans
        node0 = engine.nodes[0].engine
        assert node0.server.runtime.stats.failures == 0
        assert node0.state.copy_retries == len(fault_spans)
        assert node0.state.retry_dma_s == pytest.approx(
            sum(s.duration_s for s in fault_spans)
        )

    def test_fault_specs_round_trip_in_report(self, crash_report):
        assert crash_report.faults
        assert all(spec.startswith("crash:") for spec in
                   crash_report.faults)
        assert crash_report.to_dict()["faults"] == list(
            crash_report.faults
        )


class TestDeadlineAdmission:
    def test_impossible_deadline_sheds_explicitly(self, library, stream):
        report = run_cluster(
            sn40l_platform, library, stream, num_nodes=2, deadline_s=0.02
        )
        # ``requests`` counts the submitted backlog; the shed portion is
        # reported in ``rejected``, never silently dropped.
        assert report.requests == len(stream)
        assert 0 < report.rejected <= report.requests
        assert report.rejected_tokens > 0
        assert report.goodput_tokens_per_second <= report.tokens_per_second

    def test_loose_deadline_sheds_nothing(self, library, stream,
                                          clean_report):
        report = run_cluster(
            sn40l_platform, library, stream, num_nodes=4,
            deadline_s=10 * clean_report.makespan_s,
        )
        assert report.rejected == 0
        assert report.requests == len(stream)

    def test_low_priority_shed_first(self, library):
        import dataclasses
        requests = [
            dataclasses.replace(r, priority=1 if i % 2 == 0 else 0)
            for i, r in enumerate(
                zipf_request_stream(library, 48, alpha=1.1, seed=3)
            )
        ]
        engine = ClusterEngine(sn40l_platform, library, 2, deadline_s=0.05)
        engine.serve(requests)
        assert engine.rejected
        # Admission shreds lowest priority first: the rejected set must
        # carry a lower mean priority than the backlog as a whole.
        rejected_mean = (sum(r.priority for r in engine.rejected)
                         / len(engine.rejected))
        overall_mean = sum(r.priority for r in requests) / len(requests)
        assert rejected_mean <= overall_mean


class TestValidation:
    def test_fault_on_missing_node_rejected(self, library):
        with pytest.raises(ValueError, match="node 9"):
            ClusterEngine(sn40l_platform, library, 4, faults=["node9:1.0"])

    def test_crashing_every_node_rejected(self, library):
        with pytest.raises(ValueError, match="every node"):
            ClusterEngine(
                sn40l_platform, library, 2,
                faults=["node0:1.0", "node1:2.0"],
            )

    def test_bad_heartbeat_rejected(self, library):
        with pytest.raises(ValueError, match="heartbeat"):
            ClusterEngine(sn40l_platform, library, 2, heartbeat_s=0.0)

    def test_no_faults_means_no_fault_lanes_touched(self, clean_report):
        assert not any(s.lane.endswith("/faults")
                       for s in clean_report.timeline.spans())
        assert clean_report.crashes == 0
        assert clean_report.availability == 1.0


def _report_digest(report) -> str:
    payload = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def backlog_300(library):
    return zipf_request_stream(library, 300, seed=5)


class TestHeartbeat:
    """Only beats that can detect a crash run as events. The skipped
    ones are credited to ``events_run``, and a detection lands on the
    same accumulated beat as when every beat ran; the pinned values are
    those of a run that scheduled every beat."""

    @pytest.mark.parametrize("faults, detected, events_run, digest", [
        (["crash:node1:0.05"], {1: 0.05}, 362, "1dad8b0bdd72acc1"),
        (["crash:node1:0.1"], {1: 0.1}, 363, "32565fc3dcb23f2d"),
        # 0.05 added six times is 0.3, just short of this crash.
        (["crash:node1:0.30000000000000004"], {1: 0.35}, 368,
         "301dbae577942270"),
        (["crash:node1:0.1", "crash:node2:0.1"], {1: 0.1, 2: 0.1}, 366,
         "c9c7cd4b34935f4d"),
    ])
    @pytest.mark.parametrize("drain_mode", ["reference", "columnar"])
    def test_detection_and_events_unchanged(
        self, library, backlog_300, faults, detected, events_run, digest,
        drain_mode,
    ):
        engine = ClusterEngine(sn40l_platform, library, 4, faults=faults,
                               drain_mode=drain_mode)
        report = engine.serve(backlog_300)
        assert {n.index: n.detected_at for n in engine.nodes
                if n.detected_at is not None} == detected
        assert report.events_run == events_run
        assert _report_digest(report) == digest

    def test_no_op_beats_are_not_events(self, library, backlog_300):
        engine = ClusterEngine(sn40l_platform, library, 4,
                               faults=["crash:node1:2000.0"])
        beats = []
        heartbeat = engine._heartbeat
        engine._heartbeat = lambda: (beats.append(engine.sim.now),
                                     heartbeat())
        report = engine.serve(backlog_300)
        assert beats == [engine.nodes[1].detected_at]
        # 40,000 beats up to the crash, each once an event of its own.
        assert report.events_run == 40360


class TestCrashAfterTraffic:
    def test_makespan_ends_with_the_work(self, library, backlog_300):
        """A crash after the backlog drained copies nothing: recovery
        still reports its instant, but the makespan (work only) and the
        throughput are the clean run's."""
        clean = run_cluster(sn40l_platform, library, backlog_300,
                            num_nodes=4)
        engine = ClusterEngine(sn40l_platform, library, 4,
                               faults=["crash:node1:2000.0"])
        report = engine.serve(backlog_300)
        node = engine.nodes[1]
        assert report.makespan_s == clean.makespan_s
        assert report.requests_per_second == clean.requests_per_second
        assert node.recovered_at == node.detected_at > 2000.0
        assert report.recovery_s == node.recovered_at - 2000.0
