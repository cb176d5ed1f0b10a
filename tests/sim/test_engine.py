"""Discrete-event engine semantics."""

import pytest

from repro.sim.engine import Simulator


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        log = []

        def fire():
            log.append(sim.now)
            if len(log) < 3:
                sim.schedule(1.0, fire)

        sim.schedule(1.0, fire)
        end = sim.run()
        assert log == [1.0, 2.0, 3.0]
        assert end == 3.0

    def test_until_stops_the_clock(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.pending_events == 1

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_times_rejected(self):
        sim = Simulator()
        nan = float("nan")
        with pytest.raises(ValueError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_many([(1.0, lambda: None), (nan, lambda: None)])
        # A rejected batch schedules none of its events.
        assert sim.pending_events == 0
        assert sim.run() == 0.0

    def test_event_exactly_at_deadline_runs(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("at-deadline"))
        sim.schedule(5.0 + 1e-9, lambda: log.append("past-deadline"))
        assert sim.run(until=5.0) == 5.0
        assert log == ["at-deadline"]
        assert sim.pending_events == 1

    def test_clock_advances_to_deadline_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_deadline_before_first_event_runs_nothing(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: pytest.fail("must not run"))
        assert sim.run(until=1.0) == 1.0
        assert sim.events_run == 0

    def test_livelock_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestPerCallEventBudget:
    def test_budget_is_per_call_not_cumulative(self):
        """A second run() must not inherit the first call's spent budget."""
        sim = Simulator()
        for _ in range(60):
            sim.schedule(1.0, lambda: None)
        sim.run(until=100.0, max_events=100)
        assert sim.events_run == 60
        for _ in range(60):
            sim.schedule(200.0, lambda: None)
        # 60 + 60 > 100: the old cumulative guard tripped here.
        sim.run(max_events=100)
        assert sim.events_run == 120

    def test_budget_still_trips_within_one_call(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestScheduleMany:
    def test_bulk_insert_runs_in_time_order(self):
        sim = Simulator()
        log = []
        n = sim.schedule_many([
            (3.0, lambda: log.append("c")),
            (1.0, lambda: log.append("a")),
            (2.0, lambda: log.append("b")),
        ])
        assert n == 3
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_iteration_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("pushed"))
        sim.schedule_many([
            (1.0, lambda: log.append("bulk-1")),
            (1.0, lambda: log.append("bulk-2")),
        ])
        sim.run()
        assert log == ["pushed", "bulk-1", "bulk-2"]

    def test_interleaves_with_heappushed_events(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("push-2"))
        sim.schedule_many([(1.0, lambda: log.append("bulk-1")),
                           (3.0, lambda: log.append("bulk-3"))])
        sim.schedule(2.5, lambda: log.append("push-2.5"))
        sim.run()
        assert log == ["bulk-1", "push-2", "push-2.5", "bulk-3"]

    def test_past_times_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_many([(0.5, lambda: None)])

    def test_empty_batch_is_a_noop(self):
        sim = Simulator()
        assert sim.schedule_many([]) == 0
        assert sim.pending_events == 0

class TestCountEvents:
    def test_count_events_credits_lifetime_and_budget(self):
        sim = Simulator()

        def replay():
            sim.count_events(500)  # logical events replayed inside

        sim.schedule_at(1.0, replay)
        sim.run()
        assert sim.events_run == 501  # 1 popped + 500 credited
        sim.schedule_at(2.0, replay)
        sim.schedule_at(3.0, lambda: None)  # budget is checked before this
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)  # the credit trips the per-call budget

    def test_negative_count_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.count_events(-1)


class TestClockAccessors:
    def test_peek_next_time(self):
        sim = Simulator()
        assert sim.peek_next_time() is None
        sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek_next_time() == 1.0
        sim.run()
        assert sim.peek_next_time() is None

    def test_livelock_message_reports_queue_state(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(RuntimeError) as err:
            sim.run(max_events=50)
        message = str(err.value)
        assert "pending_events=1" in message
        assert "events_run=50" in message
        assert "t=0.0" in message


class TestSpanHooks:
    def test_record_span_is_noop_without_timeline(self):
        sim = Simulator()
        assert sim.record_span("x", "lane", "cat", duration_s=1.0) is None

    def test_spans_anchor_to_the_sim_clock(self):
        from repro.obs import Timeline

        timeline = Timeline()
        sim = Simulator(timeline=timeline)
        sim.schedule(2.5, lambda: sim.record_span("work", "l", "c", 1.0))
        sim.run()
        (span,) = timeline.spans("l")
        assert span.start_s == 2.5
        assert span.end_s == 3.5

    def test_explicit_bounds_override_the_clock(self):
        from repro.obs import Timeline

        sim = Simulator(timeline=Timeline())
        span = sim.record_span("w", "l", "c", start_s=1.0, end_s=4.0)
        assert (span.start_s, span.end_s) == (1.0, 4.0)

    def test_duration_or_end_required(self):
        from repro.obs import Timeline

        sim = Simulator(timeline=Timeline())
        with pytest.raises(ValueError):
            sim.record_span("w", "l", "c")

    def test_attach_and_detach(self):
        from repro.obs import Timeline

        sim = Simulator()
        timeline = Timeline()
        sim.attach_timeline(timeline)
        sim.record_span("w", "l", "c", duration_s=1.0)
        sim.attach_timeline(None)
        assert sim.record_span("x", "l", "c", duration_s=1.0) is None
        assert len(timeline) == 1
