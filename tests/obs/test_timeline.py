"""Timeline invariants and queries."""

import pytest

from repro.obs import Span, Timeline


class TestSpan:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Span("x", "lane", "cat", start_s=2.0, end_s=1.0)

    def test_zero_duration_allowed(self):
        span = Span("x", "lane", "cat", start_s=1.0, end_s=1.0)
        assert span.duration_s == 0.0

    def test_record_returns_the_span(self):
        timeline = Timeline()
        args = {"bytes": 8}
        span = timeline.record("x", "l", "c", 1.0, 3.0, args)
        assert span == Span("x", "l", "c", 1.0, 3.0, {"bytes": 8})
        assert span.duration_s == 2.0
        args["bytes"] = 9  # the timeline copied the args at record time
        assert timeline.spans("l")[0].args == {"bytes": 8}

    def test_span_is_immutable(self):
        span = Span("x", "lane", "cat", 0.0, 1.0)
        with pytest.raises(AttributeError):
            span.end_s = 2.0
        assert dict(span.args) == {}

    def test_overlap_between_spans(self):
        a = Span("a", "l", "c", 0.0, 2.0)
        b = Span("b", "m", "c", 1.0, 3.0)
        c = Span("c", "m", "c", 5.0, 6.0)
        assert a.overlap_s(b) == 1.0
        assert a.overlap_s(c) == 0.0


class TestLaneInvariants:
    def test_overlap_within_a_lane_rejected(self):
        timeline = Timeline()
        timeline.record("a", "dma", "copy", 0.0, 2.0)
        with pytest.raises(ValueError):
            timeline.record("b", "dma", "copy", 1.0, 3.0)

    def test_containment_within_a_lane_rejected(self):
        timeline = Timeline()
        timeline.record("a", "dma", "copy", 0.0, 10.0)
        with pytest.raises(ValueError):
            timeline.record("b", "dma", "copy", 2.0, 3.0)

    def test_touching_spans_allowed(self):
        timeline = Timeline()
        timeline.record("a", "dma", "copy", 0.0, 2.0)
        timeline.record("b", "dma", "copy", 2.0, 3.0)
        assert [s.name for s in timeline.spans("dma")] == ["a", "b"]

    def test_out_of_order_recording_sorted(self):
        timeline = Timeline()
        timeline.record("late", "l", "c", 5.0, 6.0)
        timeline.record("early", "l", "c", 0.0, 1.0)
        assert [s.name for s in timeline.spans("l")] == ["early", "late"]

    def test_different_lanes_may_overlap(self):
        timeline = Timeline()
        timeline.record("a", "compute", "decode", 0.0, 5.0)
        timeline.record("b", "switch", "switch", 1.0, 2.0)
        assert len(timeline) == 2

    def test_tolerance_absorbs_float_slop(self):
        timeline = Timeline(tolerance_s=1e-9)
        timeline.record("a", "l", "c", 0.0, 1.0)
        timeline.record("b", "l", "c", 1.0 - 1e-10, 2.0)
        assert len(timeline) == 2


class TestRejectedRecord:
    """A rejected record leaves the timeline exactly as it was: no span,
    no new (empty) lane, and the bounds queries still work."""

    @pytest.fixture()
    def timeline(self):
        t = Timeline()
        t.record("a", "dma", "copy", 1.0, 2.0)
        t.record("b", "dma", "copy", 4.0, 5.0)
        return t

    @pytest.mark.parametrize("lane, start, end", [
        ("dma", 1.5, 3.0),    # overlaps its predecessor, mid-lane
        ("dma", 3.0, 4.5),    # overlaps its successor, mid-lane
        ("dma", 4.5, 6.0),    # overlaps the last span (the append path)
        ("dma", 0.0, 10.0),   # contains both
        ("dma", 6.0, 5.5),    # ends before it starts, existing lane
        ("new", 6.0, 5.5),    # ends before it starts, new lane
    ])
    def test_timeline_unchanged(self, timeline, lane, start, end):
        before = timeline.spans()
        with pytest.raises(ValueError):
            timeline.record("bad", lane, "copy", start, end)
        assert len(timeline) == 2
        assert timeline.lanes == ["dma"]
        assert timeline.spans() == before
        assert (timeline.start_s, timeline.end_s) == (1.0, 5.0)
        assert timeline.spans("new") == []
        assert timeline.busy_s("dma") == 2.0

    def test_rejected_first_span_creates_no_lane(self):
        timeline = Timeline()
        with pytest.raises(ValueError):
            timeline.record("bad", "l", "c", 1.0, 0.0)
        assert timeline.lanes == []
        assert len(timeline) == 0
        assert (timeline.start_s, timeline.end_s) == (0.0, 0.0)


class TestQueries:
    @pytest.fixture()
    def timeline(self):
        t = Timeline()
        t.record("exec0", "compute", "decode", 0.0, 4.0)
        t.record("exec1", "compute", "decode", 5.0, 8.0)
        t.record("copy0", "switch", "switch", 1.0, 3.0)   # fully hidden
        t.record("copy1", "switch", "switch", 4.0, 6.0)   # half hidden
        return t

    def test_bounds_and_duration(self, timeline):
        assert timeline.start_s == 0.0
        assert timeline.end_s == 8.0
        assert timeline.duration_s == 8.0

    def test_busy_time_is_sum_of_disjoint_spans(self, timeline):
        assert timeline.busy_s("compute") == pytest.approx(7.0)
        assert timeline.busy_s("switch") == pytest.approx(4.0)
        assert timeline.busy_fraction("compute") == pytest.approx(7.0 / 8.0)

    def test_overlap_is_symmetric(self, timeline):
        ab = timeline.overlap_s("switch", "compute")
        ba = timeline.overlap_s("compute", "switch")
        assert ab == pytest.approx(3.0)
        assert ab == pytest.approx(ba)

    def test_hidden_fraction(self, timeline):
        # copy0 contributes 2.0s, copy1 contributes 1.0s of hidden time.
        assert timeline.hidden_fraction("switch", "compute") == pytest.approx(
            3.0 / 4.0
        )

    def test_category_filters(self, timeline):
        assert len(timeline.spans(category="switch")) == 2
        assert timeline.busy_s("compute", category="nope") == 0.0

    def test_gaps(self, timeline):
        assert timeline.gaps("compute") == [(4.0, 5.0)]
        assert timeline.gaps("switch") == [(3.0, 4.0)]

    def test_empty_timeline(self):
        empty = Timeline()
        assert empty.duration_s == 0.0
        assert empty.busy_fraction("anything") == 0.0
        assert empty.hidden_fraction("a", "b") == 0.0
        assert list(empty) == []


class TestRecordScaling:
    """record() keeps a per-lane sorted start-time index; appending N
    spans must not rebuild an N-element key list per call (O(N^2))."""

    def test_ten_thousand_spans_on_one_lane_is_fast(self):
        import time

        timeline = Timeline()
        start = time.perf_counter()
        for i in range(10_000):
            timeline.record(f"s{i}", "lane", "c", float(i), float(i) + 0.5)
        elapsed = time.perf_counter() - start
        assert len(timeline) == 10_000
        # The quadratic key-rebuild implementation took tens of seconds
        # here; the indexed one is comfortably under a second.
        assert elapsed < 1.0, f"record() took {elapsed:.2f}s for 10k spans"

    def test_index_survives_out_of_order_inserts(self):
        timeline = Timeline()
        for i in reversed(range(100)):
            timeline.record(f"s{i}", "lane", "c", float(i), float(i) + 0.5)
        spans = timeline.spans("lane")
        assert [s.start_s for s in spans] == sorted(s.start_s for s in spans)
        # Overlap detection still works against the maintained index.
        with pytest.raises(ValueError):
            timeline.record("bad", "lane", "c", 50.2, 50.4)
