"""Oracle test: the indexed overlap query IS the two-pointer sweep.

:meth:`Timeline.overlap_s` bisects a lagging pointer past spans that
cannot overlap the other lane's current span. The reference below is the
plain two-pointer sweep over both full lanes; on random lanes — empty,
touching, overlapping their neighbours within ``tolerance_s``, filtered
by category, either lane the longer — the two must be bitwise equal.
"""

import random

import pytest

from repro.obs import Timeline


def reference_overlap(timeline, lane_a, lane_b, category_a=None,
                      category_b=None):
    a = timeline.spans(lane_a, category_a)
    b = timeline.spans(lane_b, category_b)
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        total += a[i].overlap_s(b[j])
        if a[i].end_s <= b[j].end_s:
            i += 1
        else:
            j += 1
    return total


def _fill_lane(rng, timeline, lane, count, origin, scale):
    """Record ``count`` spans, in shuffled order so some land mid-lane.
    Gaps are positive, zero (touching) or negative within tolerance;
    some spans have zero length. Spans record() rejects are dropped."""
    tol = timeline.tolerance_s
    spans = []
    t = origin
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            t += rng.random() * scale
        elif roll < 0.6:
            t -= rng.random() * tol
        length = 0.0 if rng.random() < 0.1 else rng.random() * scale
        spans.append((t, t + length, rng.choice(("x", "y"))))
        t += length
    rng.shuffle(spans)
    for start, end, category in spans:
        try:
            timeline.record("s", lane, category, start, end)
        except ValueError:
            pass


@pytest.mark.parametrize("seed", range(60))
def test_overlap_is_bitwise_the_two_pointer_sweep(seed):
    rng = random.Random(seed)
    tolerance = rng.choice((0.0, 1e-12, 1e-3, 0.05))
    timeline = Timeline(tolerance_s=tolerance)
    origin = rng.choice((0.0, 1e3, -5.0))
    scale = rng.choice((1e-3, 0.1, 2.0))
    sizes = [rng.choice((0, 1, 5, 50, 800)) for _ in range(2)]
    for lane, size in zip(("a", "b"), sizes):
        _fill_lane(rng, timeline, lane, size, origin, scale)
    for lane_a, lane_b in (("a", "b"), ("b", "a"), ("a", "missing")):
        for cat_a in (None, "x", "y"):
            for cat_b in (None, "x"):
                got = timeline.overlap_s(lane_a, lane_b, cat_a, cat_b)
                want = reference_overlap(
                    timeline, lane_a, lane_b, cat_a, cat_b
                )
                assert got.hex() == want.hex(), (lane_a, cat_a, cat_b)


def test_long_lane_against_sparse_lane():
    """The hidden-switch shape: many compute spans, few switch spans,
    some of them touching or straddling compute boundaries."""
    rng = random.Random(5)
    timeline = Timeline()
    t = 0.0
    for k in range(5_000):
        d = rng.random() * 1e-3
        timeline.record("c", "compute", "compute", t, t + d)
        if k % 37 == 0:
            timeline.record("s", "switch", "switch", t, t + 5 * d)
        t += d
    for lanes in (("switch", "compute"), ("compute", "switch")):
        got = timeline.overlap_s(*lanes)
        assert got > 0
        assert got.hex() == reference_overlap(timeline, *lanes).hex()


def test_equal_ends_follow_the_sweeps_tie_rule():
    """On equal ends the sweep moves lane a first. With neighbours that
    overlap within tolerance, that choice decides which tiny overlap is
    summed, so it must be kept."""
    timeline = Timeline(tolerance_s=0.1)
    timeline.record("a0", "a", "c", 0.0, 1.0)
    timeline.record("a1", "a", "c", 0.95, 2.0)
    timeline.record("b0", "b", "c", 0.5, 1.0)
    timeline.record("b1", "b", "c", 0.97, 3.0)
    for lanes in (("a", "b"), ("b", "a")):
        got = timeline.overlap_s(*lanes)
        assert got.hex() == reference_overlap(timeline, *lanes).hex()
    # a-first sums a1 x b0 (0.05), b-first sums b1 x a0 (0.03).
    assert timeline.overlap_s("a", "b") > timeline.overlap_s("b", "a")


def test_touching_spans_add_nothing():
    timeline = Timeline()
    timeline.record("a", "a", "c", 0.0, 1.0)
    timeline.record("b", "b", "c", 1.0, 2.0)
    assert timeline.overlap_s("a", "b") == 0.0
    assert timeline.overlap_s("a", "empty") == 0.0
