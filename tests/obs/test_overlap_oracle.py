"""Oracle tests for :class:`~repro.obs.Timeline`.

1. The indexed overlap query IS the two-pointer sweep.
   :meth:`Timeline.overlap_s` bisects a lagging pointer past spans that
   cannot overlap the other lane's current span. The reference below is
   the plain two-pointer sweep over both full lanes; on random lanes —
   empty, touching, overlapping their neighbours within ``tolerance_s``,
   filtered by category, either lane the longer — the two must be
   bitwise equal.
2. The columnar span store IS the object-list store. ``Timeline`` keeps
   each lane as parallel columns and builds :class:`Span` records only
   when asked; :class:`ListTimeline` below is the earlier implementation
   that stored one frozen-dataclass span per record. Fed the same random
   records, the two must accept and reject the same spans (with the same
   message) and answer every query bitwise alike.
"""

import dataclasses
import random
from bisect import bisect_left, bisect_right
from typing import Dict, List, Mapping, Optional

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


# ----------------------------------------------------------------------
# The object-list store as it was before the columns (docstrings
# trimmed): the oracle for the columnar one.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ListSpan:
    name: str
    lane: str
    category: str
    start_s: float
    end_s: float
    args: Mapping = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"span {self.name!r}: end {self.end_s} < start {self.start_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlap_s(self, other) -> float:
        return max(
            0.0, min(self.end_s, other.end_s) - max(self.start_s, other.start_s)
        )


class ListTimeline:
    def __init__(self, tolerance_s: float = 1e-12) -> None:
        self.tolerance_s = tolerance_s
        self._lanes: Dict[str, List[ListSpan]] = {}
        self._starts: Dict[str, List[float]] = {}

    def record(self, name, lane, category, start_s, end_s, args=None):
        span = ListSpan(name=name, lane=lane, category=category,
                        start_s=start_s, end_s=end_s, args=dict(args or {}))
        spans = self._lanes.setdefault(lane, [])
        starts = self._starts.setdefault(lane, [])
        index = bisect_right(starts, span.start_s)
        if index > 0:
            prev = spans[index - 1]
            if span.start_s < prev.end_s - self.tolerance_s:
                raise ValueError(
                    f"lane {lane!r}: span {span.name!r} "
                    f"[{span.start_s}, {span.end_s}] overlaps "
                    f"{prev.name!r} [{prev.start_s}, {prev.end_s}]"
                )
        if index < len(spans):
            nxt = spans[index]
            if span.end_s > nxt.start_s + self.tolerance_s:
                raise ValueError(
                    f"lane {lane!r}: span {span.name!r} "
                    f"[{span.start_s}, {span.end_s}] overlaps "
                    f"{nxt.name!r} [{nxt.start_s}, {nxt.end_s}]"
                )
        spans.insert(index, span)
        starts.insert(index, span.start_s)
        return span

    @property
    def lanes(self):
        return list(self._lanes)

    def spans(self, lane: Optional[str] = None,
              category: Optional[str] = None):
        if lane is not None:
            selected = list(self._lanes.get(lane, ()))
        else:
            selected = sorted(
                (s for spans in self._lanes.values() for s in spans),
                key=lambda s: (s.start_s, s.end_s),
            )
        if category is not None:
            selected = [s for s in selected if s.category == category]
        return selected

    def __len__(self):
        return sum(len(spans) for spans in self._lanes.values())

    def __iter__(self):
        return iter(self.spans())

    @property
    def start_s(self):
        if not self._lanes:
            return 0.0
        return min(spans[0].start_s for spans in self._lanes.values() if spans)

    @property
    def end_s(self):
        if not self._lanes:
            return 0.0
        return max(
            (s.end_s for spans in self._lanes.values() for s in spans),
            default=0.0,
        )

    @property
    def duration_s(self):
        return self.end_s - self.start_s

    def busy_s(self, lane, category=None):
        return sum(s.duration_s for s in self.spans(lane, category))

    def overlap_s(self, lane_a, lane_b, category_a=None, category_b=None):
        a, a_starts = self._indexed(lane_a, category_a)
        b, b_starts = self._indexed(lane_b, category_b)
        total = 0.0
        i = j = 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            if x.end_s <= y.start_s:
                i = max(i + 1, bisect_left(
                    a_starts, self._skip_below(y.start_s), i + 1) - 1)
            elif y.end_s < x.start_s:
                j = max(j + 1, bisect_left(
                    b_starts, self._skip_below(x.start_s), j + 1) - 1)
            else:
                total += x.overlap_s(y)
                if x.end_s <= y.end_s:
                    i += 1
                else:
                    j += 1
        return total

    def _indexed(self, lane, category):
        spans = self._lanes.get(lane, [])
        if category is None:
            return spans, self._starts.get(lane, [])
        spans = [s for s in spans if s.category == category]
        return spans, [s.start_s for s in spans]

    def _skip_below(self, t):
        return t - self.tolerance_s - 1e-9 * (abs(t) + self.tolerance_s)

    def gaps(self, lane):
        spans = self.spans(lane)
        return [
            (prev.end_s, nxt.start_s)
            for prev, nxt in zip(spans, spans[1:])
            if nxt.start_s > prev.end_s
        ]


def _bits(x):
    """A number's type and exact value."""
    return type(x).__name__, float(x).hex()


def _key(span):
    return (span.name, span.lane, span.category, _bits(span.start_s),
            _bits(span.end_s), sorted(span.args.items()))


LANES = ("a", "b", "c")
CATEGORIES = ("x", "y", "z")


def _candidates(rng, tolerance):
    """Random records over a few lanes, shuffled so some land mid-lane:
    gaps positive, zero or negative within (and past) tolerance,
    zero-length and backwards spans, integer timestamps, a sometimes
    empty lane and args that are sometimes absent."""
    origin = rng.choice((0.0, 1e3, -5.0))
    scale = rng.choice((1e-3, 0.1, 2.0))
    records = []
    for lane in LANES:
        t = origin
        for _ in range(rng.choice((0, 1, 5, 40, 300))):
            roll = rng.random()
            if roll < 0.3:
                t += rng.random() * scale
            elif roll < 0.5:
                t -= rng.random() * tolerance
            elif roll < 0.55:
                t -= rng.random() * scale
            length = 0.0 if rng.random() < 0.1 else rng.random() * scale
            start, end = t, t + length
            if rng.random() < 0.03:
                start, end = end + scale, start
            elif rng.random() < 0.03:
                start, end = int(start), int(start) + 1
            args = rng.choice((None, {}, {"k": len(records), "b": "v"}))
            records.append((lane, rng.choice(CATEGORIES), start, end, args))
            t += length
    rng.shuffle(records)
    return [(f"s{n}",) + record for n, record in enumerate(records)]


def _record_both(new, old, records):
    for name, lane, category, start, end, args in records:
        try:
            want = old.record(name, lane, category, start, end, args)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                new.record(name, lane, category, start, end, args)
            assert str(got.value) == str(exc)
            continue
        got = new.record(name, lane, category, start, end, args)
        assert _key(got) == _key(want)
        assert _bits(got.duration_s) == _bits(want.duration_s)


@pytest.mark.parametrize("seed", range(60))
def test_columns_answer_like_the_object_list(seed):
    rng = random.Random(seed)
    tolerance = rng.choice((0.0, 1e-12, 1e-3, 0.05))
    new, old = Timeline(tolerance_s=tolerance), ListTimeline(tolerance)
    _record_both(new, old, _candidates(rng, tolerance))

    assert new.lanes == old.lanes
    assert len(new) == len(old)
    assert [_key(s) for s in new] == [_key(s) for s in old]
    for attr in ("start_s", "end_s", "duration_s"):
        assert _bits(getattr(new, attr)) == _bits(getattr(old, attr)), attr
    lanes = LANES + ("missing",)
    categories = (None,) + CATEGORIES + ("missing",)
    for lane in (None,) + lanes:
        for category in categories:
            assert ([_key(s) for s in new.spans(lane, category)]
                    == [_key(s) for s in old.spans(lane, category)])
    for lane in lanes:
        assert ([tuple(map(_bits, gap)) for gap in new.gaps(lane)]
                == [tuple(map(_bits, gap)) for gap in old.gaps(lane)])
        for category in categories:
            assert (_bits(new.busy_s(lane, category))
                    == _bits(old.busy_s(lane, category)))
    for lane_a in lanes:
        for lane_b in lanes:
            for cat_a in categories:
                for cat_b in categories:
                    assert _bits(
                        new.overlap_s(lane_a, lane_b, cat_a, cat_b)
                    ) == _bits(old.overlap_s(lane_a, lane_b, cat_a, cat_b))


def test_empty_timelines_agree():
    new, old = Timeline(), ListTimeline()
    assert new.lanes == old.lanes == []
    assert len(new) == len(old) == 0
    assert list(new) == list(old) == []
    for attr in ("start_s", "end_s", "duration_s"):
        assert _bits(getattr(new, attr)) == _bits(getattr(old, attr))
    assert _bits(new.busy_s("a")) == _bits(old.busy_s("a"))
    assert new.gaps("a") == old.gaps("a") == []
