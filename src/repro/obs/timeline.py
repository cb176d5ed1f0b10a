"""The span/timeline substrate every timing layer records into.

The paper tells its performance story in timelines — kernel schedules
with launch gaps (Figure 10), model-switch windows hidden behind decode
(Section VI-B) — and the reproduction's layers each need the same
artifact: a set of named :class:`Span` intervals on named lanes, with
real (simulated) start/end timestamps, queryable for busy time and
cross-lane overlap and exportable to Perfetto.

Invariants, enforced at record time:

- a span's end never precedes its start,
- spans within one lane never overlap (lanes model serial resources:
  a compute pipeline, a DMA engine, an orchestration sequencer);
  touching endpoints are fine.

Concurrency lives *across* lanes, which is exactly what the overlap
queries measure: :meth:`Timeline.overlap_s` is how the serving engine
derives its hidden-switch fraction instead of keeping ad-hoc counters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One named interval on one lane of a timeline."""

    name: str
    lane: str
    category: str
    start_s: float
    end_s: float
    #: Free-form annotations (bytes copied, batch size, counter deltas...).
    args: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"span {self.name!r}: end {self.end_s} < start {self.start_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlap_s(self, other: "Span") -> float:
        """Length of the intersection with another span."""
        return max(
            0.0, min(self.end_s, other.end_s) - max(self.start_s, other.start_s)
        )


class Timeline:
    """An append-only recording of spans with per-lane non-overlap.

    ``tolerance_s`` absorbs floating-point slop when a span starts at
    (what should be) exactly the previous span's end.
    """

    def __init__(self, tolerance_s: float = 1e-12) -> None:
        if tolerance_s < 0:
            raise ValueError(f"negative tolerance: {tolerance_s}")
        self.tolerance_s = tolerance_s
        #: lane -> spans sorted by start time (disjoint by invariant).
        self._lanes: "Dict[str, List[Span]]" = {}
        #: lane -> start times, parallel to ``_lanes``: the bisect key
        #: for record(), maintained incrementally so recording N spans
        #: is O(N log N + inserts), not O(N^2) key-list rebuilds.
        self._starts: "Dict[str, List[float]]" = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        lane: str,
        category: str,
        start_s: float,
        end_s: float,
        args: Optional[Mapping] = None,
    ) -> Span:
        """Record one span; raises if it overlaps its lane's spans."""
        span = Span(
            name=name,
            lane=lane,
            category=category,
            start_s=start_s,
            end_s=end_s,
            args=dict(args or {}),
        )
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lanes(self) -> List[str]:
        """Lane names in first-recorded order."""
        return list(self._lanes)

    def spans(
        self, lane: Optional[str] = None, category: Optional[str] = None
    ) -> List[Span]:
        """Spans (optionally filtered), sorted by start time."""
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

    def __len__(self) -> int:
        return sum(len(spans) for spans in self._lanes.values())

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    @property
    def start_s(self) -> float:
        """Earliest span start (0.0 when empty)."""
        if not self._lanes:
            return 0.0
        return min(spans[0].start_s for spans in self._lanes.values() if spans)

    @property
    def end_s(self) -> float:
        """Latest span end (0.0 when empty)."""
        if not self._lanes:
            return 0.0
        return max(
            (s.end_s for spans in self._lanes.values() for s in spans),
            default=0.0,
        )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def busy_s(self, lane: str, category: Optional[str] = None) -> float:
        """Total occupied time on a lane (spans are disjoint, so a sum)."""
        return sum(s.duration_s for s in self.spans(lane, category))

    def busy_fraction(self, lane: str) -> float:
        """Occupied fraction of the whole timeline's duration."""
        duration = self.duration_s
        return self.busy_s(lane) / duration if duration > 0 else 0.0

    def overlap_s(
        self,
        lane_a: str,
        lane_b: str,
        category_a: Optional[str] = None,
        category_b: Optional[str] = None,
    ) -> float:
        """Total time both lanes are simultaneously occupied.

        A two-pointer sweep over the (disjoint, sorted) interval lists
        that bisects a lagging pointer past every span ending before the
        other lane's current span starts, so the cost follows the shorter
        lane and the overlapping pairs, not the longer lane. Skipped pairs
        are exactly the zero terms the plain sweep would add, so the sum
        is bitwise the same. This is the primitive behind every
        hidden-time stat.
        """
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

    def _indexed(
        self, lane: str, category: Optional[str]
    ) -> Tuple[List[Span], List[float]]:
        """A lane's spans (optionally filtered) and their start times."""
        spans = self._lanes.get(lane, [])
        if category is None:
            return spans, self._starts.get(lane, [])
        spans = [s for s in spans if s.category == category]
        return spans, [s.start_s for s in spans]

    def _skip_below(self, t: float) -> float:
        """A start-time bound: a span whose lane successor starts below it
        ends strictly before ``t``.

        record() lets a span end at most ``tolerance_s`` past its
        successor's start (plus rounding in that check), so the bound
        sits one tolerance and a relative margin far wider than any
        rounding error below ``t``.
        """
        return t - self.tolerance_s - 1e-9 * (abs(t) + self.tolerance_s)

    def hidden_fraction(self, lane: str, behind_lane: str) -> float:
        """Fraction of ``lane``'s busy time overlapped by ``behind_lane``.

        E.g. ``hidden_fraction("switch", "compute")`` is the paper-style
        "model switching hidden behind execution" stat.
        """
        busy = self.busy_s(lane)
        return self.overlap_s(lane, behind_lane) / busy if busy > 0 else 0.0

    def gaps(self, lane: str) -> List[Tuple[float, float]]:
        """Idle intervals between consecutive spans of one lane."""
        spans = self.spans(lane)
        return [
            (prev.end_s, nxt.start_s)
            for prev, nxt in zip(spans, spans[1:])
            if nxt.start_s > prev.end_s
        ]
