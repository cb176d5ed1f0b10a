"""The span/timeline substrate every timing layer records into.

The paper tells its performance story in timelines — kernel schedules
with launch gaps (Figure 10), model-switch windows hidden behind decode
(Section VI-B) — and the reproduction's layers each need the same
artifact: a set of named :class:`Span` intervals on named lanes, with
real (simulated) start/end timestamps, queryable for busy time and
cross-lane overlap and exportable to Perfetto.

Invariants, enforced at record time:

- a span's end never precedes its start (and neither is NaN),
- spans within one lane never overlap (lanes model serial resources:
  a compute pipeline, a DMA engine, an orchestration sequencer);
  touching endpoints are fine.

Concurrency lives *across* lanes, which is exactly what the overlap
queries measure: :meth:`Timeline.overlap_s` is how the serving engine
derives its hidden-switch fraction instead of keeping ad-hoc counters.

Recording is the hot path (one call per simulated phase), so a lane
stores its spans as parallel columns — names, categories, starts, ends,
args — and the numeric queries read the float columns directly.
:meth:`Timeline.record_run` appends a whole run of spans with one
``extend`` per column. :class:`Span` records are built only when a
caller asks for spans.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from itertools import chain, compress, islice, repeat
from math import inf
from operator import eq, ge, itemgetter, le, sub
from types import MappingProxyType
from typing import (
    Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

_new_tuple = tuple.__new__
_NO_ARGS: Mapping = MappingProxyType({})


class _SpanFields(NamedTuple):
    name: str
    lane: str
    category: str
    start_s: float
    end_s: float
    #: Free-form annotations (bytes copied, batch size, counter deltas...).
    args: Mapping = _NO_ARGS


class Span(_SpanFields):
    """One named interval on one lane of a timeline.

    An immutable tuple record: a timeline stores its spans as per-lane
    columns and builds these only when a query or export asks for them.
    """

    __slots__ = ()

    def __new__(cls, name: str, lane: str, category: str, start_s: float,
                end_s: float, args: Mapping = _NO_ARGS) -> "Span":
        if not start_s <= end_s:  # one comparison also rejects NaN
            raise ValueError(f"span {name!r}: end {end_s} < start {start_s}")
        return _new_tuple(cls, (name, lane, category, start_s, end_s, args))

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlap_s(self, other: "Span") -> float:
        """Length of the intersection with another span."""
        return max(
            0.0, min(self.end_s, other.end_s) - max(self.start_s, other.start_s)
        )


class _Lane(NamedTuple):
    """One lane's spans as parallel columns, sorted by start time."""

    names: List[str]
    categories: List[str]
    starts: List[float]
    ends: List[float]
    args: List[Dict]


_as_span = partial(_new_tuple, Span)
_START_END = itemgetter(3, 4)


class Timeline:
    """An append-only recording of spans with per-lane non-overlap.

    ``tolerance_s`` absorbs floating-point slop when a span starts at
    (what should be) exactly the previous span's end.
    """

    def __init__(self, tolerance_s: float = 1e-12) -> None:
        if tolerance_s < 0:
            raise ValueError(f"negative tolerance: {tolerance_s}")
        self.tolerance_s = tolerance_s
        #: lane -> its spans' columns, sorted by start (disjoint by
        #: invariant). A lane exists only once a span landed on it.
        self._lanes: "Dict[str, _Lane]" = {}

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
        """Record one span; raises if it overlaps its lane's spans.

        Spans mostly arrive in start order, so the common case appends
        to the lane's columns; an earlier start bisects into them.
        Nothing is stored until every check has passed.
        """
        if not start_s <= end_s:  # one comparison also rejects NaN
            raise ValueError(f"span {name!r}: end {end_s} < start {start_s}")
        args = dict(args or {})
        columns = self._lanes.get(lane)
        if columns is None:
            self._lanes[lane] = _Lane(
                [name], [category], [start_s], [end_s], [args]
            )
        else:
            names, categories, starts, ends, lane_args = columns
            tolerance = self.tolerance_s
            if start_s >= starts[-1]:
                if start_s < ends[-1] - tolerance:
                    raise self._overlap(lane, name, start_s, end_s, -1)
                names.append(name)
                categories.append(category)
                starts.append(start_s)
                ends.append(end_s)
                lane_args.append(args)
            else:
                index = bisect_right(starts, start_s)
                if index > 0 and start_s < ends[index - 1] - tolerance:
                    raise self._overlap(lane, name, start_s, end_s, index - 1)
                if end_s > starts[index] + tolerance:
                    raise self._overlap(lane, name, start_s, end_s, index)
                names.insert(index, name)
                categories.insert(index, category)
                starts.insert(index, start_s)
                ends.insert(index, end_s)
                lane_args.insert(index, args)
        return _as_span((name, lane, category, start_s, end_s, args))

    def record_run(
        self,
        lane: str,
        names: List[str],
        categories: List[str],
        starts: List[float],
        ends: List[float],
        args: List[Dict],
    ) -> None:
        """Record a run of spans on one lane: one :meth:`record` per span,
        in bulk.

        When the run is in start order, starts at or after the lane's
        last span and passes :meth:`record`'s checks — every span ends
        no earlier than it starts (a NaN fails that comparison), and no
        span overlaps the lane's last span or the run's previous one —
        each lane column is extended once and no :class:`Span` is
        built. The timeline keeps the ``args`` dicts as given. Any other
        run goes through :meth:`record` span by span, which orders it
        and raises at the first span it rejects.
        """
        columns = self._lanes.get(lane)
        last_end = -inf if columns is None else columns.ends[-1]
        if (starts and (columns is None or starts[0] >= columns.starts[-1])
                and all(map(le, starts, islice(starts, 1, None)))
                and all(map(le, starts, ends))
                and all(map(ge, starts, map(sub, chain((last_end,), ends),
                                             repeat(self.tolerance_s))))):
            if columns is None:
                columns = self._lanes[lane] = _Lane([], [], [], [], [])
            columns.names.extend(names)
            columns.categories.extend(categories)
            columns.starts.extend(starts)
            columns.ends.extend(ends)
            columns.args.extend(args)
            return
        for name, category, start_s, end_s, span_args in zip(
                names, categories, starts, ends, args):
            self.record(name, lane, category, start_s, end_s, span_args)

    def _overlap(self, lane: str, name: str, start_s: float, end_s: float,
                 index: int) -> ValueError:
        """The error for a span overlapping the lane's ``index``-th span."""
        columns = self._lanes[lane]
        return ValueError(
            f"lane {lane!r}: span {name!r} [{start_s}, {end_s}] overlaps "
            f"{columns.names[index]!r} "
            f"[{columns.starts[index]}, {columns.ends[index]}]"
        )

    def reorder_lanes(self, lanes: Sequence[str]) -> None:
        """Put the lanes in the order ``lanes`` lists them.

        ``lanes`` must name every lane once. Lane order is what
        cross-lane ties in :meth:`spans` and exporters' track ids
        follow, so a recorder that created lanes out of their true
        order (a drain replaying many nodes one by one) restores it.
        """
        if len(lanes) != len(self._lanes) or set(lanes) != set(self._lanes):
            raise ValueError(
                f"reorder_lanes needs every lane once: got {list(lanes)!r} "
                f"for {list(self._lanes)!r}"
            )
        self._lanes = {lane: self._lanes[lane] for lane in lanes}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lanes(self) -> List[str]:
        """Lane names in first-recorded order (or as last reordered)."""
        return list(self._lanes)

    def spans(
        self, lane: Optional[str] = None, category: Optional[str] = None
    ) -> List[Span]:
        """Spans (optionally filtered), sorted by start time.

        Across lanes the order is by (start, end), ties in lane order.
        """
        if lane is not None:
            columns = self._lanes.get(lane)
            return [] if columns is None else _lane_spans(
                lane, columns, category)
        selected = [
            span for name, columns in self._lanes.items()
            for span in _lane_spans(name, columns, category)
        ]
        selected.sort(key=_START_END)
        return selected

    def __len__(self) -> int:
        return sum(len(columns.starts) for columns in self._lanes.values())

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    @property
    def start_s(self) -> float:
        """Earliest span start (0.0 when empty)."""
        if not self._lanes:
            return 0.0
        return min(columns.starts[0] for columns in self._lanes.values())

    @property
    def end_s(self) -> float:
        """Latest span end (0.0 when empty)."""
        return max(
            chain.from_iterable(
                columns.ends for columns in self._lanes.values()),
            default=0.0,
        )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def busy_s(self, lane: str, category: Optional[str] = None) -> float:
        """Total occupied time on a lane (spans are disjoint, so a sum
        of durations in start order)."""
        starts, ends = self._indexed(lane, category)
        return sum(map(sub, ends, starts))

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
        a_starts, a_ends = self._indexed(lane_a, category_a)
        b_starts, b_ends = self._indexed(lane_b, category_b)
        total = 0.0
        i = j = 0
        while i < len(a_starts) and j < len(b_starts):
            x_start, x_end = a_starts[i], a_ends[i]
            y_start, y_end = b_starts[j], b_ends[j]
            if x_end <= y_start:
                i = max(i + 1, bisect_left(
                    a_starts, self._skip_below(y_start), i + 1) - 1)
            elif y_end < x_start:
                j = max(j + 1, bisect_left(
                    b_starts, self._skip_below(x_start), j + 1) - 1)
            else:
                total += max(0.0, min(x_end, y_end) - max(x_start, y_start))
                if x_end <= y_end:
                    i += 1
                else:
                    j += 1
        return total

    def _indexed(
        self, lane: str, category: Optional[str]
    ) -> Tuple[List[float], List[float]]:
        """A lane's start and end columns (optionally filtered)."""
        columns = self._lanes.get(lane)
        if columns is None:
            return [], []
        if category is None:
            return columns.starts, columns.ends
        keep = list(map(eq, columns.categories, repeat(category)))
        return (list(compress(columns.starts, keep)),
                list(compress(columns.ends, keep)))

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
        starts, ends = self._indexed(lane, None)
        return [
            (end, start)
            for end, start in zip(ends, starts[1:])
            if start > end
        ]


def _lane_spans(
    lane: str, columns: _Lane, category: Optional[str]
) -> List[Span]:
    """One lane's spans, built from its columns in start order."""
    rows = zip(columns.names, repeat(lane), columns.categories,
               columns.starts, columns.ends, columns.args)
    if category is not None:
        rows = compress(rows, map(eq, columns.categories, repeat(category)))
    return list(map(_as_span, rows))
