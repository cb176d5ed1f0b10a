"""Columnar (structure-of-arrays) queue and drain core for the serving
engines.

A whole-queue drain replaces the reference path's begin/finish event
pair per group with work on a local clock; on a million-request run the
per-group Python work *is* the cost. This module vectorizes it. Each
node's queue is one :class:`GroupColumns`, parallel arrays over a
request table with a head cursor: per-group expert names, phase-time
triples (read from the node's phase memo, which
:meth:`ServingEngine.precompute_phases` seeds once per distinct group
shape from the scalar platform formulas), batch sizes, and per-request
arrival/output-token columns. A trace is grouped once
(:func:`group_backlog`) and routed and admitted straight into those
columns (:func:`admit_backlog`: the sim's t=0 backlog at once, the live
engine's groups as they are released); every other reader and writer
edits them in place (submits, steals, a crashed node's drain,
event-path begins, the live worker), so no :class:`RequestGroup`
exists until a group leaves them and no queue is ever rebuilt. The drain (:func:`drain`) reads the queue from its head
and segments it into **runs**:

    a run is a maximal stretch of groups whose experts are all
    HBM-resident with no pending copy-done barrier — so no eviction,
    no DMA wait and no demand copy can occur inside it, and every
    timestamp in the run is a pure prefix sum over phase durations.

Run timestamps come from one ``numpy.cumsum`` over the interleaved
``(router, prefill, decode)`` durations. ``cumsum`` accumulates strictly
left-to-right, so each partial sum performs the *same* float additions
in the *same* order as the scalar loop — the timestamps are bitwise
identical, not merely close (pinned by ``tests/coe/test_columnar.py``).
Cache/predictor bookkeeping for a run goes through the batch APIs
(:meth:`CoERuntime.touch_run`, :meth:`CachePolicy.on_access_run` and,
on a node that keeps a predictor, :meth:`ExpertPredictor.observe_run`),
each an order-equivalent bulk form of its scalar path. Only *decision
points* run the per-group step, :meth:`repro.coe.node.NodeState.begin`
— the same call the reference drain and the live worker make for every
group: a cache miss (victim selection + demand copy), a pending copy
barrier, and under the ``overlap`` policy a group whose prefetch is
more than a speculative recency refresh of a resident successor. That
keeps ``CoERuntime.activate`` the single cache-decision choke point the
sim/live cross-check relies on. Pipelined promotions happen at run
ends, and a ``lookahead`` policy reads the queue from its head, which
the drain moves past a group before its step (docs/PERFORMANCE.md,
section 10).

A drain may also stop at a horizon, leaving the group that straddles
it in flight: a ``steal`` cluster drains each node that way up to the
first instant a steal hook could act, then hands the rest to the event
path (docs/PERFORMANCE.md, section 11).

Runs and decision points complete alike: a drain logs the groups it
completed as one :class:`CompletedLog` block (each group's exec start and
end) and records their phase spans in a few bulk :meth:`Timeline.record_run`
calls. Materialization back to the exact NamedTuples the report/consumer
code sees is lazy. Latency and token aggregation read the columns
directly (``finish - arrival`` over float64 arrays is
elementwise-bitwise-equal to the scalar property).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

import numpy as np

from repro.coe.dispatch import admit
from repro.coe.policies import NodePolicy
from repro.coe.scheduling import (
    RequestGroup, expert_codes, group_starts, take, window_order,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.coe.decisions import DecisionLog
    from repro.coe.engine import ServingEngine
    from repro.coe.expert import ExpertProfile
    from repro.coe.scheduling import Scheduler

__all__ = [
    "CompletedLog",
    "CompletedRequest",
    "DrainStop",
    "GroupColumns",
    "Grouping",
    "admit_backlog",
    "drain",
    "group_backlog",
    "latency_values",
    "lower_queue",
    "token_total",
]

_EXPERT = attrgetter("expert")
_ARRIVAL = attrgetter("arrival_s")
_OUTPUT_TOKENS = attrgetter("output_tokens")
_PROMPT = attrgetter("prompt_tokens")
_PRIORITY = attrgetter("priority")
_REQUESTS = attrgetter("requests")


class CompletedRequest(NamedTuple):
    """Completion record of one request, with its group context.

    A NamedTuple rather than a dataclass: the engines materialize one of
    these per request on the hottest loop of a million-request sim, and
    tuple construction is several times cheaper than a frozen dataclass's
    per-field ``object.__setattr__``.
    """

    request_id: int
    expert: str
    batch: int
    arrival_s: float
    start_s: float
    finish_s: float
    output_tokens: int = 0

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


class _Block(NamedTuple):
    """The groups one drain completed: the node's request table
    (``requests`` with its ``arrivals``/``tokens`` columns) and the row
    range ``lo:hi`` its groups hold, in order, their expert names, exec
    ``starts`` and ``ends`` (float64; copy waits leave gaps) and ``sizes``."""

    requests: list
    arrivals: np.ndarray
    tokens: np.ndarray
    lo: int
    hi: int
    names: list
    starts: np.ndarray
    ends: np.ndarray
    sizes: np.ndarray

    def materialize(self) -> List["CompletedRequest"]:
        """Expand back to per-request records, in completion order.

        Each record takes its fields from the request objects of its
        rows and shares the group's start and end floats (``tolist``
        converts float64 to float exactly), as the scalar path does, so
        no per-request number is allocated.
        """
        rows = iter(self.requests[self.lo:self.hi])
        return [
            CompletedRequest(
                req.request_id, name, size, req.arrival_s, start, end,
                req.output_tokens,
            )
            for name, size, start, end in zip(
                self.names, self.sizes.tolist(), self.starts.tolist(),
                self.ends.tolist())
            for req in islice(rows, size)
        ]

    def latency_values(self) -> List[float]:
        finish = np.repeat(self.ends, self.sizes)
        return (finish - self.arrivals[self.lo:self.hi]).tolist()

    def token_total(self) -> int:
        return int(self.tokens[self.lo:self.hi].sum())


class CompletedLog:
    """Completion store mixing scalar records and column blocks.

    Ordered segments: plain ``CompletedRequest`` lists (the event path,
    which appends record by record) interleaved with :class:`_Block`
    drains. :attr:`append` is the *bound* ``list.append`` of the current
    tail segment — the scalar paths pay zero dispatch overhead over
    appending to a bare list. ``len()`` is the running count of the
    closed segments plus the tail's length.

    Iteration, indexing and ``materialize()`` present the exact
    per-request NamedTuples, in completion order, that a plain list
    would hold; the result is cached until the log grows.
    """

    __slots__ = ("_segments", "_tail", "append", "_closed", "_cache",
                 "_cache_len")

    def __init__(self) -> None:
        self._tail: List["CompletedRequest"] = []
        self._segments: List[object] = [self._tail]
        #: Bound tail-list append; rebound whenever a block closes the tail.
        self.append = self._tail.append
        #: Requests in every segment but the tail.
        self._closed = 0
        self._cache: Optional[List["CompletedRequest"]] = None
        self._cache_len = -1

    def extend_block(self, requests, arrivals, tokens, lo, hi, names,
                     starts, ends, sizes) -> None:
        """Append the groups one drain completed (see :class:`_Block`)."""
        block = _Block(requests, arrivals, tokens, lo, hi, names, starts,
                       ends, sizes)
        self._closed += hi - lo
        if self._tail:
            self._closed += len(self._tail)
            self._segments.append(block)
            self._tail = []
            self._segments.append(self._tail)
            self.append = self._tail.append
        else:
            # Keep the (empty) tail last so `append` stays valid.
            self._segments.insert(len(self._segments) - 1, block)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._closed + len(self._tail)

    def __iter__(self) -> Iterator["CompletedRequest"]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def materialize(self) -> List["CompletedRequest"]:
        """The full per-request record list, built lazily and cached."""
        total = len(self)
        if self._cache is not None and self._cache_len == total:
            return self._cache
        records: List["CompletedRequest"] = []
        for seg in self._segments:
            if isinstance(seg, _Block):
                records.extend(seg.materialize())
            else:
                records.extend(seg)
        self._cache = records
        self._cache_len = total
        return records

    # ------------------------------------------------------------------
    def latency_values(self) -> List[float]:
        """Per-request ``finish - arrival``, in completion order.

        Column segments subtract whole float64 arrays; IEEE-754 binary
        subtraction is the same operation either way, so each value is
        bitwise-equal to the scalar ``CompletedRequest.latency_s``.
        """
        out: List[float] = []
        for seg in self._segments:
            if isinstance(seg, _Block):
                out.extend(seg.latency_values())
            else:
                out.extend(c.latency_s for c in seg)
        return out

    def token_total(self) -> int:
        total = 0
        for seg in self._segments:
            if isinstance(seg, _Block):
                total += seg.token_total()
            else:
                total += sum(c.output_tokens for c in seg)
        return total

    def last_finish_s(self) -> float:
        """When the last completion finished (0.0 if none), the latest
        one: an engine completes its groups one after another."""
        for seg in reversed(self._segments):
            if isinstance(seg, _Block):
                return float(seg.ends[-1])
            if seg:
                return seg[-1].finish_s
        return 0.0


def latency_values(completed: CompletedLog) -> List[float]:
    """Per-request latencies of an engine's completion store."""
    return completed.latency_values()


def token_total(completed: CompletedLog) -> int:
    """Total output tokens of an engine's completion store."""
    return completed.token_total()


# ----------------------------------------------------------------------
# The queue, admission + the drain core
# ----------------------------------------------------------------------


class GroupColumns:
    """A node's queue: parallel arrays, one row per group, over a
    request table, and a head cursor. Groups before :attr:`head` have
    begun; the rest are queued, soonest first.

    Group ``i`` holds rows ``offsets[i]:offsets[i+1]`` of
    :attr:`requests` and of their :attr:`arrivals`/:attr:`tokens`: the
    table holds the groups' rows back to back, in queue order.
    Admission builds the columns in arrays (:func:`admit_backlog`), and
    every other reader and writer edits them in place: the drain, an
    event-path begin and the live worker move the head, ``submit`` and
    a later admission append (:meth:`extend`), steals, a crashed node's
    drain and a live backpressure shed remove (:meth:`remove`). Edits
    touch only the head and the rows after it, so the completion blocks
    a drain logs, which read begun rows, stay valid. A group leaves the columns (:meth:`group`) as the object it
    was appended as; only an admitted group is built, where it leaves.
    """

    __slots__ = (
        "experts", "names", "base", "rows", "offsets", "requests",
        "arrivals", "tokens", "head", "built", "table", "flat", "_exec",
        "_factor", "_row_of", "_first", "_next", "_last", "_indexed",
    )

    def __init__(self, experts, names, base, rows, sizes, requests,
                 arrivals, tokens):
        self.experts = experts
        self.names = names
        #: Distinct base (router, prefill, decode) triples, no slow
        #: factor; group ``i``'s is ``base[rows[i]]``.
        self.base = base
        self._row_of = dict(zip(base, range(len(base))))
        self.rows = rows
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.requests = requests
        self.arrivals = arrivals
        self.tokens = tokens
        self.head = 0
        #: Group ``i`` as appended, None for an admitted one.
        self.built: List[Optional[RequestGroup]] = [None] * len(names)
        #: Set by :meth:`price`: :attr:`base` at the slow factor as
        #: Python floats (the decision path computes its timestamps from
        #: ``table[rows[i]]`` so no ``np.float64`` leaks into engine
        #: state or records), and every group's triple as a float64
        #: array over :attr:`rows` (float -> float64 is exact) for the
        #: cumsum, which every edit keeps current once built.
        self.table = self.flat = self._exec = self._factor = None
        #: The next-use index (:meth:`next_use`), None until first read
        #: and after a :meth:`remove`: each queued name's first position
        #: at or after ``_indexed``, each group's next same-expert
        #: position (None for its expert's last), each name's last.
        self._first: Optional[Dict[str, int]] = None
        self._next: List[Optional[int]] = []
        self._last: Dict[str, int] = {}
        self._indexed = 0

    @classmethod
    def empty(cls) -> "GroupColumns":
        ints = np.empty(0, dtype=np.int64)
        return cls([], [], [], ints, ints.copy(), [], np.empty(0),
                   ints.copy())

    def __len__(self) -> int:
        """The number of queued (not yet begun) groups."""
        return len(self.names) - self.head

    def unbegun(self) -> Iterator[str]:
        """Expert names of the queued groups, soonest first."""
        # Not islice(names, head, None), which steps over the begun ones.
        return map(self.names.__getitem__, range(self.head, len(self.names)))

    def next_use(self) -> Tuple[Dict[str, int], int]:
        """Each queued expert name's first position at or after
        :attr:`head`, and the head: the lookahead policy's window at
        every eviction decision point.

        Built on the first read in one backward pass from the head.
        Afterwards a head move costs one assignment per group passed
        (its expert's first use moves to the group's next same-expert
        position), :meth:`extend` extends the index and :meth:`remove`
        drops it for the next read to rebuild.
        """
        first = self._first
        head = self.head
        if first is None:
            names = self.names
            nxt: List[Optional[int]] = [None] * len(names)
            first, last = {}, {}
            for p in range(len(names) - 1, head - 1, -1):
                name = names[p]
                later = nxt[p] = first.get(name)
                if later is None:
                    last[name] = p
                first[name] = p
            self._first, self._next, self._last = first, nxt, last
        elif head > self._indexed:
            names, nxt = self.names, self._next
            for p in range(self._indexed, head):
                later = nxt[p]
                if later is None:
                    del first[names[p]]
                else:
                    first[names[p]] = later
        self._indexed = head
        return first, head

    def peek(self) -> Optional["ExpertProfile"]:
        """The expert of the head group, or None when nothing is queued."""
        return self.experts[self.head] if self.head < len(self.names) else None

    def group(self, i: int) -> RequestGroup:
        """Group ``i`` as a :class:`RequestGroup`: as appended, else
        built from its rows."""
        group = self.built[i]
        if group is None:
            lo, hi = self.offsets[i:i + 2].tolist()
            group = RequestGroup(self.experts[i], tuple(self.requests[lo:hi]))
        return group

    def extend(self, groups: Sequence[RequestGroup],
               bases: Sequence[Tuple[float, float, float]]) -> None:
        """Queue ``groups`` last, in order, each with its base phase
        triple in ``bases``: one resize and one write per request
        column, however many groups."""
        if not groups:
            return
        n = len(self.names)
        k = len(groups)
        lo = len(self.requests)
        self.requests += chain.from_iterable(map(_REQUESTS, groups))
        hi = len(self.requests)
        if n + k > len(self.rows) or hi > len(self.arrivals):
            # Grow every column by an eighth, as a list grows (what lies
            # past the live rows is scratch).
            size = n + k + ((n + k) >> 3) + 8
            self.rows = np.resize(self.rows, size)
            self.offsets = np.resize(self.offsets, size + 1)
            if self.flat is not None:
                self.flat = np.resize(self.flat, (size, 3))
            self.arrivals = np.resize(self.arrivals, hi + (hi >> 3) + 8)
            self.tokens = np.resize(self.tokens, hi + (hi >> 3) + 8)
        requests = self.requests[lo:]
        self.arrivals[lo:hi] = list(map(_ARRIVAL, requests))
        self.tokens[lo:hi] = list(map(_OUTPUT_TOKENS, requests))
        if self.flat is not None:
            f = self._factor  # x * 1.0 is bitwise x
            self.flat[n:n + k] = [(r * f, p * f, d * f) for r, p, d in bases]
        self.built += groups
        self.experts += map(_EXPERT, groups)
        first, row_of = self._first, self._row_of
        for p, group, base in zip(count(n), groups, bases):
            name = group.expert.name
            self.names.append(name)
            if first is not None:
                # A name still in the index (the head may have passed
                # its uses since the last read) gains a next use here.
                self._next.append(None)
                if name in first:
                    self._next[self._last[name]] = p
                else:
                    first[name] = p
                self._last[name] = p
            row = row_of.get(base)
            if row is None:
                row = row_of[base] = len(self.base)
                self.base.append(base)
            self.rows[p] = row
            lo += len(group.requests)
            self.offsets[p + 1] = lo

    def remove(self, positions: Sequence[int]) -> List[RequestGroup]:
        """Take the queued groups at ``positions`` out of the queue and
        return them, in that order; the groups and rows after them move
        up, in one pass however many are taken."""
        taken = list(map(self.group, positions))
        offsets = self.offsets
        n = len(self.names)
        flat = self.flat
        if len(positions) == 1:
            i = positions[0]
            lo, hi = offsets[i:i + 2].tolist()
            del self.names[i], self.experts[i], self.built[i]
            del self.requests[lo:hi]
            end, size = len(self.requests), hi - lo
            self.rows[i:n - 1] = self.rows[i + 1:n]
            if flat is not None:
                flat[i:n - 1] = flat[i + 1:n]
            offsets[i + 1:n] = offsets[i + 2:n + 1] - size
            self.arrivals[lo:end] = self.arrivals[hi:end + size]
            self.tokens[lo:end] = self.tokens[hi:end + size]
        elif positions:
            # Everything from the first removal on is compacted once:
            # ``keep`` masks its groups, ``held`` their request rows.
            start = min(positions)
            keep = np.ones(n - start, dtype=bool)
            keep[np.asarray(positions) - start] = False
            sizes = np.diff(offsets[start:n + 1])
            held = np.repeat(keep, sizes)
            kept = keep.tolist()
            for column in (self.names, self.experts, self.built):
                column[start:] = compress(column[start:], kept)
            lo, hi = offsets[[start, n]].tolist()
            self.requests[lo:] = compress(self.requests[lo:], held.tolist())
            end = len(self.requests)
            left = len(self.names)
            self.rows[start:left] = self.rows[start:n][keep]
            if flat is not None:
                flat[start:left] = flat[start:n][keep]
            offsets[start + 1:left + 1] = lo + np.cumsum(sizes[keep])
            self.arrivals[lo:end] = self.arrivals[lo:hi][held]
            self.tokens[lo:end] = self.tokens[lo:hi][held]
        self._first = None
        return taken

    def price(self, factor: float) -> None:
        """Bring :attr:`table`, each base row's exec time and
        :attr:`flat` up to date at slow factor ``factor``. Only the first
        call and a new factor (a slow window opening or closing) build
        :attr:`flat`: :meth:`extend` and :meth:`remove` keep it current."""
        if factor != self._factor:
            self._factor, self.table, self.flat = factor, [], None
            self._exec = np.empty(0)
        new = self.base[len(self.table):]
        if new:
            if factor != 1.0:  # x * 1.0 is bitwise x
                new = [(r * factor, p * factor, d * factor)
                       for r, p, d in new]
            self.table += new
            # Python float sums (float -> float64 is exact).
            self._exec = np.array([r + p + d for r, p, d in self.table])
        if self.flat is None:
            # Over the scratch rows too, so it grows with :attr:`rows`.
            self.flat = np.asarray(self.table, dtype=np.float64).reshape(
                -1, 3)[self.rows]

    def backlog_s(self, factor: float) -> float:
        """The queued groups' exec times at ``factor`` summed in queue
        order from the int 0: each the float
        :meth:`ServingEngine._group_exec_time` returns, so the sum is
        bitwise the per-group one."""
        self.price(factor)
        return sum(self._exec[self.rows[self.head:len(self.names)]].tolist())

    def no_wait_end(self, start_at: float, lo: int, hi: int) -> float:
        """When group ``hi - 1`` would finish if the groups from ``lo``
        on waited for no copy.

        One left-to-right cumsum of their phases (at the last
        :meth:`price`) from ``start_at``: the float additions
        :func:`drain` makes. A copy wait only raises a begin time and
        IEEE addition is monotone, so the drained end is never earlier.
        """
        phases = self.flat[lo:hi]
        acc = np.empty(phases.size + 1, dtype=np.float64)
        acc[0] = start_at
        acc[1:] = phases.reshape(-1)
        return float(np.cumsum(acc)[-1])


def lower_queue(
    engine: "ServingEngine", groups: Sequence[RequestGroup]
) -> GroupColumns:
    """``groups`` as a queue for ``engine``, in one extend.

    No serving path calls it: admission builds every run's queue in
    arrays (:func:`admit_backlog`). It stays public for tests and for
    the e2e harness, which binds it as a traced boundary."""
    queue = GroupColumns.empty()
    queue.extend(groups, list(map(engine.state.phase_times, groups)))
    return queue


def _distinct_rows(*columns: np.ndarray) -> tuple:
    """The first index of each distinct row of non-negative integer
    ``columns``, and each row's id among them: over one int64 key,
    mixed radix, when it fits (``np.unique(axis=0)`` sorts far slower).
    """
    key, span, axis = 0, 1, None
    for column in columns:
        radix = int(column.max(initial=0)) + 1
        key, span = key * radix + column, span * radix
    if span > 1 << 62:
        key, axis = np.stack(columns, axis=1), 0
    _, first, ids = np.unique(key, axis=axis, return_index=True,
                              return_inverse=True)
    return first, ids.reshape(-1)


class Grouping(NamedTuple):
    """A trace grouped for admission (:func:`group_backlog`): its groups
    in admission order, as arrays over its requests.

    Each expert code has one name and one profile, the first request's
    of that name in trace order, and every group of the code carries
    that profile: a trace whose requests hold two distinct profiles
    under one name groups them together, as one expert."""

    requests: Sequence
    names: List[str]  # of each expert code
    experts: List["ExpertProfile"]  # of each expert code
    grouped: np.ndarray  # grouped position -> row of ``requests``
    # Per group: first grouped position, size, expert code, and longest
    # prompt and output.
    starts: np.ndarray
    sizes: np.ndarray
    codes: np.ndarray
    prompts: np.ndarray
    outputs: np.ndarray
    # Per request row: ``arrival_s`` and ``output_tokens``.
    arrivals: np.ndarray
    tokens: np.ndarray

    def rows_of(self, groups: np.ndarray) -> np.ndarray:
        """The rows of :attr:`requests` that ``groups`` hold, in order."""
        lengths = self.sizes[groups]
        skip = np.repeat(np.cumsum(lengths) - lengths - self.starts[groups],
                         lengths)
        return self.grouped[np.arange(int(lengths.sum())) - skip]


def _column(requests: Sequence, getter, dtype=np.int64) -> np.ndarray:
    return np.fromiter(map(getter, requests), dtype, len(requests))


def group_backlog(requests: Sequence, scheduler: "Scheduler", policy: str,
                  window: int, max_batch: int) -> Grouping:
    """Group a whole trace for admission, once: the groups
    ``coalesce_groups(affinity_schedule(scheduler.order(requests),
    window), max_batch)`` forms (no window reorder under ``fifo``), from
    the kernels those wrap, with ``phase_key`` maxima from
    ``np.maximum.reduceat``. ``window`` and ``max_batch`` are an engine's,
    validated when it was built (:func:`repro.coe.policies.validate`)."""
    n = len(requests)
    codes, names = expert_codes(requests)
    # Codes number names first-seen, so a code's first request is where
    # their running maximum rises.
    firsts = np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))
    experts = list(map(_EXPERT, take(requests, firsts)))
    # Codes only name classes, so they carry through the scheduler's
    # permutation unchanged.
    grouped = scheduler.permutation(codes)
    if grouped is None:
        grouped = np.arange(n)
    else:
        codes = codes[grouped]
    if NodePolicy.coerce(policy) is not NodePolicy.FIFO:
        order = window_order(codes, window)
        grouped, codes = grouped[order], codes[order]
    starts = group_starts(codes, max_batch)
    tokens = _column(requests, _OUTPUT_TOKENS)
    return Grouping(
        requests, names, experts, grouped, starts,
        np.diff(np.append(starts, n)), codes[starts],
        np.maximum.reduceat(_column(requests, _PROMPT)[grouped], starts),
        np.maximum.reduceat(tokens[grouped], starts),
        _column(requests, _ARRIVAL, np.float64), tokens,
    )


def admit_backlog(
    engines: Sequence["ServingEngine"],
    backlog: Grouping,
    lo: int = 0,
    hi: Optional[int] = None,
    owner_of: Optional[Dict[str, int]] = None,
    deadline_s: Optional[float] = None,
    decisions: Optional["DecisionLog"] = None,
    node_names: Sequence[str] = (),
) -> Tuple[List["ServingEngine"], list]:
    """Admit groups ``lo:hi`` of ``backlog`` (all of them by default),
    in arrays: both clocks' one admission. The sim admits the whole
    backlog at t=0; the live engine the groups each release frees.

    ``engines`` have a :class:`~repro.coe.node.NodeState` ``state`` and
    a ``precompute_phases`` returning each group's base phase triple. A
    group goes to its expert's owner in ``owner_of`` (engine 0 without
    one): ``shard_experts`` places a partition and only the sim's clock
    replicates, so at admission routing is a lookup. Each engine's phase
    memo is seeded with the shapes routed to it, and its admitted groups
    join its queue in admission order: as its columns when it holds no
    group yet, else through :meth:`GroupColumns.extend`.

    With a ``deadline_s`` the groups are admitted highest priority
    first, stably (``ClusterEngine._priority_order``), each against its
    node's :attr:`~repro.coe.node.NodeState.admitted_s` at logical
    ``now = 0.0``: for the sim, bitwise a fresh left-to-right sum of
    the node's queue. Verdicts and the ``admission`` stream (engine
    ``i`` is ``node_names[i]``) are :func:`admit`'s.

    Returns the engines with admitted groups, in the order they received
    their first, and the shed requests in admission order.
    """
    hi = len(backlog.starts) if hi is None else hi
    requests = backlog.requests
    codes, sizes = backlog.codes[lo:hi], backlog.sizes[lo:hi]
    nodes = np.zeros(hi - lo, dtype=np.intp)
    if owner_of is not None:
        try:
            owners = [owner_of[name] for name in backlog.names]
        except KeyError as exc:
            raise KeyError(f"no node hosts expert {exc.args[0]!r}") from None
        nodes = np.asarray(owners, dtype=np.intp)[codes]
    first_of, shape_of = _distinct_rows(
        codes, sizes, backlog.prompts[lo:hi], backlog.outputs[lo:hi])
    base: list = [None] * len(first_of)
    exec_s = [0.0] * len(first_of)
    # One representative group per shape, each seeded on its node.
    table = take(requests, backlog.rows_of(lo + first_of))
    lengths = sizes[first_of].tolist()
    heads = np.cumsum([0] + lengths).tolist()
    reps = [RequestGroup(expert, tuple(table[head:head + size]))
            for expert, head, size in zip(
                take(backlog.experts, codes[first_of]), heads, lengths)]
    for index, engine in enumerate(engines):
        mine = np.flatnonzero(nodes[first_of] == index)
        for shape, triple in zip(mine.tolist(),
                                 engine.precompute_phases(take(reps, mine))):
            router, prefill, decode = base[shape] = triple
            exec_s[shape] = router + prefill + decode
    admitted = np.arange(hi - lo)
    if deadline_s is not None:
        priority = np.maximum.reduceat(
            _column(take(requests, backlog.rows_of(lo + admitted)),
                    _PRIORITY),
            np.cumsum(sizes) - sizes)
        admitted = np.argsort(-priority, kind="stable")
    shed: List[int] = []
    if deadline_s is not None or decisions is not None:
        kept: List[int] = []
        for k, node, code, batch, shape in zip(
                admitted.tolist(), nodes[admitted].tolist(),
                codes[admitted].tolist(), sizes[admitted].tolist(),
                shape_of[admitted].tolist()):
            state = engines[node].state
            if admit(backlog.names[code], batch, node_names[node], decisions,
                     deadline_s, 0.0, state.admitted_s, exec_s[shape]):
                state.admitted_s += exec_s[shape]
                kept.append(k)
            else:
                shed.append(k)
        admitted = np.asarray(kept, dtype=np.intp)
    # The admitted groups by engine, each in admission order.
    by_node = np.argsort(nodes[admitted], kind="stable")
    bounds = np.searchsorted(nodes[admitted][by_node],
                             np.arange(len(engines) + 1)).tolist()
    for engine, start, stop in zip(engines, bounds, bounds[1:]):
        mine = admitted[by_node[start:stop]]
        if not len(mine):
            continue
        rows = backlog.rows_of(lo + mine)
        table = take(requests, rows)
        lengths = sizes[mine]
        experts = take(backlog.experts, codes[mine])
        queue = engine.state.queue
        if queue.names:
            heads = np.cumsum(lengths) - lengths
            queue.extend(
                [RequestGroup(expert, tuple(table[head:head + size]))
                 for expert, head, size in zip(
                     experts, heads.tolist(), lengths.tolist())],
                take(base, shape_of[mine]))
        else:
            # The node's shapes, renumbered densely in shape order.
            present = np.zeros(len(first_of), dtype=bool)
            present[shape_of[mine]] = True
            local = (np.cumsum(present) - 1)[shape_of[mine]]
            engine.state.queue = GroupColumns(
                experts, take(backlog.names, codes[mine]),
                take(base, np.flatnonzero(present)), local, lengths, table,
                backlog.arrivals[rows], backlog.tokens[rows],
            )
    roots = sorted((i for i in range(len(engines)) if bounds[i + 1] >
                    bounds[i]), key=lambda i: by_node[bounds[i]])
    return ([engines[i] for i in roots],
            take(requests, backlog.rows_of(
                lo + np.asarray(shed, dtype=np.intp))))


#: The compute phases of a group, in execution order.
_PHASES = ("router", "prefill", "decode")
#: Groups per bulk span record of a drain (bounds the lists' memory).
_SPAN_CHUNK = 2048


@lru_cache(maxsize=None)
def _span_names(name: str) -> Tuple[str, ...]:
    """The phase span names of a group of expert ``name``."""
    return tuple(f"{phase}:{name}" for phase in _PHASES)


class DrainStop(NamedTuple):
    """Where :func:`drain` stopped: the end of the queue or its horizon."""

    #: Groups this drain began (it moved the head past them), an
    #: in-flight one included.
    begun: int
    #: Prefetches run at their group's exec start, after its begin (each
    #: one is an extra event on the reference path).
    deferred: int
    #: The local clock where the drain stopped: the end of the last
    #: group, or the begin of the group in flight or due at or after
    #: the horizon.
    now: float
    #: The group begun before the horizon that finishes at or after it,
    #: as ``(group, exec_start, phase_times, index)``, else None.
    current: Optional[tuple]
    #: Whether ``current``'s prefetch is still due, at its exec start.
    prefetch_due: bool


def drain(
    engine: "ServingEngine",
    cols: GroupColumns,
    start_at: float,
    horizon: float = math.inf,
    times: Optional[List[float]] = None,
    created: Optional[List[tuple]] = None,
) -> DrainStop:
    """Drain a node's queue from its head on a local clock.

    Runs of resident-expert groups are timestamped by one cumsum and
    their cache/predictor bookkeeping applied through the batch APIs;
    each decision point runs the node's group step
    (:meth:`NodeState.begin`). The segmentation is conservative — a
    group is only admitted to a run if its expert is resident *and* any
    pending copy completed by the run's start — and a group it excludes
    is simply re-examined (scalar) at its true start time, where the
    identical hit/barrier/miss arithmetic applies. State mutations
    therefore happen in the same order with the same values as the
    reference path, which the equivalence grid asserts byte-for-byte.

    Under ``overlap`` a group's begin is also a prefetch decision. It is
    a plain speculative recency refresh — so the group may join a run —
    while no speculative copy is open, every expert the predictor knows
    is resident (no guess to rank) and the group up next is resident;
    :meth:`CoERuntime.touch_run` books the run's demand hits and
    refreshes in their scalar order.

    The drain runs every event strictly before ``horizon`` and nothing
    at or after it: a group begun before the horizon that finishes at or
    after it is returned in flight (:attr:`DrainStop.current`), and the
    drain stops before a group that would begin at or after it.
    ``times``, when given, collects the time of every begin and finish
    drained, in order; ``created`` gets ``(lane, time, parent, sub)``
    for each timeline lane an event created: the event's time, the
    index in ``times`` of the event that scheduled it, and 0 for a
    deferred prefetch, 1 otherwise (docs/PERFORMANCE.md, section 11).
    """
    state = engine.state
    runtime = state.server.runtime
    resident = runtime.resident_map
    copy_done = state.copy_done
    predictor = state.predictor
    timeline = engine._sim.timeline
    overlap = engine.policy == "overlap"
    pipelining = state.pipeline_promotions
    cols.price(engine.slow_factor)
    names = cols.names
    experts = cols.experts
    table = cols.table
    rows = cols.rows
    flat = cols.flat
    offsets = cols.offsets
    n = len(names)
    # Groups first:finished completed, at these exec starts and ends.
    pos = first = finished = spanned = cols.head
    starts, ends = np.empty(n), np.empty(n)
    lane = engine.lane("compute")
    # Lane creation order is observable: until the compute lane exists,
    # each completion records its spans at once, the rest at the end.
    fresh = timeline is not None and lane not in timeline.lanes
    track = created is not None and timeline is not None
    known = len(timeline.lanes) if track else 0
    event0 = len(times or ())

    def note(event: int, prefetch_at: Optional[float] = None) -> None:
        """Attribute the lanes created since the last note to the begin
        or finish ``times[event]`` or, given ``prefetch_at``, to the
        deferred prefetch that begin scheduled."""
        nonlocal known
        lanes = timeline.lanes
        if prefetch_at is None:
            key = (times[event], event - 1, 1)
        else:
            key = (prefetch_at, event, 0)
        created.extend((new, *key) for new in lanes[known:])
        known = len(lanes)

    def record_spans(lo: int, hi: int) -> None:
        """Record completed groups ``lo:hi``'s compute spans in bulk."""
        nonlocal fresh, spanned
        # s0, s0 + router, ..., + decode: the group step's float additions.
        edges = np.concatenate((starts[lo:hi, None], flat[lo:hi]), 1).cumsum(1)
        # A group starting at its predecessor's end shares that float, and
        # a span ends at the boundary after its start.
        distinct = np.ones(edges.shape, dtype=bool)
        distinct[1:, 0] = edges[1:, 0] != edges[:-1, 3]
        keep = flat[lo:hi] > 0
        at_start = np.concatenate((keep, np.zeros((hi - lo, 1), bool)), 1)
        at_start[:-1, 3] = keep[1:, 0] & ~distinct[1:, 0]  # a shared s0
        bounds = edges[distinct].tolist()
        at_start = at_start[distinct].tolist()
        kept = keep.reshape(-1).tolist()
        timeline.record_run(
            lane,
            list(compress(chain.from_iterable(
                map(_span_names, names[lo:hi])), kept)),
            list(compress(_PHASES * (hi - lo), kept)),
            list(compress(bounds, at_start)),
            list(compress(islice(bounds, 1, None), at_start)),
            # One args dict per group, shared by its spans.
            list(compress(chain.from_iterable(
                repeat({"group": index, "batch": batch}, 3)
                for index, batch in zip(
                    range(lo, hi), np.diff(offsets[lo:hi + 1]).tolist())),
                kept)),
        )
        if fresh and lane in timeline.lanes:
            # Earlier fresh records had only zero-length phases.
            fresh, spanned = False, hi
            if track:  # spans are recorded at their group's finish
                note(event0 + 2 * (lo - first + kept.index(True) // 3) + 1)

    def complete(c: int, begun, ended) -> None:
        """Log ``c`` more completed groups' exec starts and ends."""
        nonlocal finished
        starts[finished:finished + c] = begun
        ends[finished:finished + c] = ended
        finished += c
        if fresh:
            record_spans(finished - c, finished)

    deferred = 0
    now = start_at
    current = None
    prefetch_due = False
    while pos < n and now < horizon:
        # --- scan the maximal run of barrier-free resident hits -------
        run_end = pos
        if not overlap or (not state.spec_open
                           and predictor.known_names <= resident.keys()):
            # Scan no further than the run must: before a finite horizon
            # the reach doubles until the run ends or passes it.
            reach = n if horizon == math.inf else min(n, pos + 8)
            while run_end < n:
                if run_end == reach:
                    if cols.no_wait_end(now, pos, reach) >= horizon:
                        break
                    reach = min(n, 2 * reach - pos)
                name = names[run_end]
                if name not in resident:
                    break
                done = copy_done.get(name)
                if done is not None and done > now:
                    break
                run_end += 1
            if (overlap and pos < run_end < n
                    and names[run_end] not in resident):
                # The last group's prefetch would copy its successor in.
                run_end -= 1
        if run_end > pos:
            m = run_end - pos
            # One prefix sum over [now, r0, p0, d0, r1, ...]: acc[3k] is
            # group k's exec start, acc[3k+3] its end — each partial sum
            # adds the same floats in the same order as the scalar loop.
            acc = np.empty(3 * m + 1, dtype=np.float64)
            acc[0] = now
            acc[1:] = flat[pos:run_end].reshape(-1)
            np.cumsum(acc, out=acc)
            # c groups complete; the first to finish at or after the
            # horizon stays in flight and none after it begins.
            c = m
            if acc[-1] >= horizon:
                c = int(np.searchsorted(acc[3::3], horizon))
                m = c + 1
                run_end = pos + m
            run_experts = experts[pos:run_end]
            if predictor is not None:
                predictor.observe_run(run_experts)
            if overlap:
                runtime.touch_run(run_experts, experts[pos + 1:run_end + 1])
            else:
                runtime.touch_run(run_experts)
            if times is not None:
                # Each group's begin and finish; an in-flight group's
                # finish is not drained.
                events = np.repeat(acc[:3 * m + 1:3], 2)[1:2 * m + 1]
                times.extend(events[:2 * m - (c < m)].tolist())
            complete(c, acc[:3 * c:3], acc[3:3 * c + 1:3])
            if pipelining and run_end < n:
                # Only the run's last group can promote (its successor
                # is not a resident hit), at its begin time. Recording
                # its spans first cannot reorder lane creation: HBM
                # starts empty, so a decision point precedes any run.
                cols.head = run_end
                state.promote_next(experts[run_end], float(acc[3 * m - 3]))
                if track:
                    note(event0 + 2 * (run_end - 1 - first))
            pos = run_end
            if c < m:
                i = pos - 1
                now = float(acc[3 * c])
                current = (cols.group(i), now, table[rows[i]], i)
                break
            now = float(acc[-1])
        else:
            # --- decision point: the node's group step ---------------
            group = cols.group(pos)
            expert_name = names[pos]
            base = table[rows[pos]]
            index = pos
            pos += 1
            # A lookahead policy reads the queue from the head on.
            cols.head = pos
            nxt = experts[pos] if pos < n else None
            if times is not None:
                times.append(now)
                begin_event = len(times) - 1
            exec_start = state.begin(group, nxt, now)
            if track:
                note(begin_event)
            if overlap and nxt is not None:
                if exec_start < horizon:
                    # The reference path prefetches at exec_start, in an
                    # event of its own when the group waits for a copy;
                    # nothing else of this engine runs in between.
                    deferred += exec_start > now
                    engine._prefetch(nxt, expert_name, exec_start)
                    if track:
                        note(begin_event,
                             exec_start if exec_start > now else None)
                else:
                    prefetch_due = True
            end = exec_start + base[0] + base[1] + base[2]
            if end >= horizon:
                current = (group, exec_start, base, index)
                break
            if times is not None:
                times.append(end)
            complete(1, exec_start, end)
            now = end
        if pos < n:
            # The next group begins once its expert's pending copy lands.
            head_name = names[pos]
            done = copy_done.get(head_name)
            if done is not None and done > now and head_name in resident:
                now = done
    if finished > first:
        # Log now: an in-flight group's later finish follows this block.
        if timeline is not None:
            for lo in range(spanned, finished, _SPAN_CHUNK):
                record_spans(lo, min(lo + _SPAN_CHUNK, finished))
        state.completed.extend_block(
            cols.requests, cols.arrivals, cols.tokens, int(offsets[first]),
            int(offsets[finished]), names[first:finished],
            starts[first:finished].copy(), ends[first:finished].copy(),
            np.diff(offsets[first:finished + 1]))
        state.groups_done += finished - first
    cols.head = pos
    engine._busy_until_s = now
    return DrainStop(pos - first, deferred, now, current, prefetch_due)
