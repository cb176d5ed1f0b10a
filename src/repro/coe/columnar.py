"""Columnar (structure-of-arrays) drain core for the serving engines.

A whole-queue drain replaces the reference path's begin/finish event
pair per group with work on a local clock; on a million-request run the
per-group Python work *is* the cost. This module vectorizes it. A
backlog lives as :class:`GroupColumns`, parallel arrays over a request
table: per-group expert names, phase-time triples (read from the
engine's phase memo, which :meth:`ServingEngine.precompute_phases`
seeds through the vectorized ``perf.kernel_cost`` batch entry points),
batch sizes, and per-request arrival/output-token columns. The t=0
backlog is grouped, routed and admitted straight into those columns
(:func:`admit_backlog`), so no :class:`RequestGroup` exists until a
group leaves them; a re-entered drain lowers its queued groups
(:func:`lower_queue`). The drain (:func:`drain`) segments the queue
into **runs**:

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
(:meth:`CoERuntime.touch_run`, :meth:`CachePolicy.on_access_run`,
:meth:`ExpertPredictor.observe_run`), each an order-equivalent bulk form
of its scalar path. A traced run records its phase spans with one
:meth:`Timeline.record_run`. Only *decision points* run the per-group
step, :meth:`repro.coe.node.NodeState.begin` — the same call the
reference drain and the live worker make for every group: a cache miss
(victim selection + demand copy), a pending copy barrier, and under
the ``overlap`` policy a group whose prefetch is more than a
speculative recency refresh of a resident successor. That keeps
``CoERuntime.activate`` the single cache-decision choke point the
sim/live cross-check relies on. Pipelined promotions happen at run
ends, and a ``lookahead`` policy reads the unconsumed tail of the
lowered names (docs/PERFORMANCE.md, section 10).

A drain may also stop at a horizon, leaving the group that straddles
it in flight: a ``steal`` cluster drains each node that way up to the
first instant a steal hook could act, then hands the rest to the event
path (docs/PERFORMANCE.md, section 11).

Completions land in the node's :class:`CompletedLog`: run segments
append whole blocks (row ranges of the request table), decision points finish
through :meth:`repro.coe.node.NodeState.finish` (scalar
:class:`CompletedRequest` records), and materialization back to the
exact NamedTuples the report/consumer code sees is lazy. Latency and token
aggregation read the columns directly (``finish - arrival`` over float64
arrays is elementwise-bitwise-equal to the scalar property).
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice
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

__all__ = [
    "CompletedLog",
    "CompletedRequest",
    "DrainStop",
    "GroupColumns",
    "admit_backlog",
    "drain",
    "latency_values",
    "lower_queue",
    "token_total",
]

_PHASE_KEY = attrgetter("phase_key")
_EXPERT = attrgetter("expert")
_REQUESTS = attrgetter("requests")
_NAME = attrgetter("name")
_ARRIVAL = attrgetter("arrival_s")
_OUTPUT_TOKENS = attrgetter("output_tokens")
_PROMPT = attrgetter("prompt_tokens")
_PRIORITY = attrgetter("priority")


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
    """One drained run: the node's request table (``requests`` with its
    ``arrivals``/``tokens`` columns) and the row range ``lo:hi`` its
    groups hold, in order, their expert names, starts and ends
    (``bounds[k]`` and ``bounds[k + 1]`` of a float64 array) and batch
    ``sizes``."""

    requests: list
    arrivals: np.ndarray
    tokens: np.ndarray
    lo: int
    hi: int
    names: list
    bounds: np.ndarray
    sizes: np.ndarray

    def materialize(self) -> List["CompletedRequest"]:
        """Expand back to per-request records, in completion order.

        Each record takes its fields from the request objects of its
        rows and shares the group's start and end floats (``tolist``
        converts float64 to float exactly), as the scalar path does, so
        no per-request number is allocated.
        """
        bounds = self.bounds.tolist()
        rows = iter(self.requests[self.lo:self.hi])
        return [
            CompletedRequest(
                req.request_id, name, size, req.arrival_s, start, end,
                req.output_tokens,
            )
            for name, size, start, end in zip(
                self.names, self.sizes.tolist(), bounds,
                islice(bounds, 1, None))
            for req in islice(rows, size)
        ]

    def latency_values(self) -> List[float]:
        finish = np.repeat(self.bounds[1:], self.sizes)
        return (finish - self.arrivals[self.lo:self.hi]).tolist()

    def token_total(self) -> int:
        return int(self.tokens[self.lo:self.hi].sum())


class CompletedLog:
    """Completion store mixing scalar records and column blocks.

    Ordered segments: plain ``CompletedRequest`` lists (decision points,
    which append record by record) interleaved with :class:`_Block`
    runs. :attr:`append` is the *bound* ``list.append`` of the current
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
                     bounds, sizes) -> None:
        """Append one drained run (see :class:`_Block`)."""
        block = _Block(requests, arrivals, tokens, lo, hi, names, bounds,
                       sizes)
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
                return float(seg.bounds[-1])
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
# Admission, lowering + the drain core
# ----------------------------------------------------------------------


class GroupColumns:
    """A queued backlog as parallel arrays, one row per group, over a
    request table: group ``i`` holds rows ``offsets[i]:offsets[i+1]`` of
    :attr:`requests` and of their :attr:`arrivals`/:attr:`tokens`.
    :meth:`group` builds a :class:`RequestGroup` only where one leaves
    the columns, unless they were lowered from groups."""

    __slots__ = (
        "experts", "names", "base", "rows", "sizes", "offsets", "requests",
        "arrivals", "tokens", "table", "flat", "_factor", "_groups",
    )

    def __init__(self, experts, names, base, rows, sizes, requests,
                 arrivals, tokens, groups=None):
        self.experts = experts
        self.names = names
        #: Base (router, prefill, decode) triples, no slow factor, one
        #: per distinct shape; group ``i``'s is ``base[rows[i]]``.
        self.base = base
        self.rows = rows
        self.sizes = sizes
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.requests = requests
        self.arrivals = arrivals
        self.tokens = tokens
        #: Set by :meth:`price`: :attr:`base` at the slow factor as
        #: Python floats (the decision path computes its timestamps from
        #: ``table[rows[i]]`` so no ``np.float64`` leaks into engine
        #: state or records), and every group's triple as an (n, 3)
        #: float64 array (float -> float64 is exact) for the cumsum.
        self.table = self.flat = self._factor = None
        self._groups = groups

    def __len__(self) -> int:
        return len(self.names)

    def price(self, factor: float) -> None:
        """Set :attr:`table` and :attr:`flat` at slow factor ``factor``:
        when a drain starts, as a slow window can open between admission
        and the t=0 drain (never inside a drain event)."""
        if factor == self._factor:
            return
        table = self.base  # x * 1.0 is bitwise x
        if factor != 1.0:
            table = [(r * factor, p * factor, d * factor)
                     for r, p, d in table]
        self.table = table
        self.flat = np.asarray(table, dtype=np.float64).reshape(-1, 3)[
            self.rows]
        self._factor = factor

    def group(self, i: int) -> RequestGroup:
        """Group ``i`` as a :class:`RequestGroup`."""
        if self._groups is not None:
            return self._groups[i]
        lo, hi = self.offsets[i:i + 2].tolist()
        return RequestGroup(self.experts[i], tuple(self.requests[lo:hi]))

    def tail(self, start: int) -> List[RequestGroup]:
        """Groups ``start`` on, in order."""
        return [self.group(i) for i in range(start, len(self))]

    def no_wait_end(self, start_at: float) -> float:
        """When the last group would finish if none waited for a copy.

        One left-to-right cumsum of every phase (at the last
        :meth:`price`) from ``start_at``: the float additions
        :func:`drain` makes. A copy wait only raises a begin time and
        IEEE addition is monotone, so the drained end is never earlier.
        """
        acc = np.empty(self.flat.size + 1, dtype=np.float64)
        acc[0] = start_at
        acc[1:] = self.flat.reshape(-1)
        return float(np.cumsum(acc)[-1])


def lower_queue(
    engine: "ServingEngine", groups: Sequence[RequestGroup]
) -> GroupColumns:
    """Lower queued ``groups`` into :class:`GroupColumns` for a
    re-entered drain (admission builds them in :func:`admit_backlog`),
    reading each distinct shape's phases once from the phase memo
    (:meth:`NodeState.phase_times`; a cold shape takes the memoized
    scalar path the reference drain uses)."""
    n = len(groups)
    keys = list(map(_PHASE_KEY, groups))
    shapes = dict(zip(keys, groups))
    row_of = dict(zip(shapes, range(len(shapes))))
    experts = list(map(_EXPERT, groups))
    requests = list(map(_REQUESTS, groups))
    table = list(chain.from_iterable(requests))
    return GroupColumns(
        experts, list(map(_NAME, experts)),
        list(map(engine.state.phase_times, shapes.values())),
        np.fromiter(map(row_of.__getitem__, keys), np.intp, n),
        np.fromiter(map(len, requests), np.int64, n), table,
        np.fromiter(map(_ARRIVAL, table), np.float64, len(table)),
        np.fromiter(map(_OUTPUT_TOKENS, table), np.int64, len(table)),
        groups=list(groups),
    )


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


def admit_backlog(
    engines: Sequence["ServingEngine"],
    requests: Sequence,
    policy: str,
    window: int,
    max_batch: int,
    owner_of: Optional[Dict[str, int]] = None,
    deadline_s: Optional[float] = None,
    decisions: Optional["DecisionLog"] = None,
    node_names: Sequence[str] = (),
) -> Tuple[List["ServingEngine"], list, int]:
    """Admit a t=0 backlog, in scheduler order, in arrays.

    The batch form of ``coalesce_groups(node_order(requests, policy,
    window), max_batch)`` then ``ClusterEngine._dispatch`` per group:
    the window reorder and the ``max_batch`` cuts are the kernels those
    functions wrap, ``phase_key`` maxima come from
    ``np.maximum.reduceat``, and a group goes to its expert's owner in
    ``owner_of`` (engine 0 without one). ``shard_experts`` places a
    partition and replicas appear only once the clock runs, so at
    admission every expert has one owner and routing is a lookup under
    every cluster policy. Each engine's phase memo is seeded in bulk
    with the shapes routed to it, and its admitted groups wait, in
    admission order, as its ``_admitted`` columns for the t=0 drain.

    With a ``deadline_s`` groups are admitted highest priority first
    (``ClusterEngine._priority_order``) against a running per-engine
    sum of ``_memo_exec_time`` floats from 0.0: bitwise the fresh queue
    sums of the per-group path. Verdicts and the ``admission`` stream
    (engine ``i`` is ``node_names[i]``) are :func:`admit`'s.

    Returns the engines with admitted groups, in the order they received
    their first, the shed requests in admission order, and the number of
    groups formed.
    """
    n = len(requests)
    codes, names = expert_codes(requests)
    grouped = np.arange(n)  # grouped position -> row of ``requests``
    if NodePolicy.coerce(policy) is not NodePolicy.FIFO:
        grouped = window_order(codes, window)
        codes = codes[grouped]

    starts = group_starts(codes, max_batch)
    sizes = np.diff(np.append(starts, n))
    gcodes = codes[starts]

    def column(getter, dtype=np.int64):
        return np.fromiter(map(getter, requests), dtype, n)

    def rows_of(groups: np.ndarray) -> np.ndarray:
        """The rows of ``requests`` that ``groups`` hold, in order."""
        lengths = sizes[groups]
        skip = np.repeat(np.cumsum(lengths) - lengths - starts[groups],
                         lengths)
        return grouped[np.arange(int(lengths.sum())) - skip]

    nodes = np.zeros(len(starts), dtype=np.intp)
    if owner_of is not None:
        try:
            owners = [owner_of[name] for name in names]
        except KeyError as exc:
            raise KeyError(f"no node hosts expert {exc.args[0]!r}") from None
        nodes = np.asarray(owners, dtype=np.intp)[gcodes]
    tokens = column(_OUTPUT_TOKENS)
    first_of, shape_of = _distinct_rows(
        gcodes, sizes, np.maximum.reduceat(column(_PROMPT)[grouped], starts),
        np.maximum.reduceat(tokens[grouped], starts),
    )
    base: list = [None] * len(first_of)
    exec_s = [0.0] * len(first_of)
    for index, engine in enumerate(engines):
        mine = np.flatnonzero(nodes[first_of] == index)
        reps = [RequestGroup(rows[0].expert, tuple(rows)) for rows in (
            take(requests, rows_of(first_of[[k]])) for k in mine)]
        engine.precompute_phases(reps)
        for shape, rep in zip(mine.tolist(), reps):
            base[shape] = engine.state.phase_times(rep)
            if deadline_s is not None:
                exec_s[shape] = engine._memo_exec_time(rep)
    admitted = np.arange(len(starts))
    if deadline_s is not None:
        priority = np.maximum.reduceat(column(_PRIORITY)[grouped], starts)
        admitted = np.argsort(-priority, kind="stable")
    shed: List[int] = []
    if deadline_s is not None or decisions is not None:
        backlog = [0.0] * len(engines)
        kept: List[int] = []
        for k, node, code, batch, shape in zip(
                admitted.tolist(), nodes[admitted].tolist(),
                gcodes[admitted].tolist(), sizes[admitted].tolist(),
                shape_of[admitted].tolist()):
            if admit(names[code], batch, node_names[node], decisions,
                     deadline_s, 0.0, backlog[node], exec_s[shape]):
                backlog[node] += exec_s[shape]
                kept.append(k)
            else:
                shed.append(k)
        admitted = np.asarray(kept, dtype=np.intp)
    # The admitted groups by engine, each in admission order.
    by_node = np.argsort(nodes[admitted], kind="stable")
    bounds = np.searchsorted(nodes[admitted][by_node],
                             np.arange(len(engines) + 1)).tolist()
    name_of = np.asarray(names, dtype=object)
    arrivals = column(_ARRIVAL, np.float64)
    for engine, lo, hi in zip(engines, bounds, bounds[1:]):
        mine = admitted[by_node[lo:hi]]
        if len(mine):
            rows = rows_of(mine)
            table = take(requests, rows)
            shapes, local = np.unique(shape_of[mine], return_inverse=True)
            heads = np.cumsum(sizes[mine]) - sizes[mine]
            engine._admitted = GroupColumns(
                list(map(_EXPERT, take(table, heads))),
                name_of[gcodes[mine]].tolist(), take(base, shapes),
                local.reshape(-1), sizes[mine], table, arrivals[rows],
                tokens[rows],
            )
    roots = sorted((i for i in range(len(engines)) if bounds[i + 1] >
                    bounds[i]), key=lambda i: by_node[bounds[i]])
    return ([engines[i] for i in roots],
            take(requests, rows_of(np.asarray(shed, dtype=np.intp))),
            len(starts))


#: The compute phases of a group, in execution order.
_PHASES = ("router", "prefill", "decode")


class DrainStop(NamedTuple):
    """Where :func:`drain` stopped: the end of the queue or its horizon."""

    #: Groups begun, an in-flight one included.
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
    """Drain lowered columns on a local clock.

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
    log = state.completed
    timeline = engine._sim.timeline
    overlap = engine.policy == "overlap"
    pipelining = state.pipeline_active
    cols.price(engine.slow_factor)
    names = cols.names
    experts = cols.experts
    table = cols.table
    rows = cols.rows
    flat = cols.flat
    offsets = cols.offsets
    n = len(names)
    first_index = engine._groups_started
    if timeline is not None:
        lane = engine.lane("compute")
        span_names = {
            name: tuple(f"{phase}:{name}" for phase in _PHASES)
            for name in set(names)
        }
    track = created is not None and timeline is not None
    known = len(timeline.lanes) if track else 0

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

    # The lookahead backlog view reads names[engine._drain_pos:].
    engine._drain_names = names
    deferred = 0
    now = start_at
    pos = 0
    current = None
    prefetch_due = False
    while pos < n and now < horizon:
        # --- scan the maximal run of barrier-free resident hits -------
        run_end = pos
        if not overlap or (not state.spec_open
                           and predictor.known_names <= resident.keys()):
            while run_end < n:
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
            predictor.observe_run(run_experts)
            if overlap:
                runtime.touch_run(run_experts, experts[pos + 1:run_end + 1])
            else:
                runtime.touch_run(run_experts)
            if times is not None:
                # Each group's begin and finish; an in-flight group's
                # finish is not drained.
                base_event = len(times)
                events = np.repeat(acc[:3 * m + 1:3], 2)[1:2 * m + 1]
                times.extend(events[:2 * m - (c < m)].tolist())
            run_names = names[pos:pos + c]
            if timeline is not None and c:
                durations = flat[pos:pos + c]
                times_c = acc[:3 * c + 1].tolist()
                sizes = cols.sizes[pos:pos + c].tolist()
                keep = (durations > 0).reshape(-1).tolist()
                timeline.record_run(
                    lane,
                    list(compress(chain.from_iterable(
                        map(span_names.__getitem__, run_names)), keep)),
                    list(compress(_PHASES * c, keep)),
                    list(compress(times_c, keep)),
                    list(compress(islice(times_c, 1, None), keep)),
                    list(compress(
                        ({"group": index, "batch": batch}
                         for index, batch in zip(
                             range(first_index + pos, first_index + pos + c),
                             sizes)
                         for _ in _PHASES),
                        keep)),
                )
                if track and True in keep:
                    # Spans are recorded at a group's finish.
                    note(base_event + 2 * (keep.index(True) // 3) + 1)
            if pipelining and run_end < n:
                # Only the run's last group can promote (its successor
                # is not a resident hit), at its begin time. Recording
                # its spans first cannot reorder lane creation: HBM
                # starts empty, so a decision point precedes any run.
                engine._drain_pos = run_end
                state.promote_next(experts[run_end], float(acc[3 * m - 3]))
                if track:
                    note(base_event + 2 * m - 2)
            if c:
                lo = offsets[pos]
                hi = offsets[pos + c]
                log.extend_block(
                    cols.requests, cols.arrivals, cols.tokens,
                    int(lo), int(hi), run_names,
                    acc[:3 * c + 1:3].copy(), cols.sizes[pos:pos + c],
                )
                state.groups_done += c
            pos = run_end
            if c < m:
                i = pos - 1
                now = float(acc[3 * c])
                current = (cols.group(i), now, table[rows[i]],
                           first_index + i)
                break
            now = float(acc[-1])
        else:
            # --- decision point: the node's group step ---------------
            group = cols.group(pos)
            expert_name = names[pos]
            base = table[rows[pos]]
            index = first_index + pos
            pos += 1
            engine._drain_pos = pos
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
            state.finish(group, exec_start, base, end, index)
            if times is not None:
                times.append(end)
                if track:
                    note(begin_event + 1)
            now = end
        if pos < n:
            # The next group begins once its expert's pending copy lands.
            head_name = names[pos]
            done = copy_done.get(head_name)
            if done is not None and done > now and head_name in resident:
                now = done
    engine._drain_names = None
    engine._busy_until_s = now
    return DrainStop(pos, deferred, now, current, prefetch_due)
