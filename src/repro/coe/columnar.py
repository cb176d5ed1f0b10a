"""Columnar (structure-of-arrays) drain core for the serving engines.

The PR 6 batched drain (:meth:`ServingEngine._drain_batched`) replaced
per-group simulator events with one Python loop iteration per group.
On a million-request run that loop *is* the cost: a dict probe, a
predictor observation, a cache activation, a float add chain and one
``CompletedRequest`` NamedTuple per request — all interpreter work.

This module vectorizes the loop itself. A queued backlog is *lowered*
once into parallel arrays (:func:`lower_queue`): per-group expert names,
phase-time triples (read from the engine's phase memo, which
:meth:`ServingEngine.precompute_phases` seeds through the vectorized
``perf.kernel_cost`` batch entry points), batch sizes, and per-request
request-id/arrival/output-token columns. The drain (:func:`drain`) then
segments the queue into **runs**:

    a run is a maximal stretch of groups whose experts are all
    HBM-resident with no pending copy-done barrier — so no eviction,
    no DMA wait, no prefetch decision can occur inside it, and every
    timestamp in the run is a pure prefix sum over phase durations.

Run timestamps come from one ``numpy.cumsum`` over the interleaved
``(router, prefill, decode)`` durations. ``cumsum`` accumulates strictly
left-to-right, so each partial sum performs the *same* float additions
in the *same* order as the scalar loop — the timestamps are bitwise
identical, not merely close (pinned by ``tests/coe/test_columnar.py``).
Cache/predictor bookkeeping for a run goes through the batch APIs
(:meth:`CoERuntime.touch_run`, :meth:`CachePolicy.on_access_run`,
:meth:`ExpertPredictor.observe_run`), each an order-equivalent bulk form
of its scalar path. Only *decision points* — a cache miss (victim
selection + demand copy), or a hit gated on a pending copy barrier —
drop back to the exact scalar code of the batched drain, preserving
``CoERuntime.activate`` as the single cache-decision choke point the
sim/live cross-check relies on.

Completions land in a :class:`CompletedLog`: run segments append whole
column blocks (no per-request allocation), decision points append scalar
``CompletedRequest`` records, and materialization back to the exact
NamedTuples today's report/consumer code sees is lazy. Latency and
token aggregation read the columns directly (``finish - arrival`` over
float64 arrays is elementwise-bitwise-equal to the scalar property).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.coe.engine import CompletedRequest, ServingEngine
    from repro.coe.scheduling import RequestGroup

__all__ = [
    "CompletedLog",
    "GroupColumns",
    "drain",
    "latency_values",
    "lower_queue",
    "token_total",
]

_PHASE_KEY = attrgetter("phase_key")
_EXPERT = attrgetter("expert")
_REQUESTS = attrgetter("requests")
_NAME = attrgetter("name")
_REQUEST_ID = attrgetter("request_id")
_ARRIVAL = attrgetter("arrival_s")
_OUTPUT_TOKENS = attrgetter("output_tokens")


def _completed_request_type():
    from repro.coe.engine import CompletedRequest

    return CompletedRequest


class _Block:
    """One drained run, as columns. Per-group arrays (``names``,
    ``sizes``, ``start``, ``end``) plus per-request arrays aligned with
    ``sizes`` expansion (``req_ids``, ``arrivals``, ``tokens``)."""

    __slots__ = (
        "names", "sizes", "start", "end", "req_ids", "arrivals", "tokens",
        "num_requests",
    )

    def __init__(self, names, sizes, start, end, req_ids, arrivals, tokens):
        self.names = names
        self.sizes = sizes
        self.start = start
        self.end = end
        self.req_ids = req_ids
        self.arrivals = arrivals
        self.tokens = tokens
        self.num_requests = len(req_ids)

    def materialize(self) -> List["CompletedRequest"]:
        """Expand back to per-request records, in completion order.

        ``.tolist()`` converts every ``float64``/``int64`` back to the
        native Python scalar — exactly (no rounding) — so the records
        are indistinguishable from ones the scalar path appended.
        """
        CompletedRequest = _completed_request_type()
        sizes = self.sizes.tolist()
        names = [n for n, b in zip(self.names, sizes) for _ in range(b)]
        batches = [b for b in sizes for _ in range(b)]
        starts = np.repeat(self.start, self.sizes).tolist()
        ends = np.repeat(self.end, self.sizes).tolist()
        return [
            CompletedRequest(*fields)
            for fields in zip(
                self.req_ids.tolist(), names, batches,
                self.arrivals.tolist(), starts, ends, self.tokens.tolist(),
            )
        ]

    def latency_values(self) -> List[float]:
        finish = np.repeat(self.end, self.sizes)
        return (finish - self.arrivals).tolist()

    def token_total(self) -> int:
        return int(self.tokens.sum())


class CompletedLog:
    """Completion store mixing scalar records and column blocks.

    Ordered segments: plain ``CompletedRequest`` lists (decision points,
    and any fallback drain that appends record by record) interleaved
    with :class:`_Block` columns (vectorized runs). :attr:`append` is
    the *bound* ``list.append`` of the current tail segment — the scalar
    paths pay zero dispatch overhead over appending to a bare list.

    Iteration, indexing and ``materialize()`` present the exact
    per-request NamedTuples, in completion order, that a plain list
    would hold; the result is cached until the log grows.
    """

    __slots__ = ("_segments", "_tail", "append", "_cache", "_cache_len")

    def __init__(self) -> None:
        self._tail: List["CompletedRequest"] = []
        self._segments: List[object] = [self._tail]
        #: Bound tail-list append; rebound whenever a block closes the tail.
        self.append = self._tail.append
        self._cache: Optional[List["CompletedRequest"]] = None
        self._cache_len = -1

    def extend_block(
        self, names, sizes, start, end, req_ids, arrivals, tokens
    ) -> None:
        """Append one drained run as columns (see :class:`_Block`)."""
        block = _Block(names, sizes, start, end, req_ids, arrivals, tokens)
        if self._tail:
            self._segments.append(block)
            self._tail = []
            self._segments.append(self._tail)
            self.append = self._tail.append
        else:
            # Keep the (empty) tail last so `append` stays valid.
            self._segments.insert(len(self._segments) - 1, block)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            seg.num_requests if isinstance(seg, _Block) else len(seg)
            for seg in self._segments
        )

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


def latency_values(completed) -> List[float]:
    """Per-request latencies of any completion store (list or log)."""
    if isinstance(completed, CompletedLog):
        return completed.latency_values()
    return [c.latency_s for c in completed]


def token_total(completed) -> int:
    """Total output tokens of any completion store (list or log)."""
    if isinstance(completed, CompletedLog):
        return completed.token_total()
    return sum(c.output_tokens for c in completed)


# ----------------------------------------------------------------------
# Lowering + the drain core
# ----------------------------------------------------------------------


class GroupColumns:
    """A queued backlog, lowered to parallel arrays (one row per group)."""

    __slots__ = (
        "groups", "experts", "names", "table", "rows", "flat", "sizes",
        "offsets", "req_ids", "arrivals", "tokens",
    )

    def __init__(self, groups, experts, names, table, rows, flat, sizes,
                 offsets, req_ids, arrivals, tokens):
        self.groups = groups
        self.experts = experts
        self.names = names
        #: Python-float phase triples, one per distinct shape — the
        #: decision path computes its timestamps from ``table[rows[i]]``
        #: in pure Python so no ``np.float64`` ever leaks into engine
        #: state or completion records.
        self.table = table
        #: Group ``i``'s row of :attr:`table`.
        self.rows = rows
        #: Every group's triple as an (n, 3) float64 array (exact
        #: values: float -> float64 is an identity conversion) for the
        #: cumsum.
        self.flat = flat
        self.sizes = sizes
        #: Request-column offsets: group ``i`` owns rows
        #: ``offsets[i]:offsets[i+1]`` of the per-request arrays.
        self.offsets = offsets
        self.req_ids = req_ids
        self.arrivals = arrivals
        self.tokens = tokens

    def __len__(self) -> int:
        return len(self.groups)


def lower_queue(
    engine: "ServingEngine", groups: Sequence["RequestGroup"]
) -> GroupColumns:
    """Lower ``groups`` into :class:`GroupColumns` for one drain.

    Phase triples come from the engine's phase memo (seeded in bulk by
    the vectorized ``precompute_phases``; any cold shape falls through
    the same memoized scalar path the batched drain uses), looked up
    once per distinct ``phase_key`` into a small per-shape table whose
    rows each group then gathers. The slow factor is applied here once
    per shape — it cannot change inside a drain event, and ``x * 1.0``
    is skipped exactly as the batched loop skips it.
    """
    n = len(groups)
    keys = list(map(_PHASE_KEY, groups))
    # distinct_shapes(groups), over the keys already read.
    shapes = dict(zip(keys, groups))
    base_of = engine._base_phase_times
    cache = engine._phase_cache
    factor = engine.slow_factor
    table = []
    for key, group in shapes.items():
        base = cache.get(key)
        if base is None:
            base = base_of(group)
        if factor != 1.0:
            base = (base[0] * factor, base[1] * factor, base[2] * factor)
        table.append(base)
    row_of = dict(zip(shapes, range(len(table))))
    rows = np.fromiter(map(row_of.__getitem__, keys), dtype=np.intp, count=n)
    experts = list(map(_EXPERT, groups))
    requests = list(map(_REQUESTS, groups))
    sizes = np.fromiter(map(len, requests), dtype=np.int64, count=n)
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(sizes, out=offsets[1:])
    flat_requests = list(chain.from_iterable(requests))
    m = len(flat_requests)
    return GroupColumns(
        groups=list(groups),
        experts=experts,
        names=list(map(_NAME, experts)),
        table=table,
        rows=rows,
        flat=np.asarray(table, dtype=np.float64).reshape(-1, 3)[rows],
        sizes=sizes,
        offsets=offsets,
        req_ids=np.fromiter(
            map(_REQUEST_ID, flat_requests), dtype=np.int64, count=m
        ),
        arrivals=np.fromiter(
            map(_ARRIVAL, flat_requests), dtype=np.float64, count=m
        ),
        tokens=np.fromiter(
            map(_OUTPUT_TOKENS, flat_requests), dtype=np.int64, count=m
        ),
    )


def drain(engine: "ServingEngine", cols: GroupColumns, start_at: float) -> float:
    """Drain lowered columns on a local clock; returns the end time.

    The array-parallel form of :meth:`ServingEngine._drain_batched` for
    the non-``overlap``, untraced case (the caller guarantees both).
    Runs of resident-expert groups are timestamped by one cumsum and
    their cache/predictor bookkeeping applied through the batch APIs;
    each decision point executes the batched loop's scalar code
    verbatim. The segmentation is conservative — a group is only
    admitted to a run if its expert is resident *and* any pending copy
    completed by the run's start — and a group it excludes is simply
    re-examined (scalar) at its true start time, where the identical
    hit/barrier/miss arithmetic applies. State mutations therefore
    happen in the same order with the same values as the batched loop,
    which the three-way equivalence grid asserts byte-for-byte.
    """
    CompletedRequest = _completed_request_type()
    runtime = engine.server.runtime
    resident = runtime.resident_map
    copy_done = engine._copy_done
    predictor = engine._predictor
    observe = predictor.observe
    log = engine.completed
    names = cols.names
    experts = cols.experts
    table = cols.table
    rows = cols.rows
    flat = cols.flat
    offsets = cols.offsets
    n = len(names)
    now = start_at
    pos = 0
    while pos < n:
        # --- scan the maximal run of barrier-free resident hits -------
        run_end = pos
        while run_end < n:
            name = names[run_end]
            if name not in resident:
                break
            done = copy_done.get(name)
            if done is not None and done > now:
                break
            run_end += 1
        if run_end > pos:
            m = run_end - pos
            # One prefix sum over [now, r0, p0, d0, r1, ...]: acc[3k] is
            # group k's exec start, acc[3k+3] its end — each partial sum
            # adds the same floats in the same order as the scalar loop.
            acc = np.empty(3 * m + 1, dtype=np.float64)
            acc[0] = now
            acc[1:] = flat[pos:run_end].reshape(-1)
            np.cumsum(acc, out=acc)
            run_experts = experts[pos:run_end]
            predictor.observe_run(run_experts)
            runtime.touch_run(run_experts)
            lo = offsets[pos]
            hi = offsets[run_end]
            log.extend_block(
                names[pos:run_end],
                cols.sizes[pos:run_end],
                acc[0 : 3 * m : 3].copy(),
                acc[3::3].copy(),
                cols.req_ids[lo:hi],
                cols.arrivals[lo:hi],
                cols.tokens[lo:hi],
            )
            now = float(acc[-1])
            pos = run_end
            continue
        # --- decision point: the batched loop's scalar code -----------
        group = cols.groups[pos]
        expert = experts[pos]
        expert_name = names[pos]
        observe(expert)
        if expert_name in resident:
            runtime.activate(expert)  # hit: free recency refresh
            done = copy_done.get(expert_name)
            exec_start = now if done is None or done <= now else done
        else:
            exec_start = engine._demand_copy(expert, now=now)
        base = table[rows[pos]]
        end = exec_start + base[0] + base[1] + base[2]
        batch = len(group.requests)
        append = log.append
        for req in group.requests:
            append(CompletedRequest(
                req.request_id, expert_name, batch, req.arrival_s,
                exec_start, end, req.output_tokens,
            ))
        now = end
        pos += 1
        if pos < n:
            head_name = names[pos]
            done = copy_done.get(head_name)
            if done is not None and done > now and head_name in resident:
                now = done
    engine._busy_until_s = now
    return now
