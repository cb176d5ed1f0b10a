"""Columnar (structure-of-arrays) drain core for the serving engines.

A whole-queue drain replaces the reference path's begin/finish event
pair per group with work on a local clock; on a million-request run the
per-group Python work *is* the cost. This module vectorizes it. A
queued backlog is *lowered* once into parallel arrays
(:func:`lower_queue`): per-group expert names, phase-time triples (read
from the engine's phase memo, which
:meth:`ServingEngine.precompute_phases` seeds through the vectorized
``perf.kernel_cost`` batch entry points), batch sizes, and per-request
arrival/output-token columns. The drain (:func:`drain`) then segments
the queue into **runs**:

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
(victim selection + demand copy), and under the ``overlap`` policy
every group, since a prefetch decision happens at each group begin.
That keeps ``CoERuntime.activate`` the single cache-decision choke
point the sim/live cross-check relies on. Pipelined promotions happen
at run ends, and a ``lookahead`` policy reads the unconsumed tail of
the lowered names (docs/PERFORMANCE.md, section 10).

Completions land in a :class:`CompletedLog`: run segments append whole
blocks (no per-request allocation), decision points append scalar
``CompletedRequest`` records, and materialization back to the exact
NamedTuples the report/consumer code sees is lazy. Latency and token
aggregation read the columns directly (``finish - arrival`` over float64
arrays is elementwise-bitwise-equal to the scalar property).
"""

from __future__ import annotations

from itertools import chain, compress, islice
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

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
_ARRIVAL = attrgetter("arrival_s")
_OUTPUT_TOKENS = attrgetter("output_tokens")


def _completed_request_type():
    from repro.coe.engine import CompletedRequest

    return CompletedRequest


class _Block:
    """One drained run: its groups and expert names, each group's start
    and end (``bounds[k]`` and ``bounds[k + 1]`` of a float64 array),
    and the run's per-request ``arrivals``/``tokens`` columns aligned
    with the expansion of ``sizes``."""

    __slots__ = (
        "groups", "names", "bounds", "sizes", "arrivals", "tokens",
        "num_requests",
    )

    def __init__(self, groups, names, bounds, sizes, arrivals, tokens):
        self.groups = groups
        self.names = names
        self.bounds = bounds
        self.sizes = sizes
        self.arrivals = arrivals
        self.tokens = tokens
        self.num_requests = len(arrivals)

    def materialize(self) -> List["CompletedRequest"]:
        """Expand back to per-request records, in completion order.

        Each record takes its fields from the group's own request
        objects and shares the group's start and end floats (``tolist``
        converts float64 to float exactly), as the scalar path does, so
        no per-request number is allocated.
        """
        CompletedRequest = _completed_request_type()
        bounds = self.bounds.tolist()
        return [
            CompletedRequest(
                req.request_id, name, len(group.requests), req.arrival_s,
                start, end, req.output_tokens,
            )
            for group, name, start, end in zip(
                self.groups, self.names, bounds, islice(bounds, 1, None))
            for req in group.requests
        ]

    def latency_values(self) -> List[float]:
        finish = np.repeat(self.bounds[1:], self.sizes)
        return (finish - self.arrivals).tolist()

    def token_total(self) -> int:
        return int(self.tokens.sum())


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

    def extend_block(self, groups, names, bounds, sizes, arrivals,
                     tokens) -> None:
        """Append one drained run (see :class:`_Block`)."""
        block = _Block(groups, names, bounds, sizes, arrivals, tokens)
        self._closed += block.num_requests
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
        "offsets", "arrivals", "tokens",
    )

    def __init__(self, groups, experts, names, table, rows, flat, sizes,
                 offsets, arrivals, tokens):
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
    the same memoized scalar path the reference drain uses), looked up
    once per distinct ``phase_key`` into a small per-shape table whose
    rows each group then gathers. The slow factor is applied here once
    per shape — it cannot change inside a drain event — and the no-op
    stretch is skipped, since ``x * 1.0`` is bitwise ``x``.
    """
    n = len(groups)
    keys = list(map(_PHASE_KEY, groups))
    # distinct_shapes(groups), over the keys already read.
    shapes = dict(zip(keys, groups))
    base_of = engine.state.phase_times
    cache = engine.state.phase_cache
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
        arrivals=np.fromiter(
            map(_ARRIVAL, flat_requests), dtype=np.float64, count=m
        ),
        tokens=np.fromiter(
            map(_OUTPUT_TOKENS, flat_requests), dtype=np.int64, count=m
        ),
    )


#: The compute phases of a group, in execution order.
_PHASES = ("router", "prefill", "decode")


def drain(
    engine: "ServingEngine", cols: GroupColumns, start_at: float
) -> Tuple[float, int]:
    """Drain lowered columns on a local clock.

    Returns the end time and the number of prefetches deferred to their
    group's exec start (each one is an extra event on the reference
    path). Runs of resident-expert groups are timestamped by one cumsum
    and their cache/predictor bookkeeping applied through the batch
    APIs; each decision point runs the node's group step
    (:meth:`NodeState.begin`). The segmentation is conservative — a
    group is only admitted to a run if its expert is resident *and* any
    pending copy completed by the run's start — and a group it excludes
    is simply re-examined (scalar) at its true start time, where the
    identical hit/barrier/miss arithmetic applies. State mutations
    therefore happen in the same order with the same values as the
    reference path, which the equivalence grid asserts byte-for-byte.
    """
    CompletedRequest = _completed_request_type()
    state = engine.state
    runtime = state.server.runtime
    resident = runtime.resident_map
    copy_done = state.copy_done
    predictor = state.predictor
    log = engine.completed
    timeline = engine._sim.timeline
    overlap = engine.policy == "overlap"
    pipelining = state.pipeline_active
    groups = cols.groups
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
    # Under ``overlap`` every group begin is a prefetch decision, so no
    # group joins a run.
    scan_end = 0 if overlap else n
    # The lookahead backlog view reads names[engine._drain_pos:].
    engine._drain_names = names
    deferred = 0
    now = start_at
    pos = 0
    while pos < n:
        # --- scan the maximal run of barrier-free resident hits -------
        run_end = pos
        while run_end < scan_end:
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
            durations = flat[pos:run_end]
            acc = np.empty(3 * m + 1, dtype=np.float64)
            acc[0] = now
            acc[1:] = durations.reshape(-1)
            np.cumsum(acc, out=acc)
            run_experts = experts[pos:run_end]
            predictor.observe_run(run_experts)
            runtime.touch_run(run_experts)
            run_names = names[pos:run_end]
            if timeline is not None:
                times = acc.tolist()
                sizes = cols.sizes[pos:run_end].tolist()
                keep = (durations > 0).reshape(-1).tolist()
                timeline.record_run(
                    lane,
                    list(compress(chain.from_iterable(
                        map(span_names.__getitem__, run_names)), keep)),
                    list(compress(_PHASES * m, keep)),
                    list(compress(times, keep)),
                    list(compress(islice(times, 1, None), keep)),
                    list(compress(
                        ({"group": index, "batch": batch}
                         for index, batch in zip(
                             range(first_index + pos, first_index + run_end),
                             sizes)
                         for _ in _PHASES),
                        keep)),
                )
            if pipelining and run_end < n:
                # Only the run's last group can promote (its successor
                # is not a resident hit), at its begin time. Recording
                # its spans first cannot reorder lane creation: HBM
                # starts empty, so a decision point precedes any run.
                engine._drain_pos = run_end
                state.promote_next(experts[run_end], float(acc[-4]))
            lo = offsets[pos]
            hi = offsets[run_end]
            log.extend_block(
                groups[pos:run_end],
                run_names,
                acc[::3].copy(),
                cols.sizes[pos:run_end],
                cols.arrivals[lo:hi],
                cols.tokens[lo:hi],
            )
            now = float(acc[-1])
            pos = run_end
        else:
            # --- decision point: the node's group step ---------------
            group = groups[pos]
            expert_name = names[pos]
            base = table[rows[pos]]
            index = first_index + pos
            pos += 1
            engine._drain_pos = pos
            nxt = experts[pos] if pos < n else None
            exec_start = state.begin(group, nxt, now)
            if overlap and nxt is not None:
                # The reference path prefetches at exec_start, in an
                # event of its own when the group waits for a copy;
                # nothing else of this engine runs in between.
                deferred += exec_start > now
                engine._prefetch(nxt, expert_name, exec_start)
            end = exec_start + base[0] + base[1] + base[2]
            if timeline is not None:
                engine._record_phases(group, exec_start, base, index)
            batch = len(group.requests)
            append = log.append
            for req in group.requests:
                append(CompletedRequest(
                    req.request_id, expert_name, batch, req.arrival_s,
                    exec_start, end, req.output_tokens,
                ))
            now = end
        if pos < n:
            # The next group begins once its expert's pending copy lands.
            head_name = names[pos]
            done = copy_done.get(head_name)
            if done is not None and done > now and head_name in resident:
                now = done
    engine._drain_names = None
    engine._busy_until_s = now
    return now, deferred
